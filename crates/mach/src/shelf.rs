//! Per-thread shelves of zeroed buffers, so that a structure a run builds
//! and drops over and over ([`crate::Memory`], the caches' line arrays, the
//! BTB's entries) costs what the run writes, not what it could address.
//!
//! Each owner records what it wrote in a bitmap ([`mark`]): one bit per
//! page of an image, per cache set, per BTB set. A dropped owner parks its
//! buffer with that bitmap, and only the marked chunks are zeroed; the
//! next owner of the same length takes the buffer back instead of
//! allocating and filling a fresh one. A shelf is bounded twice: by a
//! buffer count and by the total length of what it holds. When a parked
//! buffer does not fit, the shelf drops smaller buffers to make room, so
//! the largest ones — the dearest to fill — stay.

use core::cell::RefCell;
use std::thread::LocalKey;

/// Sets bit `i` of the bitmap `words` (bit `i % 64` of word `i / 64`).
#[inline]
pub(crate) fn mark(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// The indices of the bits set in `words`, ascending.
pub(crate) fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut bits)| {
        core::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i
            })
        })
    })
}

/// The per-thread storage behind a [`Shelf`].
pub(crate) type Slots<T> = LocalKey<RefCell<Vec<Vec<T>>>>;

/// A bounded per-thread free list of zeroed buffers.
pub(crate) struct Shelf<T: 'static> {
    slots: &'static Slots<T>,
    max_bufs: usize,
    max_len: usize,
}

impl<T> Shelf<T> {
    /// A shelf over `slots` that holds at most `max_bufs` buffers of at
    /// most `max_len` elements in all.
    pub(crate) const fn new(slots: &'static Slots<T>, max_bufs: usize, max_len: usize) -> Self {
        Shelf {
            slots,
            max_bufs,
            max_len,
        }
    }

    /// Takes a parked buffer of exactly `len` elements, if this thread
    /// holds one.
    pub(crate) fn take(&self, len: usize) -> Option<Vec<T>> {
        self.slots
            .try_with(|slots| {
                let mut slots = slots.borrow_mut();
                let i = slots.iter().position(|b| b.len() == len)?;
                Some(slots.swap_remove(i))
            })
            .ok()
            .flatten()
    }

    /// Parks `buf` once every chunk of `chunk` elements whose bit is set in
    /// `marks` — the chunks its owner wrote — is reset to `T::default()`,
    /// dropping the smallest parked buffers, each strictly smaller than
    /// `buf`, until it fits. When dropping all of those would not make
    /// room, or the thread's shelf is already torn down, nothing is dropped
    /// and `buf` is left where it is, uncleared.
    pub(crate) fn park(&self, buf: &mut Vec<T>, marks: &[u64], chunk: usize)
    where
        T: Clone + Default,
    {
        let len = buf.len();
        if len == 0 {
            return;
        }
        let _ = self.slots.try_with(|slots| {
            let mut slots = slots.borrow_mut();
            // Would `buf` fit beside what it may not push out?
            let (kept, held) = slots
                .iter()
                .filter(|b| b.len() >= len)
                .fold((0, 0), |(n, held), b| (n + 1, held + b.len()));
            if kept >= self.max_bufs || held + len > self.max_len {
                return;
            }
            loop {
                let held: usize = slots.iter().map(Vec::len).sum();
                if slots.len() < self.max_bufs && held + len <= self.max_len {
                    break;
                }
                let smallest = (0..slots.len())
                    .filter(|&i| slots[i].len() < len)
                    .min_by_key(|&i| slots[i].len());
                slots.swap_remove(smallest.expect("it fits without every smaller one"));
            }
            for i in set_bits(marks.iter().copied()) {
                let start = i * chunk;
                buf[start..(start + chunk).min(len)].fill(T::default());
            }
            slots.push(core::mem::take(buf));
        });
    }

    /// Empties this thread's shelf.
    #[cfg(test)]
    pub(crate) fn clear(&self) {
        self.slots.with(|slots| slots.borrow_mut().clear());
    }

    /// The lengths this thread's shelf holds, in parking order.
    #[cfg(test)]
    pub(crate) fn lens(&self) -> Vec<usize> {
        self.slots
            .with(|slots| slots.borrow().iter().map(Vec::len).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        static SLOTS: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
    }

    static SHELF: Shelf<u8> = Shelf::new(&SLOTS, 3, 100);

    /// Parks a buffer of `len` ones whose first 64-byte chunk is marked
    /// written; returns whether it was parked.
    fn park(len: usize) -> bool {
        let mut buf = vec![1; len];
        SHELF.park(&mut buf, &[1], 64);
        buf.is_empty() && len > 0
    }

    #[test]
    fn larger_buffers_push_smaller_ones_out() {
        assert!(park(10) && park(10) && park(20));
        assert!(!park(10), "full, and nothing parked is smaller");
        assert!(park(70), "a 10 makes room");
        assert_eq!(SHELF.lens(), [20, 10, 70]);
        assert!(
            park(30),
            "the 10 makes room in the count, the 20 in the length"
        );
        assert_eq!(SHELF.lens(), [70, 30]);
        assert!(!park(50), "pushing the 30 out would not make room");
        assert!(!park(101), "longer than the whole shelf");
        assert_eq!(
            SHELF.lens(),
            [70, 30],
            "a refused buffer pushes nothing out"
        );
        assert!(!park(0), "an empty buffer is never parked");
        let got = SHELF.take(70).expect("a 70 is parked");
        assert!(got[..64].iter().all(|&b| b == 0), "the marked chunk zeroed");
        assert!(got[64..].iter().all(|&b| b == 1), "the unmarked one kept");
        assert_eq!(SHELF.take(70), None);
        assert_eq!(SHELF.lens(), [30]);
    }
}
