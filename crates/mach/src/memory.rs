//! Functional data memory: a flat byte array with a null guard page and a
//! bitmap of the pages it has written, plus the sandbox views PathExpander
//! uses to contain NT-path side effects.
//!
//! The sandbox is the simulation's hottest data structure: every NT-path
//! load and store resolves through it, and every squash empties it. It is
//! implemented as lazily-allocated fixed-size shadow pages carrying
//! generation stamps (see [`Sandbox`]): a squash is an O(1) generation
//! bump, and a byte lookup is one page-index load plus two bit tests —
//! no hashing anywhere on the hot path.

use core::cell::RefCell;

use px_isa::{Width, NULL_GUARD_END};

use crate::fault::SimError;
use crate::shelf::{mark, set_bits, Shelf};

/// Why an access (or instruction) crashed. Inside an NT-path a crash squashes
/// the path silently ("the exception that caused the crash is not delivered
/// to the OS", paper §4.2); on the taken path it faults the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashKind {
    /// Load/store to the null guard page (address below `DATA_BASE`).
    NullDeref { addr: u32 },
    /// Load/store beyond the end of data memory.
    OutOfBounds { addr: u32 },
    /// Integer division or remainder by zero.
    DivByZero,
    /// Control transfer to an invalid instruction index.
    BadPc { pc: u32 },
}

impl core::fmt::Display for CrashKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CrashKind::NullDeref { addr } => write!(f, "null dereference at {addr:#x}"),
            CrashKind::OutOfBounds { addr } => write!(f, "out-of-bounds access at {addr:#x}"),
            CrashKind::DivByZero => write!(f, "division by zero"),
            CrashKind::BadPc { pc } => write!(f, "invalid program counter {pc}"),
        }
    }
}

/// A view of data memory the interpreter executes against. The committed
/// memory and the NT-path sandboxes all implement this.
pub trait MemView {
    /// Loads a value; byte loads zero-extend.
    ///
    /// # Errors
    ///
    /// Returns the [`CrashKind`] for accesses to the null guard page or
    /// beyond the end of memory.
    fn load(&mut self, addr: u32, width: Width) -> Result<i32, CrashKind>;

    /// Stores the low `width` bytes of `value`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MemView::load`].
    fn store(&mut self, addr: u32, value: i32, width: Width) -> Result<(), CrashKind>;
}

/// Page geometry: 4 KiB pages, for the committed image's written-page
/// bitmap and the sandbox's shadow pages alike.
const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;

thread_local! {
    static FREE: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Buffers of dropped images, zeroed, waiting for a [`Memory::new`] of the
/// same length: two of any length, since a differential run holds two
/// images at once, its own and its baseline's.
static IMAGES: Shelf<u8> = Shelf::new(&FREE, 2, usize::MAX);

/// The committed (architectural) data memory: a flat byte image plus one
/// bit per 4 KiB page the image has ever written.
///
/// A page whose bit is clear holds only zeros. So comparing two images
/// ([`Memory::first_difference`], `==`) reads only the pages either one
/// wrote, and a dropped image zeroes only its written pages before its
/// buffer goes to a small per-thread free list, where the next
/// [`Memory::new`] of that size finds it: the campaign's fault cases, which
/// build and diff two 1 MiB images to check a handful of written pages,
/// cost what they write, not what they could address.
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    /// Bit `p % 64` of word `p / 64` set ⇔ page `p` has been written.
    written: Vec<u64>,
}

/// The byte range of `page` in an image of `len` bytes, cut at its end.
fn page_span(page: usize, len: usize) -> core::ops::Range<usize> {
    let start = page << PAGE_SHIFT;
    start..(start + PAGE_SIZE).min(len)
}

impl Memory {
    /// Creates a zeroed memory of `size` bytes, reusing a dropped image's
    /// buffer of that size when this thread holds one.
    #[must_use]
    pub fn new(size: u32) -> Memory {
        let size = size as usize;
        Memory {
            bytes: IMAGES.take(size).unwrap_or_else(|| vec![0; size]),
            written: vec![0; size.div_ceil(PAGE_SIZE).div_ceil(64)],
        }
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// Marks the page holding `addr` written.
    #[inline]
    fn mark(&mut self, addr: u32) {
        mark(&mut self.written, (addr >> PAGE_SHIFT) as usize);
    }

    /// The lowest address at which the two images hold different bytes,
    /// over the addresses both have. Reads only the pages either image
    /// wrote, and byte by byte only the first page that differs.
    #[must_use]
    pub fn first_difference(&self, other: &Memory) -> Option<u32> {
        let (short, long) = if self.bytes.len() <= other.bytes.len() {
            (self, other)
        } else {
            (other, self)
        };
        let union = (0..short.written.len()).map(|w| short.written[w] | long.written[w]);
        set_bits(union)
            .take_while(|&page| page << PAGE_SHIFT < short.bytes.len())
            .find_map(|page| {
                let span = page_span(page, short.bytes.len());
                let (a, b) = (&short.bytes[span.clone()], &long.bytes[span.clone()]);
                if a == b {
                    return None;
                }
                let off = a.iter().zip(b).position(|(x, y)| x != y)?;
                Some((span.start + off) as u32)
            })
    }

    /// Validates an access of `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`CrashKind::NullDeref`] below the guard page boundary and
    /// [`CrashKind::OutOfBounds`] past the end of memory.
    pub fn check(&self, addr: u32, len: u32) -> Result<(), CrashKind> {
        if addr < NULL_GUARD_END {
            return Err(CrashKind::NullDeref { addr });
        }
        if (addr as u64) + u64::from(len) > self.bytes.len() as u64 {
            return Err(CrashKind::OutOfBounds { addr });
        }
        Ok(())
    }

    /// Reads one byte without bounds diagnostics (caller must have checked).
    #[must_use]
    pub fn byte(&self, addr: u32) -> u8 {
        self.bytes[addr as usize]
    }

    /// Writes one byte without bounds diagnostics (caller must have checked).
    pub fn set_byte(&mut self, addr: u32, value: u8) {
        self.bytes[addr as usize] = value;
        self.mark(addr);
    }

    /// Copies a blob into memory (program loading), rejecting blobs that do
    /// not fit — the malformed-program path the engines take.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BlobOutOfBounds`] when the blob ends past the end
    /// of memory.
    pub fn try_load_blob(&mut self, addr: u32, blob: &[u8]) -> Result<(), SimError> {
        let start = addr as usize;
        let end = start.checked_add(blob.len());
        match end {
            Some(end) if end <= self.bytes.len() => {
                self.bytes[start..end].copy_from_slice(blob);
                for page in start >> PAGE_SHIFT..end.div_ceil(PAGE_SIZE) {
                    self.mark((page << PAGE_SHIFT) as u32);
                }
                Ok(())
            }
            _ => Err(SimError::BlobOutOfBounds {
                addr,
                len: blob.len() as u32,
            }),
        }
    }

    /// Reads `len` bytes (for inspecting program output buffers in tests).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn slice(&self, addr: u32, len: u32) -> &[u8] {
        &self.bytes[addr as usize..(addr + len) as usize]
    }
}

impl MemView for Memory {
    #[inline]
    fn load(&mut self, addr: u32, width: Width) -> Result<i32, CrashKind> {
        self.check(addr, width.bytes())?;
        let i = addr as usize;
        Ok(match width {
            Width::Byte => i32::from(self.bytes[i]),
            // The backing store is a flat byte array, so even misaligned
            // words are one contiguous 4-byte copy.
            Width::Word => {
                i32::from_le_bytes(self.bytes[i..i + 4].try_into().expect("checked above"))
            }
        })
    }

    #[inline]
    fn store(&mut self, addr: u32, value: i32, width: Width) -> Result<(), CrashKind> {
        self.check(addr, width.bytes())?;
        let i = addr as usize;
        match width {
            Width::Byte => self.bytes[i] = value as u8,
            Width::Word => {
                self.bytes[i..i + 4].copy_from_slice(&value.to_le_bytes());
                // A word that straddles a page boundary writes both pages.
                self.mark(addr + 3);
            }
        }
        self.mark(addr);
        Ok(())
    }
}

impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.bytes.len() == other.bytes.len() && self.first_difference(other).is_none()
    }
}

impl Eq for Memory {}

impl Drop for Memory {
    /// Zeroes the written pages and parks the buffer on this thread's
    /// shelf, unless the shelf is full (or already torn down at thread
    /// exit).
    fn drop(&mut self) {
        IMAGES.park(&mut self.bytes, &self.written, PAGE_SIZE);
    }
}

/// Shadow-page presence is tracked by one bit per byte.
const MASK_WORDS: usize = PAGE_SIZE / 64;

/// One lazily-allocated shadow page of a [`Sandbox`].
///
/// `stamp` names the sandbox generation the page's masks belong to: a page
/// whose stamp is stale (≠ the sandbox's current generation) is logically
/// empty and its masks are lazily zeroed on the next write — so a squash
/// never touches page memory at all.
#[derive(Debug, Clone)]
struct ShadowPage {
    stamp: u64,
    /// Bit `i` set ⇔ byte `i` was written by the NT-path this generation.
    write_mask: [u64; MASK_WORDS],
    /// Bit `i` set ⇔ byte `i` holds a preserved spawn-time snapshot value.
    snap_mask: [u64; MASK_WORDS],
    /// NT-path write values.
    data: [u8; PAGE_SIZE],
    /// Preserved committed bytes (CMP copy-on-write snapshot).
    snap: [u8; PAGE_SIZE],
}

impl ShadowPage {
    /// A fresh page with a stale stamp (generation 0 is never current).
    fn new_boxed() -> Box<ShadowPage> {
        Box::new(ShadowPage {
            stamp: 0,
            write_mask: [0; MASK_WORDS],
            snap_mask: [0; MASK_WORDS],
            data: [0; PAGE_SIZE],
            snap: [0; PAGE_SIZE],
        })
    }

    #[inline]
    fn bit(off: usize) -> (usize, u64) {
        (off >> 6, 1u64 << (off & 63))
    }
}

/// The per-NT-path sandbox state: the path's own (volatile) writes plus the
/// snapshot of committed bytes that the taken path has overwritten since the
/// path was spawned (CMP option only — the snapshot realizes the
/// tree-structured data dependence of paper Figure 6(c)).
///
/// Writes and snapshot entries live in generation-stamped shadow pages:
/// [`Sandbox::clear`] (the squash) is an O(1) generation bump, and pages
/// are revived lazily the next time a path touches them.
#[derive(Debug, Clone)]
pub struct Sandbox {
    pages: Vec<Option<Box<ShadowPage>>>,
    generation: u64,
}

impl Default for Sandbox {
    fn default() -> Sandbox {
        Sandbox::new()
    }
}

impl Sandbox {
    /// Creates an empty sandbox.
    #[must_use]
    pub fn new() -> Sandbox {
        Sandbox {
            pages: Vec::new(),
            // Pages allocate with stamp 0, so the live generation starts at 1.
            generation: 1,
        }
    }

    /// Fetches the page covering `addr` for writing, allocating it on first
    /// touch and lazily resetting its masks when its stamp is stale.
    #[inline]
    fn page_mut(&mut self, addr: u32) -> (&mut ShadowPage, usize) {
        let idx = (addr >> PAGE_SHIFT) as usize;
        if idx >= self.pages.len() {
            self.pages.resize_with(idx + 1, || None);
        }
        let page = self.pages[idx].get_or_insert_with(ShadowPage::new_boxed);
        if page.stamp != self.generation {
            page.write_mask = [0; MASK_WORDS];
            page.snap_mask = [0; MASK_WORDS];
            page.stamp = self.generation;
        }
        (page, (addr & PAGE_MASK) as usize)
    }

    /// The page covering `addr` for reading, if it exists and is current.
    #[inline]
    fn page(&self, addr: u32) -> Option<&ShadowPage> {
        let page = self.pages.get((addr >> PAGE_SHIFT) as usize)?.as_deref()?;
        (page.stamp == self.generation).then_some(page)
    }

    /// Records an NT-path write of one byte.
    #[inline]
    pub(crate) fn write_byte(&mut self, addr: u32, value: u8) {
        let (page, off) = self.page_mut(addr);
        let (w, bit) = ShadowPage::bit(off);
        page.write_mask[w] |= bit;
        page.data[off] = value;
    }

    /// Records an NT-path write of `bytes.len()` consecutive bytes.
    #[inline]
    fn write_span(&mut self, addr: u32, bytes: &[u8]) {
        let off = (addr & PAGE_MASK) as usize;
        if off + bytes.len() <= PAGE_SIZE {
            let (page, off) = self.page_mut(addr);
            let (w, _) = ShadowPage::bit(off);
            let sh = off & 63;
            if sh + bytes.len() <= 64 {
                // All presence bits land in one mask word: set them in one OR.
                page.write_mask[w] |= ((1u64 << bytes.len()) - 1) << sh;
            } else {
                for i in 0..bytes.len() {
                    let (w, bit) = ShadowPage::bit(off + i);
                    page.write_mask[w] |= bit;
                }
            }
            page.data[off..off + bytes.len()].copy_from_slice(bytes);
        } else {
            // The span straddles a page boundary (misaligned word at a page
            // edge): fall back to per-byte writes.
            for (i, &b) in bytes.iter().enumerate() {
                self.write_byte(addr + i as u32, b);
            }
        }
    }

    /// The NT-path's own value for `addr`, if it wrote one this generation.
    #[must_use]
    pub fn written_byte(&self, addr: u32) -> Option<u8> {
        let page = self.page(addr)?;
        let off = (addr & PAGE_MASK) as usize;
        let (w, bit) = ShadowPage::bit(off);
        (page.write_mask[w] & bit != 0).then(|| page.data[off])
    }

    /// The preserved spawn-time value for `addr`, if the taken path has
    /// overwritten it since this sandbox's path spawned.
    #[must_use]
    pub fn snapshot_byte(&self, addr: u32) -> Option<u8> {
        let page = self.page(addr)?;
        let off = (addr & PAGE_MASK) as usize;
        let (w, bit) = ShadowPage::bit(off);
        (page.snap_mask[w] & bit != 0).then(|| page.snap[off])
    }

    /// Records that the *taken path* is about to overwrite `addr` which
    /// currently holds `old`. Must be called before the committed write for
    /// every live sandbox (copy-on-write snapshot). Only the earliest value
    /// per address sticks.
    pub fn preserve(&mut self, addr: u32, old: u8) {
        let (page, off) = self.page_mut(addr);
        let (w, bit) = ShadowPage::bit(off);
        if page.snap_mask[w] & bit == 0 {
            page.snap_mask[w] |= bit;
            page.snap[off] = old;
        }
    }

    /// Span form of [`Sandbox::preserve`]: one page lookup covers all of
    /// `old` when the span stays inside a page (it always does for aligned
    /// word stores). Only the earliest value per address sticks.
    pub fn preserve_span(&mut self, addr: u32, old: &[u8]) {
        let off = (addr & PAGE_MASK) as usize;
        if off + old.len() <= PAGE_SIZE {
            let (page, off) = self.page_mut(addr);
            for (i, &b) in old.iter().enumerate() {
                let (w, bit) = ShadowPage::bit(off + i);
                if page.snap_mask[w] & bit == 0 {
                    page.snap_mask[w] |= bit;
                    page.snap[off + i] = b;
                }
            }
        } else {
            for (i, &b) in old.iter().enumerate() {
                self.preserve(addr + i as u32, b);
            }
        }
    }

    /// Discards all NT-path writes (the squash). The snapshot is dropped
    /// too. O(1): pages go stale by generation bump and are lazily revived.
    pub fn clear(&mut self) {
        self.generation += 1;
    }
}

/// A [`MemView`] that layers a [`Sandbox`] over committed memory: reads
/// resolve sandbox-writes → snapshot → committed; writes stay in the sandbox.
#[derive(Debug)]
pub struct SandboxView<'a> {
    committed: &'a Memory,
    sandbox: &'a mut Sandbox,
}

impl<'a> SandboxView<'a> {
    /// Creates the layered view.
    pub fn new(committed: &'a Memory, sandbox: &'a mut Sandbox) -> SandboxView<'a> {
        SandboxView { committed, sandbox }
    }

    /// The committed memory under the view.
    #[must_use]
    pub fn committed(&self) -> &Memory {
        self.committed
    }

    /// The sandbox layered over it.
    #[must_use]
    pub fn sandbox(&self) -> &Sandbox {
        self.sandbox
    }

    #[inline]
    fn read_byte(&self, addr: u32) -> u8 {
        let Some(page) = self.sandbox.page(addr) else {
            return self.committed.byte(addr);
        };
        let off = (addr & PAGE_MASK) as usize;
        let (w, bit) = ShadowPage::bit(off);
        if page.write_mask[w] & bit != 0 {
            page.data[off]
        } else if page.snap_mask[w] & bit != 0 {
            page.snap[off]
        } else {
            self.committed.byte(addr)
        }
    }
}

impl MemView for SandboxView<'_> {
    #[inline]
    fn load(&mut self, addr: u32, width: Width) -> Result<i32, CrashKind> {
        self.committed.check(addr, width.bytes())?;
        Ok(match width {
            Width::Byte => i32::from(self.read_byte(addr)),
            Width::Word => {
                let off = (addr & PAGE_MASK) as usize;
                // Fast path: the word sits in one shadow page (or none).
                // A span whose presence bits are all clear reads straight
                // from committed memory in one copy.
                if off + 4 <= PAGE_SIZE {
                    match self.sandbox.page(addr) {
                        None => {
                            let i = addr as usize;
                            return Ok(i32::from_le_bytes(
                                self.committed.bytes[i..i + 4]
                                    .try_into()
                                    .expect("checked above"),
                            ));
                        }
                        Some(page) if (off & 63) <= 60 => {
                            let (w, _) = ShadowPage::bit(off);
                            let written = page.write_mask[w] >> (off & 63) & 0xF;
                            if written == 0xF {
                                // Fully written by the NT-path (the common
                                // load-after-store shape).
                                return Ok(i32::from_le_bytes(
                                    page.data[off..off + 4]
                                        .try_into()
                                        .expect("single-page span"),
                                ));
                            }
                            let snapped = page.snap_mask[w] >> (off & 63) & 0xF;
                            if written | snapped == 0 {
                                let i = addr as usize;
                                return Ok(i32::from_le_bytes(
                                    self.committed.bytes[i..i + 4]
                                        .try_into()
                                        .expect("checked above"),
                                ));
                            }
                        }
                        Some(_) => {}
                    }
                }
                let b = [
                    self.read_byte(addr),
                    self.read_byte(addr + 1),
                    self.read_byte(addr + 2),
                    self.read_byte(addr + 3),
                ];
                i32::from_le_bytes(b)
            }
        })
    }

    #[inline]
    fn store(&mut self, addr: u32, value: i32, width: Width) -> Result<(), CrashKind> {
        self.committed.check(addr, width.bytes())?;
        match width {
            Width::Byte => self.sandbox.write_byte(addr, value as u8),
            Width::Word => self.sandbox.write_span(addr, &value.to_le_bytes()),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::DATA_BASE;
    use px_util::{Rng as _, Xoshiro256};

    #[test]
    fn little_endian_word_round_trip() {
        let mut m = Memory::new(DATA_BASE + 64);
        m.store(DATA_BASE, -559038737, Width::Word).unwrap();
        assert_eq!(m.load(DATA_BASE, Width::Word).unwrap(), -559038737);
        assert_eq!(m.load(DATA_BASE, Width::Byte).unwrap(), 0xEF);
    }

    #[test]
    fn guard_page_and_bounds_trap() {
        let mut m = Memory::new(DATA_BASE + 8);
        assert_eq!(
            m.load(0, Width::Word).unwrap_err(),
            CrashKind::NullDeref { addr: 0 }
        );
        assert_eq!(
            m.load(DATA_BASE - 1, Width::Byte).unwrap_err(),
            CrashKind::NullDeref {
                addr: DATA_BASE - 1
            }
        );
        assert_eq!(
            m.store(DATA_BASE + 8, 0, Width::Byte).unwrap_err(),
            CrashKind::OutOfBounds {
                addr: DATA_BASE + 8
            }
        );
        // Word access straddling the end also traps.
        assert_eq!(
            m.load(DATA_BASE + 6, Width::Word).unwrap_err(),
            CrashKind::OutOfBounds {
                addr: DATA_BASE + 6
            }
        );
    }

    /// The addresses in `range` that hold an NT-path write.
    fn written(sb: &Sandbox, range: std::ops::Range<u32>) -> Vec<u32> {
        range.filter(|&a| sb.written_byte(a).is_some()).collect()
    }

    #[test]
    fn sandbox_reads_own_writes_and_rolls_back() {
        let mut m = Memory::new(DATA_BASE + 64);
        m.store(DATA_BASE, 7, Width::Word).unwrap();
        let mut sb = Sandbox::new();
        {
            let mut v = SandboxView::new(&m, &mut sb);
            assert_eq!(v.load(DATA_BASE, Width::Word).unwrap(), 7);
            v.store(DATA_BASE, 99, Width::Word).unwrap();
            assert_eq!(
                v.load(DATA_BASE, Width::Word).unwrap(),
                99,
                "reads own writes"
            );
        }
        assert_eq!(
            m.load(DATA_BASE, Width::Word).unwrap(),
            7,
            "committed untouched"
        );
        let all = DATA_BASE..DATA_BASE + 64;
        assert_eq!(
            written(&sb, all.clone()),
            Vec::from_iter(DATA_BASE..DATA_BASE + 4)
        );
        sb.clear();
        assert_eq!(written(&sb, all), []);
    }

    #[test]
    fn snapshot_hides_taken_path_writes_made_after_spawn() {
        let mut m = Memory::new(DATA_BASE + 64);
        m.store(DATA_BASE + 4, 11, Width::Word).unwrap();
        let mut sb = Sandbox::new();
        // Taken path overwrites addr after the NT-path spawned: preserve old
        // bytes first, then write committed memory.
        for (i, old) in (0..4).map(|i| (i, m.byte(DATA_BASE + 4 + i))) {
            sb.preserve(DATA_BASE + 4 + i, old);
        }
        m.store(DATA_BASE + 4, 22, Width::Word).unwrap();
        let mut v = SandboxView::new(&m, &mut sb);
        assert_eq!(
            v.load(DATA_BASE + 4, Width::Word).unwrap(),
            11,
            "NT-path sees the value from its spawn time"
        );
        // But the NT-path's own store wins over the snapshot.
        v.store(DATA_BASE + 4, 33, Width::Word).unwrap();
        assert_eq!(v.load(DATA_BASE + 4, Width::Word).unwrap(), 33);
    }

    #[test]
    fn try_load_blob_rejects_overflow() {
        let mut m = Memory::new(DATA_BASE + 4);
        assert!(m.try_load_blob(DATA_BASE, &[1, 2, 3, 4]).is_ok());
        assert_eq!(
            m.try_load_blob(DATA_BASE + 2, &[0; 4]).unwrap_err(),
            SimError::BlobOutOfBounds {
                addr: DATA_BASE + 2,
                len: 4
            }
        );
        assert!(m.try_load_blob(u32::MAX, &[0; 8]).is_err());
        assert_eq!(m.load(DATA_BASE, Width::Word).unwrap(), 0x04030201);
    }

    #[test]
    fn preserve_keeps_earliest_value() {
        let mut sb = Sandbox::new();
        sb.preserve(10, 1);
        sb.preserve(10, 2);
        assert_eq!(sb.snapshot_byte(10), Some(1));
        sb.clear();
        assert_eq!(sb.snapshot_byte(10), None, "squash drops the snapshot");
    }

    #[test]
    fn generation_squash_revives_pages_lazily() {
        let mut m = Memory::new(DATA_BASE + 64);
        let mut sb = Sandbox::new();
        {
            let mut v = SandboxView::new(&m, &mut sb);
            v.store(DATA_BASE, 0x0A0B_0C0D, Width::Word).unwrap();
        }
        let all = DATA_BASE..DATA_BASE + 64;
        assert_eq!(
            written(&sb, all.clone()),
            Vec::from_iter(DATA_BASE..DATA_BASE + 4)
        );
        sb.clear();
        assert_eq!(written(&sb, all.clone()), []);
        // The stale page must contribute nothing after the squash...
        {
            let mut v = SandboxView::new(&m, &mut sb);
            assert_eq!(v.load(DATA_BASE, Width::Word).unwrap(), 0);
            // ...and writing to it again revives only the new bytes.
            v.store(DATA_BASE + 1, 0x55, Width::Byte).unwrap();
            assert_eq!(v.load(DATA_BASE, Width::Word).unwrap(), 0x5500);
        }
        assert_eq!(written(&sb, all), [DATA_BASE + 1], "old writes stayed dead");
        m.store(DATA_BASE, 0, Width::Word).unwrap();
    }

    /// A byte that is zero half the time, so a write often leaves what an
    /// image already holds on some of its bytes (and a straddling word on
    /// one of its pages).
    fn sparse_byte(rng: &mut Xoshiro256) -> u8 {
        if rng.chance(1, 2) {
            0
        } else {
            rng.next_u32() as u8
        }
    }

    /// The lowest address where the two images' bytes differ, read one
    /// byte at a time.
    fn oracle_difference(a: &Memory, b: &Memory) -> Option<u32> {
        (0..a.size().min(b.size())).find(|&i| a.byte(i) != b.byte(i))
    }

    px_util::px_prop! {
        /// Equality and `first_difference` read only written pages, yet
        /// agree with a byte-by-byte scan after any mix of the three
        /// mutators on two images (the same write to both, or one image
        /// only), on sizes that end mid-page too. Addresses favour page
        /// edges, so words straddle pages. A dropped image's buffer, reused
        /// by the next image of its size, reads all zero.
        fn written_pages_agree_with_a_byte_scan(
            seed in px_util::prop::any_u64(),
            pick in 0usize..5,
            ops in 0usize..60,
        ) {
            let mut rng = Xoshiro256::seeded(seed);
            let page = PAGE_SIZE as u32;
            let size = [
                DATA_BASE + 3 * page,
                DATA_BASE + 16 * page + 5,
                DATA_BASE + 2 * page + 5,
                DATA_BASE + page - 1,
                DATA_BASE + 6,
            ][pick];
            let mut images = [Memory::new(size), Memory::new(size)];
            for _ in 0..ops {
                let edge = (rng.below(u64::from(size >> PAGE_SHIFT)) as u32 + 1) << PAGE_SHIFT;
                let addr = match rng.below(3) {
                    0 => edge.saturating_sub(1 + rng.below(4) as u32),
                    1 => edge + rng.below(4) as u32,
                    _ => DATA_BASE + rng.below(u64::from(size - DATA_BASE)) as u32,
                }
                .clamp(DATA_BASE, size - 1);
                let value = i32::from_le_bytes([0; 4].map(|_: u8| sparse_byte(&mut rng)));
                let blob: Vec<u8> = (0..rng.below(10)).map(|_| sparse_byte(&mut rng)).collect();
                let (kind, target) = (rng.below(4), rng.below(4));
                for (i, m) in images.iter_mut().enumerate() {
                    if target == 2 + i as u64 {
                        continue;
                    }
                    match kind {
                        0 => _ = m.store(addr, value, Width::Byte),
                        1 => _ = m.store(addr, value, Width::Word),
                        2 => m.set_byte(addr, value as u8),
                        _ => _ = m.try_load_blob(addr, &blob),
                    }
                }
                let [a, b] = &images;
                let want = oracle_difference(a, b);
                assert_eq!(a.first_difference(b), want);
                assert_eq!(b.first_difference(a), want);
                assert_eq!(a == b, want.is_none());
            }
            // Drop one image onto an empty free list: the next image of
            // its size gets its buffer back, zeroed.
            IMAGES.clear();
            let [a, b] = images;
            let buffer = a.bytes.as_ptr();
            drop(a);
            let fresh = Memory::new(size);
            assert_eq!(fresh.bytes.as_ptr(), buffer, "the buffer was reused");
            assert_eq!(fresh.slice(0, size).iter().position(|&x| x != 0), None);
            assert_ne!(b, Memory::new(size + 1), "sizes differ");
        }
    }

    #[test]
    fn word_access_straddling_a_page_boundary_is_consistent() {
        let edge = DATA_BASE + (PAGE_SIZE as u32) - 2; // crosses 0x1000+PAGE
        let m = Memory::new(DATA_BASE + 2 * PAGE_SIZE as u32);
        let mut sb = Sandbox::new();
        let mut v = SandboxView::new(&m, &mut sb);
        v.store(edge, 0x1122_3344, Width::Word).unwrap();
        assert_eq!(v.load(edge, Width::Word).unwrap(), 0x1122_3344);
        assert_eq!(
            written(&sb, DATA_BASE..DATA_BASE + 2 * PAGE_SIZE as u32),
            Vec::from_iter(edge..edge + 4)
        );
    }
}
