//! The shard-bit codec shared by [`Coverage`](crate::Coverage) and
//! [`PathCoverage`](crate::PathCoverage): a flat `bool` bitmap packed one
//! bit per entry, entry `i` at bit `i % 8` of byte `i / 8`, the last
//! byte's unused high bits zero. A bitmap is a whole number of *units* of
//! `per_unit` entries — a path is one entry, an instruction's
//! `[taken, not_taken]` pair two — and size errors count units.

use crate::fault::SimError;

/// Packs `bits`, low bits first.
pub(crate) fn pack(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        out[i / 8] |= u8::from(b) << (i % 8);
    }
    out
}

/// Fills `out` from [`pack`] output. Only the canonical encoding decodes,
/// so `pack(out) == bytes` on success.
///
/// # Errors
///
/// [`SimError::CoverageSizeMismatch`] when `bytes` is not the packed size
/// of `out`, and [`SimError::NonZeroPadding`] when the last byte sets
/// bits past its end.
pub(crate) fn unpack(out: &mut [bool], per_unit: usize, bytes: &[u8]) -> Result<(), SimError> {
    if bytes.len() != out.len().div_ceil(8) {
        return Err(SimError::CoverageSizeMismatch {
            left: out.len() / per_unit,
            right: bytes.len() * 8 / per_unit,
        });
    }
    if let (Some(&last), tail @ 1..) = (bytes.last(), out.len() % 8) {
        if last >> tail != 0 {
            return Err(SimError::NonZeroPadding { last });
        }
    }
    for (i, b) in out.iter_mut().enumerate() {
        *b = bytes[i / 8] & (1 << (i % 8)) != 0;
    }
    Ok(())
}

/// ORs `from` into `into`.
///
/// # Errors
///
/// [`SimError::CoverageSizeMismatch`] — leaving `into` untouched — when
/// the bitmaps differ in length.
pub(crate) fn union(into: &mut [bool], from: &[bool], per_unit: usize) -> Result<(), SimError> {
    if into.len() != from.len() {
        return Err(SimError::CoverageSizeMismatch {
            left: into.len() / per_unit,
            right: from.len() / per_unit,
        });
    }
    for (a, &b) in into.iter_mut().zip(from) {
        *a |= b;
    }
    Ok(())
}
