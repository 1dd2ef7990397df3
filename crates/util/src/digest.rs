//! FNV-1a-64 digests for architectural results.
//!
//! Every determinism gate in the workspace (the E13/E18 matrix rows, the
//! static-filter taken-path comparison, the zoo differential suite) hashes
//! architectural state — exit status, output bytes, coverage bitmaps — with
//! the same chainable FNV-1a-64. It lives here so the bench crate, the core
//! engines and the test suites agree on one definition.

/// FNV-1a-64 offset basis.
const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a-64 prime.
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// Chainable FNV-1a-64: `seed == 0` starts a fresh digest (the offset
/// basis), any other value continues a previous one.
#[must_use]
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = if seed == 0 { OFFSET } else { seed };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Canonical 16-hex-digit rendering of a digest (what reports print).
#[must_use]
pub fn hex64(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Lower-case hex encoding of arbitrary bytes (coverage bitmaps in
/// campaign journals).
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).unwrap());
        out.push(char::from_digit(u32::from(b & 0xF), 16).unwrap());
    }
    out
}

/// Inverse of [`to_hex`]; `None` on odd length or non-hex characters.
#[must_use]
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

/// Parses the [`hex64`] rendering back into a digest.
#[must_use]
pub fn parse_hex64(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a64(0, b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(0, b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn chaining_equals_concatenation() {
        let one = fnv1a64(0, b"hello world");
        let two = fnv1a64(fnv1a64(0, b"hello "), b"world");
        assert_eq!(one, two);
        assert_eq!(hex64(one).len(), 16);
    }

    #[test]
    fn hex_round_trips() {
        for bytes in [&b""[..], &b"\x00\xFF\x10"[..], &b"campaign"[..]] {
            let h = to_hex(bytes);
            assert_eq!(from_hex(&h).as_deref(), Some(bytes));
        }
        assert_eq!(from_hex("abc"), None, "odd length");
        assert_eq!(from_hex("zz"), None, "non-hex digit");
        let d = 0x0123_4567_89AB_CDEF;
        assert_eq!(parse_hex64(&hex64(d)), Some(d));
        assert_eq!(parse_hex64("123"), None, "must be 16 digits");
    }
}
