//! Program I/O and the deterministic random-number source behind the
//! `rand` system call.

/// Input, output and entropy for a program run. All state is deterministic
/// so that every experiment is reproducible.
#[derive(Debug, Clone)]
pub struct IoState {
    input: Vec<u8>,
    pos: usize,
    output: Vec<u8>,
    rng_state: u64,
    input_failed: bool,
}

impl Default for IoState {
    fn default() -> IoState {
        IoState::new(Vec::new(), 0x9E3779B97F4A7C15)
    }
}

impl IoState {
    /// Creates I/O state with the given input bytes and RNG seed.
    #[must_use]
    pub fn new(input: Vec<u8>, seed: u64) -> IoState {
        IoState {
            input,
            pos: 0,
            output: Vec::new(),
            rng_state: seed.max(1),
            input_failed: false,
        }
    }

    /// Injects an input error: from now on every read reports end-of-input,
    /// modeling a failed/closed input stream (fault injection).
    pub fn fail_input(&mut self) {
        self.input_failed = true;
    }

    /// Whether an input error has been injected.
    #[must_use]
    pub fn input_failed(&self) -> bool {
        self.input_failed
    }

    /// Reads one input byte; `-1` at end of input or after an input error.
    pub fn get_char(&mut self) -> i32 {
        if self.input_failed {
            return -1;
        }
        match self.input.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                i32::from(b)
            }
            None => -1,
        }
    }

    /// Reads a whitespace-delimited signed decimal integer; `-1` at end of
    /// input, after an input error, or when no digits are found.
    pub fn read_int(&mut self) -> i32 {
        if self.input_failed {
            return -1;
        }
        while self
            .input
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
        let mut negative = false;
        if self.input.get(self.pos) == Some(&b'-') {
            negative = true;
            self.pos += 1;
        }
        let start = self.pos;
        let mut value: i64 = 0;
        while let Some(&b) = self.input.get(self.pos) {
            if !b.is_ascii_digit() {
                break;
            }
            value = value * 10 + i64::from(b - b'0');
            self.pos += 1;
        }
        if self.pos == start {
            return -1;
        }
        let v = if negative { -value } else { value };
        v as i32
    }

    /// Appends one byte to the output stream.
    pub fn put_char(&mut self, byte: u8) {
        self.output.push(byte);
    }

    /// Appends a decimal integer to the output stream.
    pub fn print_int(&mut self, value: i32) {
        self.output.extend_from_slice(value.to_string().as_bytes());
    }

    /// Next pseudo-random non-negative 31-bit integer (xorshift64*).
    pub fn rand(&mut self) -> i32 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        ((x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) & 0x7FFF_FFFF) as i32
    }

    /// Everything the program has written.
    #[must_use]
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// The output as UTF-8 (lossy) for assertions in tests.
    #[must_use]
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_char_walks_input_then_eof() {
        let mut io = IoState::new(b"ab".to_vec(), 1);
        assert_eq!(io.get_char(), i32::from(b'a'));
        assert_eq!(io.get_char(), i32::from(b'b'));
        assert_eq!(io.get_char(), -1);
        assert_eq!(io.get_char(), -1);
    }

    #[test]
    fn read_int_parses_signed_decimals() {
        let mut io = IoState::new(b"  42 -17\nx".to_vec(), 1);
        assert_eq!(io.read_int(), 42);
        assert_eq!(io.read_int(), -17);
        assert_eq!(io.read_int(), -1, "x is not a digit");
    }

    #[test]
    fn output_accumulates() {
        let mut io = IoState::default();
        io.put_char(b'n');
        io.put_char(b'=');
        io.print_int(-5);
        assert_eq!(io.output_string(), "n=-5");
    }

    #[test]
    fn injected_input_error_reads_as_eof() {
        let mut io = IoState::new(b"a 42".to_vec(), 1);
        assert_eq!(io.get_char(), i32::from(b'a'));
        io.fail_input();
        assert!(io.input_failed());
        assert_eq!(io.get_char(), -1);
        assert_eq!(io.read_int(), -1);
    }

    #[test]
    fn rand_is_deterministic_and_non_negative() {
        let mut a = IoState::new(Vec::new(), 12345);
        let mut b = IoState::new(Vec::new(), 12345);
        for _ in 0..100 {
            let x = a.rand();
            assert_eq!(x, b.rand());
            assert!(x >= 0);
        }
        let mut c = IoState::new(Vec::new(), 54321);
        let diverges = (0..10).any(|_| a.rand() != c.rand());
        assert!(diverges, "different seeds should diverge");
    }
}
