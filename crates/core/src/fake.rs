//! Generation of artificial ("fake") plaintext values.
//!
//! Three of the four F² steps need values "that do not exist in the original dataset":
//! fake equivalence classes added during grouping (§3.2.1), the fresh values `v_X`,
//! `v_Y` used by conflict resolution (§3.3), and the artificial record pairs that
//! eliminate false-positive FDs (§3.4). The server cannot distinguish them from real
//! values because everything is encrypted before outsourcing. The data owner never
//! recognises them by value either: F² decryption tells artificial rows and patched
//! cells apart by the provenance recorded at encryption time. The reserved prefix
//! only keeps generated values disjoint from the table's own.

use f2_relation::{FastSet, Table, Value};

/// Reserved prefix identifying artificial plaintext values.
pub const FAKE_PREFIX: &str = "\u{1}f2:";

/// A generator of plaintext values guaranteed to be fresh: distinct from every value in
/// the original dataset and from every previously generated fake value.
#[derive(Debug, Clone)]
pub struct FreshValueGenerator {
    counter: u64,
    /// The table's text values that carry [`FAKE_PREFIX`]: the only table values a
    /// generated value can equal. Almost every table has none, and then nothing is
    /// probed.
    reserved: FastSet<String>,
}

impl FreshValueGenerator {
    /// Create a generator that avoids every value occurring in `table`.
    pub fn for_table(table: &Table) -> Self {
        let reserved = table
            .columnar()
            .distinct_values()
            .filter_map(|v| match v {
                Value::Text(s) if s.starts_with(FAKE_PREFIX) => Some(s.clone()),
                _ => None,
            })
            .collect();
        FreshValueGenerator { counter: 0, reserved }
    }

    /// Create a generator with no exclusions (for tests).
    pub fn new() -> Self {
        FreshValueGenerator { counter: 0, reserved: FastSet::default() }
    }

    /// Produce the next fresh value.
    pub fn next_value(&mut self) -> Value {
        Value::text(self.next_text().as_str())
    }

    /// Append the [`Value::encode`] bytes of the next fresh value to `out` — what
    /// `self.next_value().encode()` would give, with no `String` built.
    pub(crate) fn next_encoded(&mut self, out: &mut Vec<u8>) {
        Value::encode_text_into(self.next_text().as_str(), out);
    }

    fn next_text(&mut self) -> FakeText {
        loop {
            let text = FakeText::new(self.counter);
            self.counter += 1;
            if self.reserved.is_empty() || !self.reserved.contains(text.as_str()) {
                return text;
            }
        }
    }

    /// Produce `n` fresh values.
    pub fn take(&mut self, n: usize) -> Vec<Value> {
        (0..n).map(|_| self.next_value()).collect()
    }

    /// Number of fresh values handed out so far.
    pub fn issued(&self) -> u64 {
        self.counter
    }
}

impl Default for FreshValueGenerator {
    fn default() -> Self {
        FreshValueGenerator::new()
    }
}

/// `{FAKE_PREFIX}{counter:08x}` rendered on the stack, without the `format!`
/// machinery (this sits on the artificial-row hot path).
struct FakeText {
    buf: [u8; FAKE_PREFIX.len() + 16],
    len: usize,
}

impl FakeText {
    fn new(counter: u64) -> FakeText {
        // `{:08x}`: at least 8 digits, more once the counter passes `u32::MAX`.
        let digits = (16 - counter.leading_zeros() as usize / 4).max(8);
        let mut buf = [0u8; FAKE_PREFIX.len() + 16];
        let (prefix, rest) = buf.split_at_mut(FAKE_PREFIX.len());
        prefix.copy_from_slice(FAKE_PREFIX.as_bytes());
        for (i, digit) in rest[..digits].iter_mut().enumerate() {
            let nibble = (counter >> (4 * (digits - 1 - i))) & 0xf;
            *digit = b"0123456789abcdef"[nibble as usize];
        }
        FakeText { buf, len: FAKE_PREFIX.len() + digits }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("the prefix and hex digits are ASCII")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_relation::table;

    #[test]
    fn fresh_values_are_distinct() {
        let mut g = FreshValueGenerator::new();
        let vs = g.take(100);
        let set: std::collections::HashSet<_> = vs.iter().collect();
        assert_eq!(set.len(), 100);
        assert_eq!(g.issued(), 100);
        assert!(vs.iter().all(|v| matches!(v, Value::Text(s) if s.starts_with(FAKE_PREFIX))));
    }

    #[test]
    fn fresh_values_avoid_table_values() {
        let t = table! {
            ["A"];
            ["x"],
            ["y"],
        };
        let mut g = FreshValueGenerator::for_table(&t);
        for _ in 0..50 {
            let v = g.next_value();
            assert!(!t.all_values().contains(&v));
        }
    }

    #[test]
    fn generated_values_skip_prefixed_table_values() {
        let taken = [format!("{FAKE_PREFIX}00000000"), format!("{FAKE_PREFIX}00000002")];
        let t = table! {
            ["A", "B"];
            [taken[0].as_str(), "x"],
            ["y", taken[1].as_str()],
        };
        let expected: Vec<Value> = ["00000001", "00000003", "00000004"]
            .map(|d| Value::text(format!("{FAKE_PREFIX}{d}")))
            .to_vec();
        let mut by_value = FreshValueGenerator::for_table(&t);
        assert_eq!(by_value.take(3), expected);
        let mut by_encoding = FreshValueGenerator::for_table(&t);
        for v in &expected {
            let mut out = vec![0xEE];
            by_encoding.next_encoded(&mut out);
            assert_eq!(out[1..], v.encode()[..]);
        }
        assert_eq!(by_value.issued(), 5);
        assert_eq!(by_encoding.issued(), 5);
    }

    #[test]
    fn next_encoded_is_the_encoding_of_next_value() {
        // Across the counter's 8-digit boundary, where `{:08x}` grows a digit.
        for first in [0, 0xfff_fffe, u64::from(u32::MAX) - 2, u64::MAX - 3] {
            let mut by_value = FreshValueGenerator { counter: first, reserved: FastSet::default() };
            let mut by_encoding = by_value.clone();
            for step in 0..3 {
                let counter = first + step;
                let v = by_value.next_value();
                assert_eq!(v, Value::text(format!("{FAKE_PREFIX}{counter:08x}")));
                let mut out = Vec::new();
                by_encoding.next_encoded(&mut out);
                assert_eq!(out, v.encode(), "counter {counter:#x}");
            }
        }
        let mut past = FreshValueGenerator { counter: 1 << 32, reserved: FastSet::default() };
        assert_eq!(past.next_value(), Value::text(format!("{FAKE_PREFIX}100000000")));
    }
}
