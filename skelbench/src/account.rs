//! Failure accounting: every unit and every executor job is one attempt; a
//! typed error, a panic, an output mismatch or a shed job is one failure.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Failure messages kept for the report; the count is always exact.
const KEEP_MESSAGES: usize = 8;

#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.messages.len() < KEEP_MESSAGES {
            self.messages.push(why);
        }
    }

    /// Run one attempt of `f`: a returned error or a panic counts as a
    /// failure and yields `None`.
    pub fn guarded<T>(
        &mut self,
        what: &str,
        f: impl FnOnce(&mut Tally) -> Result<T, String>,
    ) -> Option<T> {
        self.attempt();
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(format!("{what}: error: {e}"));
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".into());
                self.fail(format!("{what}: panic: {msg}"));
                None
            }
        }
    }

    /// Count a mismatch between `got` and `want` (compared bit for bit) as
    /// a failure. Returns whether they matched.
    pub fn expect_bits(&mut self, what: &str, got: &[f32], want: &[f32]) -> bool {
        let first_diff = if got.len() != want.len() {
            Some(got.len().min(want.len()))
        } else {
            got.iter()
                .zip(want)
                .position(|(a, b)| a.to_bits() != b.to_bits())
        };
        match first_diff {
            None => true,
            Some(i) => {
                self.fail(format!(
                    "{what}: output differs from the sequential reference at element {i} \
                     (len {} vs {})",
                    got.len(),
                    want.len()
                ));
                false
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_and_panics_are_failures() {
        let mut t = Tally::default();
        assert_eq!(t.guarded("ok", |_| Ok::<_, String>(1)), Some(1));
        assert_eq!(t.guarded("err", |_| Err::<u8, _>("boom".into())), None);
        assert_eq!(
            t.guarded("panic", |_| -> Result<u8, String> { panic!("kaboom") }),
            None
        );
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert!(t.messages[1].contains("kaboom"), "{:?}", t.messages);
    }

    #[test]
    fn bit_mismatch_is_a_failure() {
        let mut t = Tally::default();
        assert!(t.expect_bits("same", &[1.0, -0.0], &[1.0, -0.0]));
        assert!(!t.expect_bits("signed zero", &[0.0], &[-0.0]));
        assert!(!t.expect_bits("short", &[1.0], &[1.0, 2.0]));
        assert_eq!(t.failed, 2);
    }
}
