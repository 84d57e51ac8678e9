//! Error types for sketch decoding.

use std::error::Error;
use std::fmt;

/// Decoding a linear sketch failed.
///
/// The paper assumes (after Theorem 9) that "we always know if a
/// `SKETCH_B(x)` can be decoded"; this error is how that knowledge
/// surfaces. Failures are *detected*, never silent: peeling either empties
/// the sketch (success) or leaves verifiable residue (failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The sketched vector has more nonzero coordinates than the decoding
    /// budget; peeling stalled with nonzero residue.
    Overloaded,
    /// Internal consistency checks failed (fingerprint mismatch), indicating
    /// either an astronomically unlikely hash collision or incompatible
    /// sketch merges.
    Inconsistent,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Overloaded => write!(f, "sketch support exceeds decoding budget"),
            DecodeError::Inconsistent => write!(f, "sketch failed internal consistency checks"),
        }
    }
}

impl Error for DecodeError {}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            DecodeError::Overloaded.to_string(),
            "sketch support exceeds decoding budget"
        );
        assert!(DecodeError::Inconsistent
            .to_string()
            .contains("consistency"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err<E: Error>(_: E) {}
        takes_err(DecodeError::Overloaded);
    }
}
