//! Error type shared by all relational operations.

use std::fmt;

/// Result alias used across the crate.
pub type RelResult<T> = Result<T, RelError>;

/// Errors raised by relational operations.
///
/// The public API never panics on malformed input; schema mismatches,
/// unknown columns and type errors are all reported through this enum.
#[derive(Debug, Clone, PartialEq)]
pub enum RelError {
    /// A referenced column does not exist in the schema.
    UnknownColumn(String),
    /// An operation received a value of an unexpected type.
    TypeError(String),
    /// A duplicate column name was introduced.
    DuplicateColumn(String),
    /// An arity mismatch between a row and its schema.
    Arity { expected: usize, got: usize },
    /// Generic invalid-argument error.
    Invalid(String),
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            RelError::TypeError(m) => write!(f, "type error: {m}"),
            RelError::DuplicateColumn(c) => write!(f, "duplicate column: {c}"),
            RelError::Arity { expected, got } => {
                write!(f, "arity mismatch: expected {expected} values, got {got}")
            }
            RelError::Invalid(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for RelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RelError::UnknownColumn("price".into());
        assert!(e.to_string().contains("price"));
        let e = RelError::Arity {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('2'));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(RelError::Invalid("bad".into()));
        assert!(e.to_string().contains("bad"));
    }
}
