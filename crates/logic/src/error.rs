use std::error::Error;
use std::fmt;

/// Error type for cube/cover parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LogicError {
    /// A cube string contained a character other than `0`, `1` or `-`.
    ParseCube {
        /// The offending character.
        character: char,
    },
    /// A cube string had more variables than a cube can hold
    /// ([`crate::MAX_VARS`]).
    TooManyVariables {
        /// The number of variables the string described.
        count: usize,
    },
}

impl fmt::Display for LogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicError::ParseCube { character } => {
                write!(f, "invalid cube character `{character}`")
            }
            LogicError::TooManyVariables { count } => write!(
                f,
                "a cube has at most {} variables, got {count}",
                crate::MAX_VARS
            ),
        }
    }
}

impl Error for LogicError {}
