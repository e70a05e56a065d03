//! Error type of the pipeline crate.

use std::path::PathBuf;

/// Errors surfaced by corpus loading.
#[derive(Debug)]
pub enum PipelineError {
    /// An I/O error while reading a corpus directory or file.
    Io {
        /// The path being read.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A KISS2 file failed to parse.
    Kiss2 {
        /// The offending file.
        path: PathBuf,
        /// The parser's error.
        source: stc_fsm::FsmError,
    },
    /// The corpus resolved to zero machines.
    EmptyCorpus(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Io { path, source } => {
                write!(f, "cannot read {}: {source}", path.display())
            }
            PipelineError::Kiss2 { path, source } => {
                write!(f, "{}: KISS2 parse error: {source}", path.display())
            }
            PipelineError::EmptyCorpus(what) => write!(f, "empty corpus: {what}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Io { source, .. } => Some(source),
            PipelineError::Kiss2 { source, .. } => Some(source),
            _ => None,
        }
    }
}
