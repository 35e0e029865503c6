//! Error types for the event language.

use std::fmt;

/// Errors raised while declaring, grounding, or evaluating event programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A named event/c-value was redeclared. Event declarations are
    /// immutable (paper §3.4): each identifier may be assigned only once.
    Redeclaration(String),
    /// An expression referenced an identifier that has no declaration.
    UnknownIdent(String),
    /// A Boolean expression was used where a c-value was expected, or
    /// vice versa.
    TypeMismatch {
        /// The identifier whose use was ill-typed.
        ident: String,
        /// What the context expected (`"event"` or `"c-value"`).
        expected: &'static str,
    },
    /// Arithmetic on incompatible values (e.g. vector + scalar). The
    /// offending operation is described in the payload.
    ValueType(String),
    /// A worker thread panicked; the panic was isolated and converted
    /// into this error, and the remaining workers were cancelled. The
    /// payload identifies the worker and carries its panic message.
    WorkerPanicked {
        /// Index of the failing worker in its pool.
        worker: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Redeclaration(id) => {
                write!(f, "event identifier `{id}` declared more than once")
            }
            CoreError::UnknownIdent(id) => write!(f, "unknown event identifier `{id}`"),
            CoreError::TypeMismatch { ident, expected } => {
                write!(f, "`{ident}` used as {expected} but declared otherwise")
            }
            CoreError::ValueType(msg) => write!(f, "value type error: {msg}"),
            CoreError::WorkerPanicked { worker, message } => {
                write!(f, "worker {worker} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {}
