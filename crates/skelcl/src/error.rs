//! SkelCL-level errors.

use std::fmt;

/// Errors surfaced by the skeleton library.
#[derive(Debug)]
pub enum Error {
    /// The underlying virtual platform failed.
    Platform(vgpu::Error),
    /// Zip inputs (or a Zip-like combine) have different lengths.
    LengthMismatch { left: usize, right: usize },
    /// Matrix operands have different shapes (`(rows, cols)`).
    ShapeMismatch {
        left: (usize, usize),
        right: (usize, usize),
    },
    /// AllPairs-style inner dimensions disagree: `A` is `m×k`, so `B` must
    /// be `k×n`.
    InnerDimMismatch {
        left: (usize, usize),
        right: (usize, usize),
    },
    /// An operation needed a device-side copy that does not exist.
    NotOnDevice(String),
    /// An `Arguments` slot was accessed with the wrong type or index.
    BadArgument(String),
    /// A kernel body requested an argument slot that does not match what
    /// the host marshalled (wrong index, wrong type, or wrong buffer
    /// element) — the launch fails with the original mismatch message
    /// instead of unwinding through the device pool.
    KernelArgMismatch(String),
    /// A distribution change is not meaningful (e.g. block-merge from a
    /// non-Copy distribution).
    BadDistribution(String),
    /// An empty vector was passed to a skeleton requiring data (Reduce).
    Empty(&'static str),
    /// A fenced read-back ([`crate::Matrix::read_back_after`]) got no fence
    /// event on a device that holds part of the data.
    Unfenced { device: usize },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Platform(e) => write!(f, "platform error: {e}"),
            Error::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            Error::ShapeMismatch { left, right } => {
                write!(
                    f,
                    "shape mismatch: {}x{} vs {}x{}",
                    left.0, left.1, right.0, right.1
                )
            }
            Error::InnerDimMismatch { left, right } => {
                write!(
                    f,
                    "inner dimension mismatch: {}x{} · {}x{} (A columns must equal B rows)",
                    left.0, left.1, right.0, right.1
                )
            }
            Error::NotOnDevice(msg) => write!(f, "not on device: {msg}"),
            Error::BadArgument(msg) => write!(f, "bad argument: {msg}"),
            Error::KernelArgMismatch(msg) => {
                write!(f, "kernel/host argument mismatch: {msg}")
            }
            Error::BadDistribution(msg) => write!(f, "bad distribution: {msg}"),
            Error::Empty(op) => write!(f, "{op} requires a non-empty vector"),
            Error::Unfenced { device } => {
                write!(f, "read-back has no fence event on device {device}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Platform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vgpu::Error> for Error {
    fn from(e: vgpu::Error) -> Self {
        match e {
            // Argument-marshalling mistakes surface as kernel panics whose
            // message names the offending argument slot; give them their
            // own typed variant so callers can match on them.
            vgpu::Error::KernelPanic(msg) if msg.contains("argument") => {
                Error::KernelArgMismatch(msg)
            }
            other => Error::Platform(other),
        }
    }
}

pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_errors_convert() {
        let e: Error = vgpu::Error::SizeMismatch {
            expected: 1,
            actual: 2,
        }
        .into();
        assert!(matches!(e, Error::Platform(_)));
        assert!(e.to_string().contains("size mismatch"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn kernel_panics_about_arguments_become_typed_mismatches() {
        let e: Error =
            vgpu::Error::KernelPanic("argument 2 is a f32 scalar, requested u32".into()).into();
        assert!(matches!(e, Error::KernelArgMismatch(_)));
        assert!(e.to_string().contains("argument 2"));
        // Other kernel panics stay platform errors.
        let e: Error = vgpu::Error::KernelPanic("index out of bounds".into()).into();
        assert!(matches!(e, Error::Platform(_)));
    }

    #[test]
    fn display_variants() {
        assert!(Error::LengthMismatch { left: 3, right: 4 }
            .to_string()
            .contains("3 vs 4"));
        assert!(Error::Empty("reduce").to_string().contains("reduce"));
    }
}
