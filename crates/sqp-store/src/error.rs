//! The typed failure surface of the snapshot store.
//!
//! Every way a snapshot file can be unusable maps to one [`SnapshotError`]
//! variant, and **nothing in the load path panics**: a truncated, corrupted,
//! wrong-version, or wrong-format file produces an `Err` and never a partial
//! [`ModelSnapshot`](sqp_serve::ModelSnapshot). The umbrella test suite
//! sweeps every possible truncation point and every single-byte corruption
//! of a snapshot to hold that contract.

use std::fmt;

/// Why a snapshot could not be saved or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the `SQPS` snapshot magic — it is not a
    /// snapshot at all (or is truncated inside the first four bytes).
    BadMagic,
    /// The file declares a container version this build cannot read.
    UnsupportedVersion(u32),
    /// The whole-file checksum does not match: bytes were corrupted or the
    /// file was truncated after the header.
    ChecksumMismatch {
        /// Checksum stored in the file's trailing eight bytes.
        stored: u64,
        /// Checksum recomputed over the file contents.
        computed: u64,
    },
    /// Structurally invalid contents (bad section table, short section,
    /// undecodable payload). The message pinpoints the first violation.
    Corrupt(String),
    /// The in-memory model behind the snapshot has no persistable form — a
    /// save-time error only, and only for an ad-hoc `Recommender` handed to
    /// `ModelSnapshot::from_parts`: every model a `ModelSpec` trains has a
    /// `ModelKind`.
    UnsupportedModel(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => {
                write!(f, "bad magic — not a snapshot file (expected \"SQPS\")")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads v{})",
                    crate::FORMAT_VERSION
                )
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: file says {stored:#018x}, contents hash to \
                 {computed:#018x} (corruption or truncation)"
            ),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::UnsupportedModel(msg) => write!(f, "unsupported model: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Why one retrain step failed.
///
/// Produced by [`Retrainer::step`](crate::Retrainer::step); every variant
/// leaves the serving engine on its last good snapshot — a failed step
/// degrades freshness, never correctness.
#[derive(Debug)]
pub enum RetrainError {
    /// The training computation panicked; the payload text is preserved.
    /// The drained window stays in the sliding corpus, so the next step
    /// retries on the same (plus newer) traffic.
    TrainingPanicked(String),
    /// The snapshot file could not be written after every configured
    /// retry. The reserved generation number is burned (never reused).
    SaveFailed {
        /// The generation whose save was abandoned.
        generation: u64,
        /// Write attempts made (1 + configured retries).
        attempts: u32,
        /// The final attempt's error.
        last: SnapshotError,
    },
    /// The freshly written file failed post-save validation and was
    /// renamed to `*.quarantine`; serving rolled back to the newest good
    /// generation still on disk (if any).
    Quarantined {
        /// The generation that was quarantined.
        generation: u64,
        /// Why validation rejected the file.
        cause: String,
        /// Generation rolled back to, when a good file existed.
        rolled_back_to: Option<u64>,
    },
}

impl fmt::Display for RetrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetrainError::TrainingPanicked(payload) => {
                write!(f, "retrain training thread panicked: {payload}")
            }
            RetrainError::SaveFailed {
                generation,
                attempts,
                last,
            } => {
                write!(
                    f,
                    "saving snapshot generation {generation} failed after {attempts} attempts: {last}"
                )
            }
            RetrainError::Quarantined {
                generation,
                cause,
                rolled_back_to,
            } => {
                write!(f, "snapshot generation {generation} quarantined ({cause})")?;
                match rolled_back_to {
                    Some(g) => write!(f, "; rolled back to generation {g}"),
                    None => write!(f, "; no good generation on disk to roll back to"),
                }
            }
        }
    }
}

impl std::error::Error for RetrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RetrainError::SaveFailed { last, .. } => Some(last),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retrain_error_display_is_actionable() {
        let e = RetrainError::Quarantined {
            generation: 9,
            cause: "checksum mismatch".into(),
            rolled_back_to: Some(8),
        };
        let msg = e.to_string();
        assert!(msg.contains("generation 9") && msg.contains("rolled back to generation 8"));
        let e = RetrainError::SaveFailed {
            generation: 4,
            attempts: 3,
            last: SnapshotError::BadMagic,
        };
        assert!(e.to_string().contains("after 3 attempts"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn display_is_actionable() {
        let e = SnapshotError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains("0x0000000000000001"), "{msg}");
        assert!(SnapshotError::BadMagic.to_string().contains("SQPS"));
        assert!(SnapshotError::UnsupportedVersion(9)
            .to_string()
            .contains("9"));
    }

    #[test]
    fn io_errors_chain_as_source() {
        use std::error::Error;
        let e: SnapshotError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.source().is_some());
    }
}
