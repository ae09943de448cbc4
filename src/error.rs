//! The unified error type of the `rtbdisk` facade.
//!
//! Every stage of the design → serve → retrieve pipeline has its own error
//! enum (`DesignError`, `ServerError`, `ScheduleError`, `IdaError`, …); the
//! facade folds them into one [`Error`] with `From` impls so the whole
//! pipeline composes with `?`.

use bcore::{ConditionError, DesignError};
use bdisk::{ProgramError, ServerError};
use ida::{FileId, IdaError};
use pinwheel::ScheduleError;

/// Any failure of the broadcast-disk pipeline, from specification validation
/// through program design, serving and client-side reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A broadcast-file specification was invalid.
    Condition(ConditionError),
    /// The program designer rejected the specification set (density,
    /// duplicates, scheduling failure, …).
    Design(DesignError),
    /// The pinwheel scheduler could not produce a schedule.
    Schedule(ScheduleError),
    /// Broadcast-program construction failed.
    Program(ProgramError),
    /// The broadcast server rejected its inputs (missing or mis-sized
    /// contents, unknown files).
    Server(ServerError),
    /// Dispersal or reconstruction failed.
    Ida(IdaError),
    /// A designed program failed post-design verification against its own
    /// broadcast conditions (this indicates a designer bug; it is surfaced
    /// as an error so a broken program can never be served).
    Verification(String),
    /// An operation referenced a file the station does not carry.
    UnknownFile(FileId),
    /// An in-flight retrieval was cancelled by a mode swap: its file was
    /// dropped or re-dispersed by the transition, so the blocks it collected
    /// cannot complete under the new program.
    ModeChanged {
        /// The file whose retrieval was cancelled.
        file: FileId,
        /// The mode whose swap cancelled it.
        mode: String,
    },
    /// A [`crate::PreparedMode`] was swapped in after another swap already
    /// changed the station: the preparation's diff no longer describes what
    /// is on the air.  Re-run [`crate::Station::prepare_mode`].
    StalePreparation {
        /// The station epoch the mode was prepared against.
        prepared_epoch: u64,
        /// The station's current epoch.
        current_epoch: u64,
    },
    /// A fleet driver ([`crate::Station::run_until_complete`] /
    /// [`crate::Station::run_until_resolved`]) was called with an empty
    /// retrieval fleet — there is nothing to drive and nothing to return,
    /// so the call is a caller bug, not an empty success.
    NoSubscribers,
    /// An operation was sent to a concurrent runtime
    /// ([`crate::Station::serve_concurrent`]) whose serving thread has
    /// already shut down.
    RuntimeClosed,
    /// The network side failed ([`crate::Station::serve_network`]): a
    /// socket could not be bound or a control exchange failed.  Carries
    /// the rendered [`bnet::NetError`] (this enum stays `Clone` +
    /// `PartialEq`, which `std::io::Error` is not).
    Net(String),
    /// A retrieval listened for more than the station's listen cap without
    /// completing (pathological loss rates).
    RetrievalStalled {
        /// The file whose retrieval stalled.
        file: FileId,
        /// How many slots the retrieval listened for.
        listened: usize,
    },
    /// [`crate::Retrieval::finish`] was called before the retrieval
    /// completed.
    RetrievalIncomplete {
        /// The file being retrieved.
        file: FileId,
        /// Distinct blocks received so far.
        received: usize,
        /// Blocks required to reconstruct.
        required: usize,
    },
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Condition(e) => write!(f, "invalid specification: {e}"),
            Error::Design(e) => write!(f, "design failed: {e}"),
            Error::Schedule(e) => write!(f, "scheduling failed: {e}"),
            Error::Program(e) => write!(f, "program construction failed: {e}"),
            Error::Server(e) => write!(f, "server rejected inputs: {e}"),
            Error::Ida(e) => write!(f, "dispersal failed: {e}"),
            Error::Verification(msg) => {
                write!(f, "designed program failed verification: {msg}")
            }
            Error::UnknownFile(id) => write!(f, "file {id} is not on this station"),
            Error::ModeChanged { file, mode } => write!(
                f,
                "retrieval of {file} was cancelled by the swap to mode `{mode}`"
            ),
            Error::StalePreparation {
                prepared_epoch,
                current_epoch,
            } => write!(
                f,
                "prepared mode targets station epoch {prepared_epoch} but the station is at \
                 epoch {current_epoch}; prepare again"
            ),
            Error::NoSubscribers => {
                write!(f, "the retrieval fleet is empty: nothing to drive")
            }
            Error::RuntimeClosed => {
                write!(f, "the broadcast runtime has shut down")
            }
            Error::Net(msg) => write!(f, "network serving failed: {msg}"),
            Error::RetrievalStalled { file, listened } => write!(
                f,
                "retrieval of {file} did not complete within {listened} slots"
            ),
            Error::RetrievalIncomplete {
                file,
                received,
                required,
            } => write!(
                f,
                "retrieval of {file} is incomplete: {received} of {required} blocks received"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Condition(e) => Some(e),
            Error::Design(e) => Some(e),
            Error::Schedule(e) => Some(e),
            Error::Program(e) => Some(e),
            Error::Server(e) => Some(e),
            Error::Ida(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConditionError> for Error {
    fn from(value: ConditionError) -> Self {
        Error::Condition(value)
    }
}

impl From<DesignError> for Error {
    fn from(value: DesignError) -> Self {
        Error::Design(value)
    }
}

impl From<ScheduleError> for Error {
    fn from(value: ScheduleError) -> Self {
        Error::Schedule(value)
    }
}

impl From<ProgramError> for Error {
    fn from(value: ProgramError) -> Self {
        Error::Program(value)
    }
}

impl From<ServerError> for Error {
    fn from(value: ServerError) -> Self {
        Error::Server(value)
    }
}

impl From<IdaError> for Error {
    fn from(value: IdaError) -> Self {
        Error::Ida(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pipeline_error_converts_and_displays() {
        let errors: Vec<Error> = vec![
            ConditionError::InvalidBroadcastCondition.into(),
            DesignError::NoFiles.into(),
            ScheduleError::Infeasible.into(),
            ProgramError::EmptyFileSet.into(),
            ServerError::MissingContent(FileId(1)).into(),
            IdaError::ThresholdTooSmall.into(),
            Error::Verification("window 0..5 short".to_string()),
            Error::UnknownFile(FileId(9)),
            Error::RetrievalStalled {
                file: FileId(1),
                listened: 1000,
            },
            Error::RetrievalIncomplete {
                file: FileId(1),
                received: 2,
                required: 5,
            },
            Error::ModeChanged {
                file: FileId(1),
                mode: "combat".to_string(),
            },
            Error::StalePreparation {
                prepared_epoch: 1,
                current_epoch: 2,
            },
            Error::NoSubscribers,
            Error::RuntimeClosed,
            Error::Net("bind failed".to_string()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn question_mark_composes_across_stages() {
        fn pipeline() -> Result<(), Error> {
            // Condition stage.
            bcore::GeneralizedFileSpec::new(FileId(1), 1, vec![4])?;
            // Dispersal stage.
            ida::Dispersal::new(2, 4)?;
            Ok(())
        }
        assert!(pipeline().is_ok());
    }
}
