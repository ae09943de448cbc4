//! The `bnet` error type.

use crate::wire::WireError;
use ida::{FileId, IdaError};

/// Any failure of network serving or network retrieval.
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// A packet failed to decode (reliable-transport paths only — on the
    /// lossy UDP path corrupt packets become erasures, not errors).
    Wire(WireError),
    /// Reconstruction from the collected blocks failed.
    Ida(IdaError),
    /// The retrieval ended before enough distinct blocks arrived.
    Incomplete {
        /// The file being retrieved.
        file: FileId,
        /// Distinct blocks received.
        received: usize,
        /// Blocks required to reconstruct.
        required: usize,
    },
    /// The client never learned the file's dispersal parameters — no block
    /// of the file and no subscribe ack ever arrived.
    NoSignal {
        /// The file being retrieved.
        file: FileId,
    },
    /// The station refused a subscription (control plane).
    Refused {
        /// The refused file.
        file: FileId,
        /// The station's reason.
        reason: String,
    },
    /// The peer violated the control-plane protocol (unexpected frame kind
    /// or a closed connection mid-exchange).
    Protocol(&'static str),
    /// A control-plane socket operation exceeded its configured timeout.
    Timeout {
        /// The operation that timed out.
        during: &'static str,
    },
    /// The station would send a slot frame that cannot cross the wire at
    /// the configured MTU: more fragments than a frame may have, more bytes
    /// than a client reassembles, or (an MTU with no room for a fragment)
    /// longer than one datagram.
    FrameTooLarge {
        /// Encoded bytes of the largest frame.
        bytes: usize,
        /// The configured MTU.
        mtu: usize,
        /// The longest frame that crosses the wire at `mtu`.
        max: usize,
    },
    /// The retrieval failed even though the client recovered (rejoined
    /// and, where a control plane was available, resynced) `attempts`
    /// times — the graceful-degradation context around the final failure.
    Rejoined {
        /// Recovery rounds run before giving up.
        attempts: u64,
        /// The final underlying failure.
        cause: Box<NetError>,
    },
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Ida(e) => write!(f, "reconstruction failed: {e}"),
            NetError::Incomplete {
                file,
                received,
                required,
            } => write!(
                f,
                "retrieval of {file} is incomplete: {received} of {required} blocks received"
            ),
            NetError::NoSignal { file } => {
                write!(f, "no block or subscribe ack for {file} was ever received")
            }
            NetError::Refused { file, reason } => {
                write!(f, "station refused subscription to {file}: {reason}")
            }
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::Timeout { during } => write!(f, "timed out during {during}"),
            NetError::FrameTooLarge { bytes, mtu, max } => write!(
                f,
                "a {bytes}-byte slot frame cannot cross the wire at mtu {mtu} (max {max} bytes)"
            ),
            NetError::Rejoined { attempts, cause } => {
                write!(f, "failed after {attempts} recovery round(s): {cause}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Wire(e) => Some(e),
            NetError::Ida(e) => Some(e),
            NetError::Rejoined { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(value: std::io::Error) -> Self {
        NetError::Io(value)
    }
}

impl From<WireError> for NetError {
    fn from(value: WireError) -> Self {
        NetError::Wire(value)
    }
}

impl From<IdaError> for NetError {
    fn from(value: IdaError) -> Self {
        NetError::Ida(value)
    }
}
