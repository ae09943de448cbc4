//! The reception-loss seam: what a slot driver asks about each block it
//! hands a client.
//!
//! The paper's medium (Section 3.2) loses whole blocks: "the occurrence of
//! an error during the transmission of a block renders the entire block
//! unreadable".  Every slot driver — the facade's synchronous drive, the
//! threaded runtime's client tasks, the simulator — asks one question per
//! block it delivers, through [`ChannelErrorModel`].  The traits live here,
//! beside [`TransmissionRef`], so the serving path names them without
//! linking the simulator; the stochastic models (Bernoulli, Gilbert–Elliott,
//! per-channel banks) live in `bsim`.

use crate::TransmissionRef;

/// Decides, per slot, whether the client's reception of the transmitted block
/// fails.
///
/// Models receive a borrowed [`TransmissionRef`] so that slot-driver loops
/// (the facade's `Station` and the simulator) never clone blocks just to ask
/// whether they were lost.
pub trait ErrorModel {
    /// Returns `true` when the reception of `transmission` is lost.
    fn is_lost(&mut self, transmission: TransmissionRef<'_>) -> bool;
}

/// A loss process over a *bank* of broadcast channels: the model is told
/// which channel a transmission travelled on, so per-channel and
/// cross-channel-correlated loss become expressible.
///
/// Every plain [`ErrorModel`] is a [`ChannelErrorModel`] that ignores the
/// channel index (one shared loss process across all channels) — so
/// single-channel code and models keep working unchanged against
/// multi-channel drivers.
pub trait ChannelErrorModel {
    /// Returns `true` when the reception of `transmission` on `channel` is
    /// lost.
    fn is_lost_on(&mut self, channel: usize, transmission: TransmissionRef<'_>) -> bool;
}

impl<E: ErrorModel + ?Sized> ChannelErrorModel for E {
    fn is_lost_on(&mut self, _channel: usize, transmission: TransmissionRef<'_>) -> bool {
        self.is_lost(transmission)
    }
}

/// A lossless channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoErrors;

impl ErrorModel for NoErrors {
    fn is_lost(&mut self, _transmission: TransmissionRef<'_>) -> bool {
        false
    }
}
