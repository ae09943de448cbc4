//! Client-side retrieval handles.
//!
//! A [`Retrieval`] is produced by [`crate::Station::subscribe`] and carries
//! everything a correct reconstruction needs — the file's reconstruction
//! threshold `mᵢ`, its [`Dispersal`] configuration `(mᵢ, nᵢ)` and its
//! declared latency vector — so callers can never mis-derive the paper's
//! "any m distinct blocks suffice" parameters.

use crate::Error;
use bauth::Root;
use bdisk::{ClientSession, LatencyVector, Observation, RetrievalOutcome, TransmissionRef};
use ida::{Dispersal, FileId};
use std::sync::Arc;

/// How a driven retrieval ended: with the reconstructed file, or cancelled
/// by a mode swap (per the transition's [`crate::SwapPolicy`]).
#[derive(Debug, Clone)]
pub enum RetrievalResolution {
    /// The retrieval completed; the outcome carries the reconstructed bytes.
    Complete(bdisk::RetrievalOutcome),
    /// The retrieval was cancelled by a mode swap (its file was dropped or
    /// re-dispersed, so its collected blocks cannot complete).
    ModeChanged {
        /// The file whose retrieval was cancelled.
        file: FileId,
        /// The mode whose swap cancelled it.
        mode: String,
    },
}

impl RetrievalResolution {
    /// The completed outcome, if the retrieval was not cancelled.
    pub fn outcome(&self) -> Option<&bdisk::RetrievalOutcome> {
        match self {
            RetrievalResolution::Complete(outcome) => Some(outcome),
            RetrievalResolution::ModeChanged { .. } => None,
        }
    }

    /// `true` when the retrieval was cancelled by a mode swap.
    pub fn is_mode_changed(&self) -> bool {
        matches!(self, RetrievalResolution::ModeChanged { .. })
    }
}

/// One in-progress retrieval of a file from a broadcast station.
///
/// Feed it slots via [`crate::Station::run_until_complete`] (many concurrent
/// retrievals in one pass) or [`Retrieval::observe`] (manual slot-driving),
/// then call [`Retrieval::finish`].
///
/// The handle wraps a [`ClientSession`] tuned to its channel's *epoch* at
/// subscription time.  When a mode swap reprograms the channel
/// mid-retrieval, the station's drivers notice the epoch mismatch and
/// either transparently re-subscribe the handle (the file survives the
/// transition with identical dispersal parameters and contents, so
/// [`ClientSession::retune`] keeps its blocks) or cancel it, after which
/// [`Retrieval::finish`] reports [`crate::Error::ModeChanged`].
#[derive(Debug, Clone)]
pub struct Retrieval {
    session: ClientSession,
    dispersal: Arc<Dispersal>,
    latencies: LatencyVector,
    cancelled_by: Option<String>,
}

/// Why [`Retrieval`] may read its session's tuning unconditionally.
const TUNED: &str = "Retrieval::new tunes its session";

impl Retrieval {
    pub(crate) fn new(
        file: FileId,
        request_slot: usize,
        (channel, epoch): (usize, u64),
        dispersal: Arc<Dispersal>,
        latencies: LatencyVector,
        root: Option<Root>,
    ) -> Self {
        let params = (dispersal.threshold(), dispersal.total_blocks());
        let mut session = ClientSession::new(file, params.0, request_slot);
        session.retune(channel, epoch, Some(params), root);
        Retrieval {
            session,
            dispersal,
            latencies,
            cancelled_by: None,
        }
    }

    /// The file being retrieved.
    pub fn file(&self) -> FileId {
        self.session.file()
    }

    /// The broadcast channel the station routed this retrieval to (always 0
    /// on an unsharded station).  Transparent re-subscription after a mode
    /// swap can move the handle to another channel.
    // The slot drivers read the tuning per subscriber per slot; the panic
    // path keeps rustc from inlining it across codegen units unasked.
    #[inline]
    pub fn channel(&self) -> usize {
        self.session.channel().expect(TUNED)
    }

    /// The epoch of the channel's program this retrieval is tuned to.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.session.epoch().expect(TUNED)
    }

    /// `true` when a mode swap cancelled this retrieval.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled_by.is_some()
    }

    /// `true` once the retrieval needs no further driving: it completed or a
    /// mode swap cancelled it.
    pub fn is_resolved(&self) -> bool {
        self.is_complete() || self.is_cancelled()
    }

    /// Cancels the retrieval on behalf of a mode swap.
    pub(crate) fn cancel(&mut self, mode: String) {
        if !self.is_complete() {
            self.cancelled_by = Some(mode);
        }
    }

    /// Transparently re-subscribes the handle after a mode swap: same file,
    /// same dispersal parameters and contents, but possibly a different
    /// channel, program epoch and declared latency vector.  The station
    /// only retunes a file whose dispersed bytes the transition kept, so
    /// its commitment root is unchanged and the session keeps its blocks.
    pub(crate) fn retune(
        &mut self,
        channel: usize,
        epoch: u64,
        dispersal: Arc<Dispersal>,
        latencies: LatencyVector,
    ) {
        let params = (dispersal.threshold(), dispersal.total_blocks());
        let root = self.session.expected_root();
        self.session.retune(channel, epoch, Some(params), root);
        self.dispersal = dispersal;
        self.latencies = latencies;
    }

    /// The commitment root this retrieval verifies against, if armed.
    pub fn commitment_root(&self) -> Option<Root> {
        self.session.expected_root()
    }

    /// Number of blocks rejected because their inclusion proof failed (each
    /// also counts as an observed error).
    pub fn verify_failures(&self) -> usize {
        self.session.verify_failures()
    }

    /// The slot at which the retrieval was issued.
    pub fn request_slot(&self) -> usize {
        self.session.request_slot()
    }

    /// The reconstruction threshold `mᵢ` (distinct blocks needed).
    pub fn threshold(&self) -> usize {
        self.dispersal.threshold()
    }

    /// The file's declared latency vector `d⃗ᵢ` (slots, indexed by fault
    /// level).
    pub fn latencies(&self) -> &LatencyVector {
        &self.latencies
    }

    /// The declared worst-case latency with `faults` reception errors, if
    /// the file's specification covers that fault level.
    pub fn deadline(&self, faults: usize) -> Option<u32> {
        self.latencies.latency(faults)
    }

    /// Number of distinct blocks received so far.
    pub fn blocks_received(&self) -> usize {
        self.session.blocks_received()
    }

    /// Number of failed receptions observed so far.
    pub fn errors_observed(&self) -> usize {
        self.session.errors_observed()
    }

    /// `true` once enough distinct blocks have been received.
    pub fn is_complete(&self) -> bool {
        self.session.is_complete()
    }

    /// Feeds one transmission of the broadcast into the retrieval; returns
    /// `true` if it completed it.
    ///
    /// Slots before the request slot are ignored (the session enforces
    /// this), so a fleet of retrievals with different request slots can
    /// share one slot-driver loop.
    pub fn observe(&mut self, transmission: TransmissionRef<'_>, received_ok: bool) -> bool {
        self.session
            .ingest(Observation::Slot {
                transmission: Some(transmission),
                received_ok,
            })
            .completed()
    }

    /// Reconstructs the file from the received blocks.
    ///
    /// The dispersal parameters travel inside the handle, so this cannot be
    /// called with a mismatched `(m, n)` configuration.  A retrieval a mode
    /// swap cancelled reports [`Error::ModeChanged`].
    pub fn finish(&self) -> Result<RetrievalOutcome, Error> {
        if let Some(mode) = &self.cancelled_by {
            return Err(Error::ModeChanged {
                file: self.file(),
                mode: mode.clone(),
            });
        }
        if !self.is_complete() {
            return Err(Error::RetrievalIncomplete {
                file: self.file(),
                received: self.blocks_received(),
                required: self.threshold(),
            });
        }
        self.session.finish(&self.dispersal).map_err(Error::Ida)
    }

    /// The resolution of a resolved retrieval (completed or cancelled);
    /// `None` while still in flight.
    pub fn resolution(&self) -> Option<Result<RetrievalResolution, Error>> {
        if let Some(mode) = &self.cancelled_by {
            return Some(Ok(RetrievalResolution::ModeChanged {
                file: self.file(),
                mode: mode.clone(),
            }));
        }
        if self.is_complete() {
            return Some(self.finish().map(RetrievalResolution::Complete));
        }
        None
    }

    /// Whether `outcome` met the latency declared for the number of faults
    /// it observed: `Some(met)` when the fault level is covered by the
    /// file's specification, `None` when more faults occurred than the file
    /// declared tolerance for (no latency was promised).
    pub fn within_declared_latency(&self, outcome: &RetrievalOutcome) -> Option<bool> {
        self.latencies
            .latency(outcome.errors_observed)
            .map(|d| outcome.latency() <= d as usize)
    }
}

/// The retrieval handle *is* the runtime's subscriber: the synchronous
/// drivers and the concurrent runtime advance it through exactly this
/// surface, so the two paths cannot diverge on tuning or swap semantics.
impl brt::Subscriber for Retrieval {
    fn file(&self) -> FileId {
        Retrieval::file(self)
    }

    #[inline]
    fn channel(&self) -> usize {
        Retrieval::channel(self)
    }

    #[inline]
    fn epoch(&self) -> u64 {
        Retrieval::epoch(self)
    }

    fn request_slot(&self) -> usize {
        Retrieval::request_slot(self)
    }

    fn is_resolved(&self) -> bool {
        Retrieval::is_resolved(self)
    }

    fn observe(&mut self, transmission: TransmissionRef<'_>, received_ok: bool) -> bool {
        Retrieval::observe(self, transmission, received_ok)
    }

    /// Slots a lagging concurrent reader dropped while blocks of this file
    /// were on the air.  Completed or cancelled retrievals ignore them.
    fn erase(&mut self, count: usize) {
        if !self.is_cancelled() {
            self.session.ingest(Observation::Erasure { count });
        }
    }

    fn apply(&mut self, note: &brt::SwapNote) {
        match note {
            brt::SwapNote::Retune {
                channel,
                epoch,
                dispersal,
                latencies,
            } => self.retune(*channel, *epoch, dispersal.clone(), latencies.clone()),
            brt::SwapNote::Cancel { mode } => self.cancel(mode.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(threshold: usize) -> Retrieval {
        Retrieval::new(
            FileId(1),
            10,
            (0, 0),
            Arc::new(Dispersal::new(threshold, threshold + 2).unwrap()),
            LatencyVector::new(vec![8, 12]).unwrap(),
            None,
        )
    }

    #[test]
    fn cancelled_retrievals_finish_with_mode_changed() {
        let mut r = handle(2);
        assert!(!r.is_resolved());
        r.cancel("landing".to_string());
        assert!(r.is_cancelled());
        assert!(r.is_resolved());
        assert_eq!(r.cancelled_by.as_deref(), Some("landing"));
        assert!(matches!(
            r.finish(),
            Err(Error::ModeChanged {
                file: FileId(1),
                ..
            })
        ));
        assert!(matches!(
            r.resolution(),
            Some(Ok(RetrievalResolution::ModeChanged { .. }))
        ));
    }

    #[test]
    fn retuning_moves_channel_epoch_and_latencies() {
        let mut r = handle(2);
        assert_eq!(r.epoch(), 0);
        r.retune(
            3,
            7,
            Arc::new(Dispersal::new(2, 4).unwrap()),
            LatencyVector::new(vec![20]).unwrap(),
        );
        assert_eq!(r.channel(), 3);
        assert_eq!(r.epoch(), 7);
        assert_eq!(r.deadline(0), Some(20));
        assert_eq!(r.deadline(1), None);
    }

    #[test]
    fn finishing_early_reports_progress() {
        let r = handle(3);
        match r.finish() {
            Err(Error::RetrievalIncomplete {
                file,
                received,
                required,
            }) => {
                assert_eq!(file, FileId(1));
                assert_eq!(received, 0);
                assert_eq!(required, 3);
            }
            other => panic!("expected RetrievalIncomplete, got {other:?}"),
        }
    }

    #[test]
    fn deadlines_come_from_the_latency_vector() {
        let r = handle(2);
        assert_eq!(r.deadline(0), Some(8));
        assert_eq!(r.deadline(1), Some(12));
        assert_eq!(r.deadline(2), None);
    }

    #[test]
    fn within_declared_latency_checks_the_observed_fault_level() {
        let r = handle(2);
        let outcome = RetrievalOutcome {
            file: FileId(1),
            request_slot: 10,
            completion_slot: 18,
            errors_observed: 1,
            data: vec![],
        };
        // Latency 9 against d(1) = 12.
        assert_eq!(r.within_declared_latency(&outcome), Some(true));
        let too_many_faults = RetrievalOutcome {
            errors_observed: 5,
            ..outcome
        };
        assert_eq!(r.within_declared_latency(&too_many_faults), None);
    }
}
