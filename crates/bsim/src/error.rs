//! Channel error models.
//!
//! The paper's broadcast medium model (Section 3.2) is one in which
//! "individual transmission errors occur independently of each other, and the
//! occurrence of an error during the transmission of a block renders the
//! entire block unreadable" — the Bernoulli model below.  Real wireless
//! channels are bursty, so a two-state Gilbert–Elliott model is provided as
//! well, plus deterministic models for tests and worst-case experiments.
//!
//! The traits they implement — [`ErrorModel`], [`ChannelErrorModel`] — and
//! the lossless [`bdisk::NoErrors`] are `bdisk`'s, so the serving path
//! samples a model without linking this crate.

use bdisk::{ChannelErrorModel, ErrorModel, TransmissionRef};
use ida::FileId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent per-channel loss: channel `c` is governed by the `c`-th model,
/// with no coupling between channels.  Channels beyond the configured list
/// are lossless.
pub struct IndependentChannels {
    models: Vec<Box<dyn ErrorModel>>,
}

impl IndependentChannels {
    /// One model per channel, in channel order.
    pub fn new(models: Vec<Box<dyn ErrorModel>>) -> Self {
        IndependentChannels { models }
    }

    /// `k` channels built by a per-channel constructor (e.g. the same model
    /// family with per-channel seeds).
    pub fn build(k: usize, mut make: impl FnMut(usize) -> Box<dyn ErrorModel>) -> Self {
        IndependentChannels {
            models: (0..k).map(&mut make).collect(),
        }
    }

    /// Number of configured channels.
    pub fn channel_count(&self) -> usize {
        self.models.len()
    }
}

impl core::fmt::Debug for IndependentChannels {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("IndependentChannels")
            .field("channels", &self.models.len())
            .finish()
    }
}

impl ChannelErrorModel for IndependentChannels {
    fn is_lost_on(&mut self, channel: usize, transmission: TransmissionRef<'_>) -> bool {
        match self.models.get_mut(channel) {
            Some(model) => model.is_lost(transmission),
            None => false,
        }
    }
}

/// Correlated cross-channel loss: one *common* loss process (sampled once per
/// slot, shared by every channel — e.g. a wide-band interference burst that
/// takes out all carriers at once) on top of independent per-channel models.
///
/// A reception is lost when the common process fires for its slot *or* its
/// channel's own model loses it.
pub struct CorrelatedChannels {
    common: Box<dyn ErrorModel>,
    per_channel: Vec<Box<dyn ErrorModel>>,
    sampled_slot: Option<usize>,
    common_lost: bool,
}

impl CorrelatedChannels {
    /// Combines a shared per-slot process with independent per-channel
    /// models.
    ///
    /// The common process is sampled on the first reception of each slot
    /// (whatever channel that is) and the sample is reused for the slot's
    /// remaining channels — slot-synchronized channels see the same ambient
    /// event.
    pub fn new(common: Box<dyn ErrorModel>, per_channel: Vec<Box<dyn ErrorModel>>) -> Self {
        CorrelatedChannels {
            common,
            per_channel,
            sampled_slot: None,
            common_lost: false,
        }
    }
}

impl core::fmt::Debug for CorrelatedChannels {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CorrelatedChannels")
            .field("channels", &self.per_channel.len())
            .field("sampled_slot", &self.sampled_slot)
            .finish()
    }
}

impl ChannelErrorModel for CorrelatedChannels {
    fn is_lost_on(&mut self, channel: usize, transmission: TransmissionRef<'_>) -> bool {
        if self.sampled_slot != Some(transmission.slot) {
            self.sampled_slot = Some(transmission.slot);
            self.common_lost = self.common.is_lost(transmission);
        }
        let channel_lost = match self.per_channel.get_mut(channel) {
            Some(model) => model.is_lost(transmission),
            None => false,
        };
        self.common_lost || channel_lost
    }
}

/// Confines an [`ErrorModel`] to a single channel: every other channel is
/// lossless.  The adversarial building block for "a burst on channel `c`
/// must not affect channel `c'`" experiments.
pub struct OnChannel<E> {
    channel: usize,
    inner: E,
}

impl<E: ErrorModel> OnChannel<E> {
    /// Applies `inner` to receptions on `channel` only.
    pub fn new(channel: usize, inner: E) -> Self {
        OnChannel { channel, inner }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: core::fmt::Debug> core::fmt::Debug for OnChannel<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OnChannel")
            .field("channel", &self.channel)
            .field("inner", &self.inner)
            .finish()
    }
}

impl<E: ErrorModel> ChannelErrorModel for OnChannel<E> {
    fn is_lost_on(&mut self, channel: usize, transmission: TransmissionRef<'_>) -> bool {
        channel == self.channel && self.inner.is_lost(transmission)
    }
}

/// Independent (Bernoulli) block-loss with probability `p` per reception.
#[derive(Debug, Clone)]
pub struct BernoulliErrors {
    probability: f64,
    rng: StdRng,
}

impl BernoulliErrors {
    /// Creates the model with a loss probability and a deterministic seed.
    pub fn new(probability: f64, seed: u64) -> Self {
        BernoulliErrors {
            probability: probability.clamp(0.0, 1.0),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ErrorModel for BernoulliErrors {
    fn is_lost(&mut self, _transmission: TransmissionRef<'_>) -> bool {
        self.rng.gen::<f64>() < self.probability
    }
}

/// A two-state Gilbert–Elliott burst-loss model: the channel alternates
/// between a *good* state (low loss) and a *bad* state (high loss), with
/// geometric sojourn times.
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    /// Probability of moving good → bad at each slot.
    pub p_good_to_bad: f64,
    /// Probability of moving bad → good at each slot.
    pub p_bad_to_good: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
    in_bad_state: bool,
    rng: StdRng,
}

impl GilbertElliott {
    /// Creates a burst model with the given transition and loss
    /// probabilities.
    pub fn new(
        p_good_to_bad: f64,
        p_bad_to_good: f64,
        loss_good: f64,
        loss_bad: f64,
        seed: u64,
    ) -> Self {
        GilbertElliott {
            p_good_to_bad: p_good_to_bad.clamp(0.0, 1.0),
            p_bad_to_good: p_bad_to_good.clamp(0.0, 1.0),
            loss_good: loss_good.clamp(0.0, 1.0),
            loss_bad: loss_bad.clamp(0.0, 1.0),
            in_bad_state: false,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A typical mobile-channel parameterisation: 2% of slots enter a burst,
    /// bursts last ~10 slots, and lose 60% of blocks.
    pub fn typical(seed: u64) -> Self {
        GilbertElliott::new(0.02, 0.1, 0.005, 0.6, seed)
    }
}

impl ErrorModel for GilbertElliott {
    fn is_lost(&mut self, _transmission: TransmissionRef<'_>) -> bool {
        // State transition first, then sample the loss for this slot.
        if self.in_bad_state {
            if self.rng.gen::<f64>() < self.p_bad_to_good {
                self.in_bad_state = false;
            }
        } else if self.rng.gen::<f64>() < self.p_good_to_bad {
            self.in_bad_state = true;
        }
        let p = if self.in_bad_state {
            self.loss_bad
        } else {
            self.loss_good
        };
        self.rng.gen::<f64>() < p
    }
}

/// Deterministically loses the first `count` receptions of a given file —
/// used by tests and the worst-case experiments to inject exactly `r` faults
/// into one retrieval.
#[derive(Debug, Clone)]
pub struct TargetedLoss {
    file: FileId,
    remaining: usize,
}

impl TargetedLoss {
    /// Loses the first `count` blocks of `file` that go by.
    pub fn new(file: FileId, count: usize) -> Self {
        TargetedLoss {
            file,
            remaining: count,
        }
    }

    /// How many losses are still pending.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl ErrorModel for TargetedLoss {
    fn is_lost(&mut self, transmission: TransmissionRef<'_>) -> bool {
        if self.remaining > 0 && transmission.block.file() == self.file {
            self.remaining -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdisk::{BroadcastFile, BroadcastProgram, BroadcastServer, FileSet, FlatOrder, NoErrors};

    /// A one-file server; its slot 0 is the transmission the models sample.
    fn a_server() -> BroadcastServer {
        let files = FileSet::new(vec![BroadcastFile::new(FileId(0), "A", 2, 8)]).unwrap();
        let program = BroadcastProgram::flat(&files, FlatOrder::Spread).unwrap();
        BroadcastServer::with_synthetic_contents(&files, program).unwrap()
    }

    #[test]
    fn no_errors_never_loses() {
        let server = a_server();
        let tx = server.transmit_ref(0).unwrap();
        let mut model = NoErrors;
        assert!((0..100).all(|_| !model.is_lost(tx)));
    }

    #[test]
    fn bernoulli_loss_rate_is_close_to_p() {
        let server = a_server();
        let tx = server.transmit_ref(0).unwrap();
        let mut model = BernoulliErrors::new(0.3, 42);
        let losses = (0..20_000).filter(|_| model.is_lost(tx)).count();
        let rate = losses as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn bernoulli_is_deterministic_per_seed() {
        let server = a_server();
        let tx = server.transmit_ref(0).unwrap();
        let sample = |seed| {
            let mut m = BernoulliErrors::new(0.5, seed);
            (0..64).map(|_| m.is_lost(tx)).collect::<Vec<_>>()
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
    }

    #[test]
    fn gilbert_elliott_produces_bursty_losses() {
        let server = a_server();
        let tx = server.transmit_ref(0).unwrap();
        let mut model = GilbertElliott::typical(1);
        let outcomes: Vec<bool> = (0..50_000).map(|_| model.is_lost(tx)).collect();
        let losses = outcomes.iter().filter(|&&l| l).count();
        assert!(losses > 0);
        // Burstiness: the probability that a loss is followed by another loss
        // must clearly exceed the marginal loss rate.
        let marginal = losses as f64 / outcomes.len() as f64;
        let mut pairs = 0usize;
        let mut loss_then_loss = 0usize;
        for w in outcomes.windows(2) {
            if w[0] {
                pairs += 1;
                if w[1] {
                    loss_then_loss += 1;
                }
            }
        }
        let conditional = loss_then_loss as f64 / pairs.max(1) as f64;
        assert!(
            conditional > marginal * 2.0,
            "conditional {conditional} vs marginal {marginal}"
        );
    }

    #[test]
    fn plain_models_ignore_the_channel_index() {
        let server = a_server();
        let tx = server.transmit_ref(0).unwrap();
        let mut model = BernoulliErrors::new(0.5, 7);
        let mut reference = BernoulliErrors::new(0.5, 7);
        for channel in 0..8 {
            assert_eq!(model.is_lost_on(channel, tx), reference.is_lost(tx));
        }
    }

    #[test]
    fn independent_channels_keep_separate_processes() {
        let server = a_server();
        let tx = server.transmit_ref(0).unwrap();
        let mut bank = IndependentChannels::new(vec![
            Box::new(NoErrors),
            Box::new(TargetedLoss::new(FileId(0), 1)),
        ]);
        assert_eq!(bank.channel_count(), 2);
        // Channel 0 is lossless; channel 1 loses exactly one reception.
        assert!(!bank.is_lost_on(0, tx));
        assert!(bank.is_lost_on(1, tx));
        assert!(!bank.is_lost_on(1, tx));
        // Channels beyond the configured list are lossless.
        assert!(!bank.is_lost_on(9, tx));
    }

    #[test]
    fn correlated_channels_share_one_per_slot_event() {
        let server = a_server();
        let tx = server.transmit_ref(0).unwrap();
        // The common process loses exactly the first slot it samples.
        let mut bank = CorrelatedChannels::new(
            Box::new(TargetedLoss::new(FileId(0), 1)),
            vec![Box::new(NoErrors), Box::new(NoErrors)],
        );
        // Same slot: the common event is sampled once and hits every channel.
        assert!(bank.is_lost_on(0, tx));
        assert!(bank.is_lost_on(1, tx));
        // A later slot re-samples the (now exhausted) common process.
        let later = TransmissionRef {
            slot: tx.slot + 1,
            ..tx
        };
        assert!(!bank.is_lost_on(0, later));
        assert!(!bank.is_lost_on(1, later));
    }

    #[test]
    fn on_channel_confines_losses_to_one_channel() {
        let server = a_server();
        let tx = server.transmit_ref(0).unwrap();
        let mut burst = OnChannel::new(1, TargetedLoss::new(FileId(0), 100));
        assert!(!burst.is_lost_on(0, tx));
        assert!(burst.is_lost_on(1, tx));
        assert!(!burst.is_lost_on(2, tx));
        assert_eq!(burst.inner().remaining(), 99);
    }

    #[test]
    fn targeted_loss_counts_down_per_matching_file() {
        let server = a_server();
        let tx = server.transmit_ref(0).unwrap();
        let mut model = TargetedLoss::new(FileId(0), 2);
        assert!(model.is_lost(tx));
        assert!(model.is_lost(tx));
        assert!(!model.is_lost(tx));
        assert_eq!(model.remaining(), 0);
        let mut other = TargetedLoss::new(FileId(9), 2);
        assert!(!other.is_lost(tx));
        assert_eq!(other.remaining(), 2);
    }
}
