//! The modes figure: online mode transitions on a serving station, comparing
//! the immediate and drain swap policies across 1 / 2 / 4 channels.
//!
//! For each `(k, policy)` cell a station serves the sharding workload with a
//! fleet of in-flight retrievals, swaps to a "surge" mode mid-simulation
//! (one file's AIDA redundancy maximised, everything else untouched), and
//! reports the transition cost: how long the swap took to flip, how many
//! channels actually flipped, how the in-flight fleet resolved (untouched /
//! completed before the flip / transparently re-subscribed / cancelled with
//! `ModeChanged`), and the post-swap steady-state latency of the new mode.

use crate::render_table;
use crate::sharding::sharding_workload;
use bsim::BernoulliErrors;
use ida::{FileId, ModeProfile, RedundancyPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtbdisk::{
    Broadcast, ModeSchedule, ModeSpec, NoErrors, Retrieval, Station, SwapPolicy, SwapReport,
};
use serde::{Serialize, Value};

/// Disruption accounting for one executed swap.
#[derive(Debug, Clone)]
pub struct TransitionMetrics {
    /// The swap as the station executed it: the slot it was requested at,
    /// the slot the changed channels flipped at and the latency between.
    pub swap: SwapReport,
    /// In-flight retrievals at request time whose channel the swap never
    /// touched.
    pub untouched: usize,
    /// In-flight retrievals that completed before the flip (the drain
    /// policy's goal).
    pub completed_before_flip: usize,
    /// In-flight retrievals that transparently re-subscribed and completed
    /// under the new program.
    pub resubscribed: usize,
    /// In-flight retrievals cancelled with `ModeChanged`.
    pub disrupted: usize,
}

impl TransitionMetrics {
    /// Total in-flight retrievals the swap found.
    pub fn in_flight(&self) -> usize {
        self.untouched + self.completed_before_flip + self.resubscribed + self.disrupted
    }
}

impl Serialize for TransitionMetrics {
    /// The swap's requested and flip slots, then the fleet's four counts.
    fn serialize(&self) -> Value {
        let fields = [
            ("requested_slot", self.swap.requested_slot),
            ("flip_slot", self.swap.flip_slot),
            ("untouched", self.untouched),
            ("completed_before_flip", self.completed_before_flip),
            ("resubscribed", self.resubscribed),
            ("disrupted", self.disrupted),
        ];
        Value::Map(
            fields
                .into_iter()
                .map(|(name, count)| (name.to_string(), count.serialize()))
                .collect(),
        )
    }
}

/// One cell of the modes figure.
#[derive(Debug, Clone, Serialize)]
pub struct ModesRow {
    /// Number of broadcast channels.
    pub channels: usize,
    /// The swap policy (`"immediate"` or `"drain"`).
    pub policy: String,
    /// Channels the swap actually flipped.
    pub flipped_channels: usize,
    /// The per-swap disruption accounting.
    pub metrics: TransitionMetrics,
    /// Mean retrieval latency (slots) of a fresh fleet under the new mode.
    pub post_swap_mean_latency: f64,
}

/// The modes figure: immediate vs drain across channel counts.
#[derive(Debug, Clone, Serialize)]
pub struct ModesFigure {
    /// Per-reception Bernoulli loss probability during the transition.
    pub loss_probability: f64,
    /// In-flight retrievals per cell at swap time.
    pub clients: usize,
    /// One row per `(channels, policy)` combination.
    pub rows: Vec<ModesRow>,
}

impl core::fmt::Display for ModesFigure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Mode transitions — surge swap with {} in-flight clients, {}% loss",
            self.clients,
            self.loss_probability * 100.0
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.channels.to_string(),
                    r.policy.clone(),
                    r.metrics.swap.swap_latency().to_string(),
                    r.flipped_channels.to_string(),
                    r.metrics.untouched.to_string(),
                    r.metrics.completed_before_flip.to_string(),
                    r.metrics.resubscribed.to_string(),
                    r.metrics.disrupted.to_string(),
                    format!("{:.2}", r.post_swap_mean_latency),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "channels",
                    "policy",
                    "swap latency",
                    "flipped",
                    "untouched",
                    "pre-flip done",
                    "resubscribed",
                    "disrupted",
                    "post mean lat",
                ],
                &rows,
            )
        )
    }
}

/// The surge mode: same file set, but file 1's AIDA redundancy is maximised
/// (the paper's combat-mode move).  The widened dispersal re-programs file
/// 1's channel — in-flight retrievals of file 1 cannot carry their blocks
/// over — while the partition, and therefore every channel not carrying
/// file 1, is untouched and keeps broadcasting byte-identically.
pub fn surge_mode() -> ModeSpec {
    ModeSpec::new("surge")
        .files(sharding_workload())
        .with_profile(
            ModeProfile::new("surge", RedundancyPolicy::None)
                .with_override(FileId(1), RedundancyPolicy::Maximum),
        )
}

/// Runs one `(k, policy)` transition cell and fills the metrics.
fn transition_cell(
    k: usize,
    policy: SwapPolicy,
    clients_per_file: usize,
    loss: f64,
    seed: u64,
) -> ModesRow {
    let mut station: Station = Broadcast::builder()
        .files(sharding_workload())
        .channels(k)
        .build()
        .expect("the workload fits k channels");
    let specs = station.specs().to_vec();
    let mut rng = StdRng::seed_from_u64(seed);

    // The schedule: one surge swap at slot 40 (mid-flight for the fleet).
    let schedule = ModeSchedule::new().at(40, surge_mode(), policy);
    let event = &schedule.events()[0];

    // An in-flight fleet, request slots spread across [0, swap slot).
    let mut fleet: Vec<Retrieval> = Vec::new();
    for spec in &specs {
        for _ in 0..clients_per_file {
            let at = rng.gen_range(0..event.at_slot);
            fleet.push(station.subscribe(spec.id, at).expect("known file"));
        }
    }
    let mut errors = BernoulliErrors::new(loss, seed ^ 0x51AB);
    station
        .run_until_slot(&mut fleet, &mut errors, event.at_slot)
        .expect("pre-swap drive cannot stall under the listen cap");

    let prepared = station
        .prepare_mode(&event.mode)
        .expect("the surge mode designs on k channels");
    let report: SwapReport = station
        .swap(prepared, event.at_slot, event.policy)
        .expect("fresh preparation swaps cleanly");
    let resolutions = station
        .run_until_resolved(&mut fleet, &mut errors)
        .expect("post-swap drive cannot stall under the listen cap");

    let mut metrics = TransitionMetrics {
        swap: report,
        untouched: 0,
        completed_before_flip: 0,
        resubscribed: 0,
        disrupted: 0,
    };
    let report = &metrics.swap;
    for (retrieval, resolution) in fleet.iter().zip(&resolutions) {
        if resolution.is_mode_changed() {
            metrics.disrupted += 1;
        } else if let Some(outcome) = resolution.outcome() {
            if outcome.completion_slot < report.flip_slot {
                metrics.completed_before_flip += 1;
            } else if retrieval.epoch() == report.epoch {
                metrics.resubscribed += 1;
            } else {
                metrics.untouched += 1;
            }
        }
    }

    // Post-swap steady state: a fresh fleet under the new mode, fault-free,
    // starting after the flip.
    let post_specs = station.specs().to_vec();
    let mut post_fleet: Vec<Retrieval> = post_specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            station
                .subscribe(s.id, report.flip_slot + 3 * i)
                .expect("new-mode file")
        })
        .collect();
    let outcomes = station
        .run_until_complete(&mut post_fleet, &mut NoErrors)
        .expect("fault-free retrievals complete");
    let post_swap_mean_latency =
        outcomes.iter().map(|o| o.latency()).sum::<usize>() as f64 / outcomes.len().max(1) as f64;

    ModesRow {
        channels: k,
        policy: event.policy.to_string(),
        flipped_channels: report.flipped_channels.len(),
        metrics,
        post_swap_mean_latency,
    }
}

/// The modes figure over the standard surge transition.
pub fn modes_figure(clients_per_file: usize, seed: u64) -> ModesFigure {
    let loss = 0.10;
    let mut rows = Vec::new();
    for &k in &[1usize, 2, 4] {
        for policy in [SwapPolicy::Immediate, SwapPolicy::Drain] {
            rows.push(transition_cell(
                k,
                policy,
                clients_per_file,
                loss,
                seed ^ (k as u64) << 8,
            ));
        }
    }
    ModesFigure {
        loss_probability: loss,
        clients: clients_per_file * sharding_workload().len(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_serialize_the_swaps_slots_then_the_fleet_counts() {
        let row = transition_cell(2, SwapPolicy::Drain, 3, 0.10, 0x0D35);
        let m = &row.metrics;
        assert_eq!(m.in_flight(), 3 * sharding_workload().len());
        let json = m.serialize();
        let fields = json.as_map().expect("metrics serialise as a map");
        let expected = [
            ("requested_slot", m.swap.requested_slot),
            ("flip_slot", m.swap.flip_slot),
            ("untouched", m.untouched),
            ("completed_before_flip", m.completed_before_flip),
            ("resubscribed", m.resubscribed),
            ("disrupted", m.disrupted),
        ];
        assert_eq!(fields.len(), expected.len());
        for ((name, value), (want, count)) in fields.iter().zip(expected) {
            assert_eq!((name.as_str(), value), (want, &Value::UInt(count as u64)));
        }
    }

    #[test]
    fn figure_covers_both_policies_across_channel_counts() {
        let figure = modes_figure(5, 0x0D35);
        assert_eq!(figure.rows.len(), 6);
        for row in &figure.rows {
            // Every in-flight retrieval is accounted for, exactly once.
            assert_eq!(row.metrics.in_flight(), figure.clients);
            assert!(row.metrics.disrupted <= figure.clients);
            assert!(row.post_swap_mean_latency >= 1.0);
            // Only the boosted file's channel flips: on a sharded station
            // the swap is per-channel, not whole-station.
            assert_eq!(row.flipped_channels, 1);
            match row.policy.as_str() {
                "immediate" => assert_eq!(row.metrics.swap.swap_latency(), 0),
                "drain" => assert!(row.metrics.swap.swap_latency() > 0),
                other => panic!("unexpected policy {other}"),
            }
        }
        // Drain policy never disrupts more than immediate on the same
        // workload (it lets in-flight retrievals finish first).
        for pair in figure.rows.chunks(2) {
            assert!(
                pair[1].metrics.disrupted <= pair[0].metrics.disrupted,
                "drain disrupted {} > immediate {} on k={}",
                pair[1].metrics.disrupted,
                pair[0].metrics.disrupted,
                pair[0].channels
            );
        }
        assert!(!figure.to_string().is_empty());
    }
}
