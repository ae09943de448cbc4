//! The sharding figure: one workload served on 1, 2 and 4 broadcast
//! channels, comparing per-channel density, per-client retrieval latency and
//! deadline-miss ratio under independent per-channel Bernoulli loss.
//!
//! Sharding does not change any single file's schedule guarantees (Lemma 3
//! holds per channel), but it divides the *load*: each channel carries fewer
//! files, so each file comes around more often, shrinking latency and miss
//! ratio as channels are added — the scaling step named in the ROADMAP.

use crate::render_table;
use bcore::{GeneralizedFileSpec, MultiChannelDesigner, MultiChannelReport};
use bdisk::{BroadcastServer, ClientSession, ErrorModel, Observation};
use bsim::BernoulliErrors;
use ida::FileId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// One row of the sharding figure: the workload served on `channels`
/// channels.
#[derive(Debug, Clone, Serialize)]
pub struct ShardingRow {
    /// Number of broadcast channels.
    pub channels: usize,
    /// Realized density of each channel's scheduled conjunct.
    pub per_channel_density: Vec<f64>,
    /// Mean retrieval latency (slots) over all clients.
    pub mean_latency: f64,
    /// Worst client latency (slots).
    pub max_latency: usize,
    /// Fraction of clients whose latency exceeded the latency declared for
    /// their observed fault level (capped at the file's tolerance `r`).
    pub miss_ratio: f64,
    /// Number of simulated clients.
    pub clients: usize,
}

/// The sharding comparison across 1 / 2 / 4 channels.
#[derive(Debug, Clone, Serialize)]
pub struct ShardingFigure {
    /// Per-reception Bernoulli loss probability on every channel.
    pub loss_probability: f64,
    /// One row per channel count.
    pub rows: Vec<ShardingRow>,
}

impl core::fmt::Display for ShardingFigure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Sharded broadcast — 1/2/4 channels, {}% independent loss per channel",
            self.loss_probability * 100.0
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.channels.to_string(),
                    r.per_channel_density
                        .iter()
                        .map(|d| format!("{d:.3}"))
                        .collect::<Vec<_>>()
                        .join(" / "),
                    format!("{:.2}", r.mean_latency),
                    r.max_latency.to_string(),
                    format!("{:.2}%", r.miss_ratio * 100.0),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "channels",
                    "per-channel density",
                    "mean latency",
                    "max latency",
                    "miss %",
                ],
                &rows,
            )
        )
    }
}

/// The figure's workload: eight files, mixed sizes, one tolerated fault each,
/// ~0.67 total density — feasible on a single channel, comfortable on four.
pub fn sharding_workload() -> Vec<GeneralizedFileSpec> {
    (1..=8u32)
        .map(|i| {
            let m = 1 + (i % 2); // sizes 1 and 2
            let d0 = m * 12;
            GeneralizedFileSpec::new(FileId(i), m, vec![d0, d0 + 4]).expect("valid workload spec")
        })
        .collect()
}

/// Simulates `clients_per_file` retrievals of every file on a `k`-channel
/// station, independent Bernoulli loss per channel.
fn simulate(
    design: &MultiChannelReport,
    clients_per_file: usize,
    loss: f64,
    seed: u64,
) -> (f64, usize, f64, usize) {
    let servers: Vec<BroadcastServer> = design
        .reports
        .iter()
        .map(|r| {
            BroadcastServer::with_synthetic_contents(&r.files, r.program.clone())
                .expect("synthetic contents always fit")
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total_latency = 0usize;
    let mut max_latency = 0usize;
    let mut missed = 0usize;
    let mut clients = 0usize;
    for (channel_index, (report, server)) in design.reports.iter().zip(&servers).enumerate() {
        let cycle = server.program().data_cycle().max(1);
        for file in report.files.files() {
            for client in 0..clients_per_file {
                // One loss process per client, seeded by channel so shards
                // never share noise: each client only ever listens to its
                // file's channel, so a full cross-channel bank would be
                // dead weight here.
                let client_seed = seed ^ (u64::from(file.id.0) << 32) ^ client as u64;
                let mut errors =
                    BernoulliErrors::new(loss, client_seed.wrapping_add(channel_index as u64));
                let request_slot = rng.gen_range(0..cycle);
                let mut session =
                    ClientSession::new(file.id, file.size_blocks as usize, request_slot);
                let mut slot = request_slot;
                loop {
                    let tx = server.transmit_ref(slot);
                    let ok = match tx {
                        Some(t) => !errors.is_lost(t),
                        None => true,
                    };
                    session.ingest(Observation::Slot {
                        transmission: tx,
                        received_ok: ok,
                    });
                    if session.is_complete() || slot - request_slot >= 100_000 {
                        break;
                    }
                    slot += 1;
                }
                let latency = slot - request_slot + 1;
                let faults = session.errors_observed().min(file.latencies.max_faults());
                let deadline = file
                    .latencies
                    .latency(faults)
                    .expect("fault level capped at the declared tolerance");
                total_latency += latency;
                max_latency = max_latency.max(latency);
                if !session.is_complete() || latency > deadline as usize {
                    missed += 1;
                }
                clients += 1;
            }
        }
    }
    (
        total_latency as f64 / clients.max(1) as f64,
        max_latency,
        missed as f64 / clients.max(1) as f64,
        clients,
    )
}

/// The sharding figure over the standard workload.
pub fn sharding_figure(clients_per_file: usize, seed: u64) -> ShardingFigure {
    let specs = sharding_workload();
    let loss = 0.10;
    let rows = [1usize, 2, 4]
        .iter()
        .map(|&k| {
            let design = MultiChannelDesigner::fixed(k)
                .design(&specs)
                .expect("the workload fits k channels");
            for report in &design.reports {
                assert!(report.verification.is_ok(), "unverified shard program");
            }
            let (mean_latency, max_latency, miss_ratio, clients) =
                simulate(&design, clients_per_file, loss, seed ^ k as u64);
            ShardingRow {
                channels: design.channel_count(),
                per_channel_density: design.reports.iter().map(|r| r.density).collect(),
                mean_latency,
                max_latency,
                miss_ratio,
                clients,
            }
        })
        .collect();
    ShardingFigure {
        loss_probability: loss,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_covers_one_two_and_four_channels() {
        let figure = sharding_figure(10, 0xF1A6);
        assert_eq!(figure.rows.len(), 3);
        assert_eq!(
            figure.rows.iter().map(|r| r.channels).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        for row in &figure.rows {
            assert_eq!(row.per_channel_density.len(), row.channels);
            for &d in &row.per_channel_density {
                assert!(d <= 1.0 + 1e-12, "channel density {d} over budget");
            }
            assert_eq!(row.clients, 8 * 10);
            assert!(row.mean_latency >= 1.0);
            assert!((0.0..=1.0).contains(&row.miss_ratio));
        }
        // Sharding divides the load: mean latency shrinks as channels grow.
        assert!(figure.rows[2].mean_latency < figure.rows[0].mean_latency);
        assert!(!figure.to_string().is_empty());
    }
}
