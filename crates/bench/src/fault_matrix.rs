//! Retrieval under scripted network faults — the robustness entry of the
//! repo's recorded perf trajectory.
//!
//! Each cell of the matrix puts a station on the wire behind a seeded
//! `bfault::ImpairedLink` and lets one self-healing `NetClient` retrieve a
//! file through it: uniform downstream loss crossed with a scripted
//! partition window — none, one the retrieval rides out within its epoch,
//! and one concealing a mode swap (the recovery must resync to the new
//! epoch through the control plane before it can finish).  The row records
//! what the recovery machinery did (rejoins, resyncs, partition suspects,
//! erasures absorbed) next to the delivered bandwidth; `experiments
//! fault_matrix` serialises the result to `BENCH_fault.json`, which the CI
//! perf-regression gate compares against its committed baseline.

use rtbdisk::bfault::{FaultPlan, ImpairedLink};
use rtbdisk::{
    Broadcast, FileId, GeneralizedFileSpec, ManualClock, ModeSpec, NetClient, NetConfig, NoErrors,
    RecoveryConfig, RuntimeConfig, Station, SwapPolicy,
};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The downstream loss rates of the recorded trajectory.
pub const LOSS_RATES: [f64; 3] = [0.01, 0.05, 0.20];

/// Post-CRC corruption rate of the Byzantine rows: slot-frame payloads
/// mutated *after* the checksum recompute, so the wire decoder accepts
/// them.  Crossed with `authenticated` on/off — Merkle verification turns
/// each tampered block into a typed erasure; without it the corruption
/// reaches reconstruction.  High enough that the short retrieval window
/// (~40 slots) is all but guaranteed to see several tampered victim
/// blocks — at a few percent the whole window can pass untouched and the
/// row demonstrates nothing.
pub const TAMPER_RATE: f64 = 0.25;

/// Seed of every cell's [`FaultPlan`] (and of the client's backoff
/// jitter): the matrix is a scripted medium, not a sampled one.
const PLAN_SEED: u64 = 0xFA17;

/// Slots released per driver tick.
const SLOTS_PER_TICK: usize = 32;

/// Wall pause between driver ticks — the matrix's slot pacing.
const TICK: Duration = Duration::from_millis(2);

/// First black-holed slot of both partition scenarios.  The client joins
/// before the clock starts, so slots 0 and 1 prove the link was alive and
/// everything after proves the recovery.
const PARTITION_FROM: u64 = 2;

/// Partition length (slots) of the within-epoch scenario.
const SHORT_PARTITION: u64 = 1024;

/// Partition length (slots) of the cross-epoch scenario — long enough to
/// hide the mode swap scheduled at [`SWAP_SLOT`].
const LONG_PARTITION: u64 = 2048;

/// The slot the cross-epoch scenario's mode swap lands at (inside the
/// partition window, so the client cannot observe the epoch flip live).
const SWAP_SLOT: usize = 1024;

/// The partition scripted into a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Partition {
    /// No partition: rate impairments only.
    None,
    /// A partition the retrieval rides out inside its epoch.
    WithinEpoch,
    /// A partition concealing a mode swap: recovery must resync to the
    /// epoch that flipped while the link was dark.
    CrossEpoch,
}

/// The partition scenarios of the recorded trajectory.
pub const PARTITIONS: [Partition; 3] = [
    Partition::None,
    Partition::WithinEpoch,
    Partition::CrossEpoch,
];

impl Partition {
    fn label(self) -> &'static str {
        match self {
            Partition::None => "none",
            Partition::WithinEpoch => "within-epoch",
            Partition::CrossEpoch => "cross-epoch",
        }
    }
}

/// One cell of the matrix.
#[derive(Debug, Clone, Serialize)]
pub struct FaultRow {
    /// Downstream datagram loss rate.
    pub loss: f64,
    /// Post-CRC payload corruption rate (Byzantine rows; 0 elsewhere).
    pub tamper: f64,
    /// The station Merkle-committed its dispersals and the client verified
    /// blocks on receive.
    pub authenticated: bool,
    /// The scripted partition scenario.
    pub partition: String,
    /// The retrieval completed byte-identical to the in-process reference.
    pub completed: bool,
    /// Bytes of the reconstructed file.
    pub bytes: u64,
    /// Slot the retrieval completed at.
    pub completion_slot: u64,
    /// Erasures the session absorbed (losses, gaps, corruption).
    pub erasures: u64,
    /// Blocks rejected by Merkle verification (each also an erasure).
    pub verify_failures: u64,
    /// Slot datagrams the link Byzantine-mutated on the way down.
    pub tampered: u64,
    /// `Join` datagrams the supervision loop (re-)sent.
    pub rejoins: u64,
    /// Control-plane resync/resubscribe rounds completed.
    pub resyncs: u64,
    /// Times the liveness watchdog suspected a partition.
    pub partition_suspects: u64,
    /// Station → client datagrams the impaired link forwarded, as a
    /// fraction of those offered (partitioned datagrams count as offered).
    pub delivered_ratio: f64,
    /// Megabytes of reconstructed file per wall-clock second, stalls and
    /// recovery rounds included — the gated throughput of the cell.
    pub delivered_mb_s: f64,
}

/// The full `fault_matrix` measurement.
#[derive(Debug, Clone, Serialize)]
pub struct FaultMatrixResult {
    /// One row per loss × partition cell.
    pub rows: Vec<FaultRow>,
}

fn station(authenticated: bool) -> Station {
    // Unlike `net_perf`'s single-block files, these need `m = 4` distinct
    // blocks each: a retrieval cannot complete off the first slot or two,
    // so the partition window opening at slot 2 always interrupts a
    // retrieval actually in progress.
    let files = (1..=4u32)
        .map(|i| GeneralizedFileSpec::new(FileId(i), 4, vec![40 + 4 * i, 48 + 4 * i]).unwrap());
    Broadcast::builder()
        .files(files)
        .channels(2)
        .authenticated(authenticated)
        .build()
        .expect("the measurement specs are feasible")
}

/// The retrieval target and the co-channel file whose removal forces the
/// victim's channel to reprogram (epoch bump) without touching the
/// victim's own dispersal.
fn pick_victim(station: &Station) -> (FileId, FileId) {
    let ids: Vec<FileId> = station.specs().iter().map(|s| s.id).collect();
    let sibling_of = |victim: FileId| {
        let channel = station.channel_of(victim);
        ids.iter()
            .copied()
            .find(|&f| f != victim && station.channel_of(f) == channel)
    };
    // The file needing the most lossless slots gives the partition the
    // widest window to interrupt something real.
    ids.iter()
        .copied()
        .filter_map(|f| Some((f, sibling_of(f)?)))
        .max_by_key(|&(f, _)| {
            station
                .retrieve(f, 0, &mut NoErrors)
                .map(|o| o.completion_slot)
                .unwrap_or(0)
        })
        .expect("two files share a channel")
}

fn plan_for(loss: f64, tamper: f64, partition: Partition) -> FaultPlan {
    let plan = FaultPlan::seeded(PLAN_SEED)
        .down_loss(loss)
        .down_tamper(tamper);
    match partition {
        Partition::None => plan,
        Partition::WithinEpoch => plan.partition(PARTITION_FROM, PARTITION_FROM + SHORT_PARTITION),
        Partition::CrossEpoch => plan.partition(PARTITION_FROM, PARTITION_FROM + LONG_PARTITION),
    }
}

fn measure_cell(loss: f64, tamper: f64, partition: Partition, authenticated: bool) -> FaultRow {
    let station = station(authenticated);
    let (victim, sibling) = pick_victim(&station);
    let expected = station
        .retrieve(victim, 0, &mut NoErrors)
        .expect("the in-process reference retrieval completes")
        .data;
    let specs = station.specs().to_vec();

    let clock = ManualClock::new();
    let serving = station
        .serve_network_with(
            clock.clone(),
            RuntimeConfig::default(),
            NetConfig::default().with_control_plane(),
        )
        .expect("loopback serving binds");
    // Prepare the swap before the clock starts: design work must not eat
    // into the slot schedule the partition window is scripted against.
    let prepared = (partition == Partition::CrossEpoch).then(|| {
        let target = ModeSpec::new("shed-sibling").files(
            specs
                .iter()
                .filter(|s| s.id != sibling)
                .cloned()
                .collect::<Vec<_>>(),
        );
        serving
            .runtime()
            .prepare_mode(&target)
            .expect("the shed mode designs")
    });

    let link = ImpairedLink::spawn(serving.data_addr(), plan_for(loss, tamper, partition))
        .expect("relay spawns");
    let config = RecoveryConfig {
        join_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        watchdog: Duration::from_millis(40),
        max_recoveries: 32,
        seed: PLAN_SEED,
        ..RecoveryConfig::default()
    }
    .with_control(serving.control_addr().expect("control plane configured"));
    let client =
        NetClient::join_with(link.client_addr(), victim, config).expect("client joins via relay");
    // The join must land before the partition window opens at slot 2, so
    // wait for membership before releasing any slot.
    let mut budget = 200_000i64;
    while serving.net_stats().peers < 1 {
        std::thread::sleep(Duration::from_micros(50));
        budget -= 1;
        assert!(budget > 0, "the client never joined through the relay");
    }

    let start = Instant::now();
    let retriever = std::thread::spawn(move || client.retrieve_with_stats(Duration::from_secs(30)));
    let stop = Arc::new(AtomicBool::new(false));
    let driver = std::thread::spawn({
        let clock = clock.clone();
        let stop = Arc::clone(&stop);
        move || {
            while !stop.load(Ordering::Relaxed) {
                clock.advance(SLOTS_PER_TICK);
                std::thread::sleep(TICK);
            }
        }
    });
    if let Some(prepared) = prepared {
        serving
            .swap_at(prepared, SWAP_SLOT, SwapPolicy::Immediate)
            .expect("the concealed swap lands");
    }
    let (result, stats) = retriever.join().expect("retriever thread exits");
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    stop.store(true, Ordering::Relaxed);
    driver.join().expect("driver thread exits");
    let link_stats = link.stats();
    link.shutdown();
    serving
        .shutdown()
        .expect("network serving shuts down cleanly");

    let outcome = result.as_ref().ok();
    let completed = outcome.is_some_and(|o| o.data == expected);
    FaultRow {
        loss,
        tamper,
        authenticated,
        partition: partition.label().to_string(),
        completed,
        bytes: outcome.map_or(0, |o| o.data.len() as u64),
        completion_slot: outcome.map_or(0, |o| o.completion_slot as u64),
        erasures: stats.erasures,
        verify_failures: stats.verify_failures,
        tampered: link_stats.down.tampered,
        rejoins: stats.rejoins,
        resyncs: stats.resyncs,
        partition_suspects: stats.partition_suspects,
        delivered_ratio: link_stats.down.forwarded as f64 / link_stats.down.offered.max(1) as f64,
        delivered_mb_s: outcome.map_or(0.0, |o| o.data.len() as f64 / elapsed / 1e6),
    }
}

/// Measures every loss × partition cell once (the medium is scripted, not
/// sampled — a second pass replays the same plan).
pub fn fault_matrix() -> FaultMatrixResult {
    let mut rows = Vec::new();
    for &loss in &LOSS_RATES {
        for &partition in &PARTITIONS {
            rows.push(measure_cell(loss, 0.0, partition, false));
        }
    }
    // The Byzantine rows: post-CRC corruption the CRC cannot catch, with
    // and without Merkle verification.  Authenticated, every tampered
    // block is a typed `verify_failures` erasure and the retrieval stays
    // byte-identical; unauthenticated, tampered blocks reach
    // reconstruction and the mismatch shows up as `completed: false`.
    rows.push(measure_cell(0.0, TAMPER_RATE, Partition::None, true));
    rows.push(measure_cell(0.0, TAMPER_RATE, Partition::None, false));
    FaultMatrixResult { rows }
}

impl core::fmt::Display for FaultMatrixResult {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Retrieval under scripted faults (seeded impaired link, paced ManualClock)"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}%", r.loss * 100.0),
                    format!("{:.0}%", r.tamper * 100.0),
                    if r.authenticated { "yes" } else { "no" }.to_string(),
                    r.partition.clone(),
                    if r.completed { "yes" } else { "NO" }.to_string(),
                    r.completion_slot.to_string(),
                    r.erasures.to_string(),
                    r.verify_failures.to_string(),
                    r.tampered.to_string(),
                    r.rejoins.to_string(),
                    r.resyncs.to_string(),
                    r.partition_suspects.to_string(),
                    format!("{:.2}", r.delivered_ratio),
                    format!("{:.2}", r.delivered_mb_s),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::render_table(
                &[
                    "loss",
                    "tamper",
                    "auth",
                    "partition",
                    "ok",
                    "done@slot",
                    "erasures",
                    "badproof",
                    "tampered",
                    "rejoins",
                    "resyncs",
                    "suspects",
                    "delivered",
                    "MB/s"
                ],
                &rows,
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lossy_cell_completes_and_serialises() {
        let row = measure_cell(0.05, 0.0, Partition::None, false);
        assert!(row.completed, "5% loss must not break a retrieval");
        assert!(row.bytes > 0);
        assert!(row.delivered_ratio > 0.5 && row.delivered_ratio < 1.0);
        let json = serde_json::to_string(&FaultMatrixResult { rows: vec![row] }).unwrap();
        assert!(json.contains("delivered_mb_s"));
        assert!(json.contains("verify_failures"));
    }

    #[test]
    fn a_cross_epoch_partition_recovers_through_resync() {
        let row = measure_cell(0.01, 0.0, Partition::CrossEpoch, false);
        assert!(
            row.completed,
            "the client must ride out the concealed swap byte-identically"
        );
        assert!(row.resyncs >= 1, "recovery must have resynced");
        assert!(row.completion_slot >= PARTITION_FROM + LONG_PARTITION);
    }

    #[test]
    fn byzantine_tamper_is_verified_away_under_auth() {
        let row = measure_cell(0.0, TAMPER_RATE, Partition::None, true);
        assert!(
            row.completed,
            "post-CRC corruption must not poison an authenticated retrieval"
        );
        assert!(row.tampered > 0, "the scripted link must actually tamper");
        assert!(
            row.verify_failures > 0,
            "tampered victim blocks must be rejected by Merkle verification"
        );
        assert!(
            row.erasures >= row.verify_failures,
            "every rejected block is booked as an erasure"
        );
    }
}
