//! The four workloads and the one interface the runner drives them through.

mod drive;
mod refresh;
mod wire;

use crate::gen::{self, Catalog, Shape, Stream};
use crate::record::Recorder;
use crate::trace::{NameId, Tracer, NO_PARENT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtbdisk::bnet::ClientStats;
use rtbdisk::{Error, FileId, ModeSpec, NetServing, NetStats, RuntimeStats, Station, SwapPolicy};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Which workload; later issues refer to them by [`Kind::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WireBulkAuth,
    WireSmallPlain,
    DriveFleetLossy,
    RefreshAsDeployed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::WireBulkAuth,
        Kind::WireSmallPlain,
        Kind::DriveFleetLossy,
        Kind::RefreshAsDeployed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WireBulkAuth => "wire_bulk_auth",
            Kind::WireSmallPlain => "wire_small_plain",
            Kind::DriveFleetLossy => "drive_fleet_lossy",
            Kind::RefreshAsDeployed => "refresh_as_deployed",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// One line for `BENCHMARK.json`: what the workload stresses and what
    /// it deliberately leaves idle.
    pub fn why(self) -> &'static str {
        match self {
            Kind::WireBulkAuth => {
                "2 x 1 MiB authenticated files over loopback UDP, 0.1% datagram drop: per-byte \
                 costs (CRC, fragments, syscalls, proof verify, coded reconstruct) do the work"
            }
            Kind::WireSmallPlain => {
                "64 x 512 B plain files, one datagram per slot: per-packet and per-slot costs do \
                 the work; bauth, gf256 and coded ida are idle, so a hashing PR must stay flat"
            }
            Kind::DriveFleetLossy => {
                "no sockets or threads: fleets of 32 retrievals driven synchronously under 10% \
                 loss; isolates bdisk, bsim, brt::drive, ida and gf256 from transport cost"
            }
            Kind::RefreshAsDeployed => {
                "the write side on the real clock: refresh one file's bytes, swap, read back \
                 through the wire client and the ring; disperse/commit/swap beside reads"
            }
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            // m = 64 blocks of 16 KiB → 12 datagrams per slot at the default
            // MTU; five latency levels → r = 4, n = 68.
            Kind::WireBulkAuth => Shape {
                files: 2,
                blocks: 64,
                block_bytes: 16 * 1024,
                latencies: &[192, 198, 204, 210, 216],
                authenticated: true,
            },
            // m = 1: one un-fragmented datagram per slot, density 2/3.
            Kind::WireSmallPlain => Shape {
                files: 64,
                blocks: 1,
                block_bytes: 512,
                latencies: &[96],
                authenticated: false,
            },
            // m = 8 blocks of 4 KiB, r = 2, n = 10.
            Kind::DriveFleetLossy => Shape {
                files: 16,
                blocks: 8,
                block_bytes: 4 * 1024,
                latencies: &[200, 220, 240],
                authenticated: false,
            },
            // m = 16 blocks of 16 KiB, r = 2, n = 18.
            Kind::RefreshAsDeployed => Shape {
                files: 4,
                blocks: 16,
                block_bytes: 16 * 1024,
                latencies: &[96, 102, 108],
                authenticated: true,
            },
        }
    }
}

/// Wall time of the three set-up stages: specifications and contents in,
/// station on the air with the first listener seated out.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Broadcast::builder()…build()`.
    pub build_s: f64,
    /// `serve_network_with` / nothing for the synchronous drive.
    pub serve_start_s: f64,
    /// First listener seated: socket bound, `Join` acknowledged, directory
    /// fetched over the control plane (wire) or first fleet subscribed
    /// (drive).
    pub join_s: f64,
    /// One control-plane `Subscribe` round trip, when the workload has a
    /// control plane.
    pub control_subscribe_s: Option<f64>,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.serve_start_s + self.join_s
    }
}

/// One content refresh: new bytes handed over → swap applied on the air.
#[derive(Debug, Clone, Copy)]
pub struct RefreshTimes {
    /// Snapshot + `prepare_mode_with_contents`.
    pub prepare_ms: f64,
    /// `swap_at` / `swap` until applied.
    pub swap_ms: f64,
}

impl RefreshTimes {
    pub fn total_ms(&self) -> f64 {
        self.prepare_ms + self.swap_ms
    }
}

/// What a workload hands back when it is taken off the air.
#[derive(Debug, Default)]
pub struct Teardown {
    /// Counts read from the public stats structs, keyed by per-layer metric
    /// name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Timing samples the workload collected itself (per-door retrieval
    /// times, join times), keyed by per-layer metric name, in ms.
    pub samples_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Reasons the run does not count (lost datagrams on a loss-free
    /// workload, send errors, a stalled pipeline).
    pub invalid: Vec<String>,
}

/// A workload on the air.
pub trait Deployed {
    /// Performs one unit of closed-loop load — one retrieval, one fleet, or
    /// one refresh cycle — and records its outcome.
    fn step(&mut self, rec: &mut Recorder, tracer: &mut Tracer);

    /// Slots the station has served so far.
    fn slots_served(&self) -> u64;

    /// Bytes the station has put on the medium so far.
    fn medium_bytes(&self) -> u64;

    /// Called between steps, once per window: refreshes one file's contents
    /// (seeded) and swaps it in; later steps expect the new bytes.  `None`
    /// from a workload whose every step refreshes already.
    fn refresh(&mut self, tracer: &mut Tracer) -> Result<Option<RefreshTimes>, String>;

    /// Takes the workload off the air, checking the run was valid.
    fn teardown(self: Box<Self>) -> Teardown;
}

/// Puts `kind` on the air over `catalog`.
pub fn setup(
    kind: Kind,
    catalog: &Catalog,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Box<dyn Deployed>, SetupTimes), String> {
    match kind {
        Kind::WireBulkAuth => wire::setup(kind, catalog, seed, 0.001, tracer),
        Kind::WireSmallPlain => wire::setup(kind, catalog, seed, 0.0, tracer),
        Kind::DriveFleetLossy => drive::setup(kind, catalog, seed, tracer),
        Kind::RefreshAsDeployed => refresh::setup(kind, catalog, seed, tracer),
    }
}

/// The first set-up stage, timed and spanned: `Broadcast::builder()…build()`
/// over the catalog.  Returns the station and the seconds it took.
fn timed_build(
    catalog: &Catalog,
    shape: &Shape,
    tracer: &mut Tracer,
) -> Result<(Station, f64), String> {
    let name = tracer.name("facade.build");
    let started = Instant::now();
    let span = tracer.begin(name, NO_PARENT, 0);
    let station = catalog.build_station(shape.authenticated)?;
    tracer.end(span);
    Ok((station, started.elapsed().as_secs_f64()))
}

/// How long any single retrieval may take before it counts as failed.
const RETRIEVAL_TIMEOUT: Duration = Duration::from_secs(5);

/// Content refreshes, shared by all workloads: the seeded choice of which
/// file changes next and to what bytes, the refresh itself, and the split of
/// every refresh made, for the per-layer report.
struct Refresher {
    rng: StdRng,
    shape: Shape,
    generation: u64,
    prepare: NameId,
    swap: NameId,
    prepare_ms: Vec<f64>,
    swap_ms: Vec<f64>,
}

impl Refresher {
    fn new(shape: Shape, seed: u64, tracer: &mut Tracer) -> Self {
        Refresher {
            rng: StdRng::seed_from_u64(gen::sub_seed(seed, Stream::Refresh)),
            shape,
            generation: 0,
            prepare: tracer.name("facade.prepare_mode"),
            swap: tracer.name("facade.swap_at"),
            prepare_ms: Vec::new(),
            swap_ms: Vec::new(),
        }
    }

    /// New seeded bytes for one file → prepared → swapped in on `station`,
    /// each half timed and spanned.  `prepare` gets the mode (the catalog's
    /// own specifications: only contents change) and the new contents,
    /// `swap` what it prepared.  On success the catalog holds the new bytes.
    fn refresh<T, P>(
        &mut self,
        station: &mut T,
        catalog: &mut Catalog,
        tracer: &mut Tracer,
        sequence: u32,
        prepare: impl FnOnce(&T, &ModeSpec, BTreeMap<FileId, Vec<u8>>) -> Result<P, Error>,
        swap: impl FnOnce(&mut T, P) -> Result<(), Error>,
    ) -> Result<(FileId, RefreshTimes), String> {
        self.generation += 1;
        let file = FileId(self.rng.gen_range(1..=self.shape.files));
        let bytes = gen::random_bytes(&mut self.rng, self.shape.file_bytes());
        let mode = ModeSpec::new(format!("refresh-{}", self.generation))
            .files(catalog.specs.iter().cloned());

        let started = Instant::now();
        let span = tracer.begin(self.prepare, NO_PARENT, sequence);
        let prepared = prepare(station, &mode, BTreeMap::from([(file, bytes.clone())]))
            .map_err(|e| format!("{file}: prepare: {e}"))?;
        tracer.end(span);
        let prepare_ms = ms(started.elapsed());

        let started = Instant::now();
        let span = tracer.begin(self.swap, NO_PARENT, sequence);
        swap(station, prepared).map_err(|e| format!("{file}: swap: {e}"))?;
        tracer.end(span);
        let swap_ms = ms(started.elapsed());

        catalog.contents.insert(file, bytes);
        self.prepare_ms.push(prepare_ms);
        self.swap_ms.push(swap_ms);
        Ok((
            file,
            RefreshTimes {
                prepare_ms,
                swap_ms,
            },
        ))
    }

    /// [`Refresher::refresh`] on a served station: prepared against a
    /// snapshot, swapped in `lead_slots` ahead of the serving cursor.
    fn refresh_served(
        &mut self,
        serving: &mut NetServing,
        lead_slots: usize,
        catalog: &mut Catalog,
        tracer: &mut Tracer,
        sequence: u32,
    ) -> Result<(FileId, RefreshTimes), String> {
        self.refresh(
            serving,
            catalog,
            tracer,
            sequence,
            |serving, mode, contents| {
                serving
                    .runtime()
                    .snapshot()?
                    .prepare_mode_with_contents(mode, contents)
            },
            |serving, prepared| {
                let at_slot = serving.runtime().slots_served() as usize + lead_slots;
                serving
                    .swap_at(prepared, at_slot, SwapPolicy::Immediate)
                    .map(drop)
            },
        )
    }

    /// The recorded splits, keyed by per-layer metric name.
    fn take_samples(&mut self) -> [(&'static str, Vec<f64>); 2] {
        [
            (
                "facade.prepare_mode_ms_p50",
                std::mem::take(&mut self.prepare_ms),
            ),
            ("facade.swap_at_ms_p50", std::mem::take(&mut self.swap_ms)),
        ]
    }
}

/// What the wire clients of a run saw, summed.
#[derive(Debug, Default)]
struct ClientTotals {
    erasures: u64,
    decode_errors: u64,
    verify_failures: u64,
    rejoins: u64,
    resyncs: u64,
}

impl ClientTotals {
    fn add(&mut self, stats: &ClientStats) {
        self.erasures += stats.erasures;
        self.decode_errors += stats.decode_errors;
        self.verify_failures += stats.verify_failures;
        self.rejoins += stats.rejoins;
        self.resyncs += stats.resyncs;
    }
}

/// The per-layer counts a network-serving workload reads from the public
/// stats structs when it leaves the air.
fn network_counts(
    net: &NetStats,
    runtime: Option<&RuntimeStats>,
    clients: &ClientTotals,
    block_bytes: u32,
) -> BTreeMap<&'static str, f64> {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let slots = runtime.map_or(0, |r| r.slots_served);
    let payload_bytes = net.frames_sent * block_bytes as u64;
    BTreeMap::from([
        ("bnet.datagrams_sent", net.datagrams_sent as f64),
        ("bnet.datagrams_per_slot", ratio(net.datagrams_sent, slots)),
        (
            "bnet.fragments_per_frame",
            ratio(net.datagrams_sent, net.frames_sent),
        ),
        (
            "bnet.wire_overhead_ratio",
            ratio(net.bytes_sent, payload_bytes),
        ),
        ("bnet.send_errors", net.send_errors as f64),
        ("bnet.client_erasures", clients.erasures as f64),
        ("bnet.decode_errors", clients.decode_errors as f64),
        ("bnet.rejoins", clients.rejoins as f64),
        ("bnet.resyncs", clients.resyncs as f64),
        ("bauth.verify_failures", clients.verify_failures as f64),
        ("brt.slots_served", slots as f64),
        (
            "brt.lagged_slots",
            runtime.map_or(0, |r| r.lagged_slots) as f64,
        ),
    ])
}

/// `Instant` difference in milliseconds.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
