//! IVHS (Intelligent Vehicle Highway System) navigation scenario.
//!
//! The paper's introduction motivates broadcast disks with on-board
//! navigation systems: a server broadcasts incident alerts, link travel
//! times and map data to thousands of vehicles over a fat downstream channel.
//! This example sizes the channel with Equations 1/2, expresses the
//! requirements in slots at the constructive bandwidth, designs and serves
//! the disk through the `rtbdisk` facade, and measures retrieval latencies
//! under a bursty (Gilbert–Elliott) radio channel — contrasting it with a
//! naive demand-agnostic flat program, which misses the tight deadlines
//! exactly as the paper warns.
//!
//! Traffic is not stationary: the *rush-hour* program above gives incident
//! alerts tight deadlines and extra loss protection, while *off-peak* the
//! same station relaxes them and spends the bandwidth on the bulk files —
//! demonstrated at the end as an online `prepare_mode`/`swap` (drain
//! policy), not a rebuild: vehicles mid-retrieval ride through the flip.
//!
//! ```text
//! cargo run --release --example ivhs_navigation
//! ```

use bcore::Planner;
use bdisk::{BroadcastProgram, BroadcastServer, FlatOrder};
use bsim::{ivhs_scenario, GilbertElliott, RetrievalSimulator, SimulationConfig};
use rtbdisk::{
    Broadcast, FileId, GeneralizedFileSpec, ModeProfile, ModeSpec, NoErrors, RedundancyPolicy,
    RetrievalResolution, SwapPolicy,
};

const NAMES: [&str; 5] = [
    "incident-alerts",
    "link-travel-times",
    "congestion-map",
    "poi-delta",
    "roadworks-schedule",
];

fn main() -> Result<(), rtbdisk::Error> {
    // 1. Size the channel with Equations 1/2.
    let requirements = ivhs_scenario();
    let planner = Planner;
    let plan = planner.plan(&requirements).expect("valid scenario");
    let (bandwidth, _) = planner
        .minimum_constructive_bandwidth(&requirements)
        .expect("scenario is schedulable");

    println!("== IVHS channel sizing ==");
    println!("files                         : {}", requirements.len());
    println!(
        "information lower bound       : {} blocks/sec",
        plan.lower_bound
    );
    println!(
        "Equation 1/2 sufficient bound : {} blocks/sec",
        plan.chan_chin_bound
    );
    println!("constructively scheduled at   : {bandwidth} blocks/sec");
    println!(
        "analytic overhead             : {:.1}%",
        plan.overhead * 100.0
    );

    // 2. Express the requirements in slots at that bandwidth and let the
    //    facade design, verify and serve the broadcast program.
    let specs: Vec<GeneralizedFileSpec> = requirements
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let window = (bandwidth as f64 * r.latency_seconds) as u32;
            let latencies: Vec<u32> = (0..=r.faults)
                .map(|_| window.max(r.size_blocks + r.faults))
                .collect();
            GeneralizedFileSpec::new(FileId(i as u32), r.size_blocks, latencies)
                .expect("windows are wide enough")
                .with_name(NAMES[i])
                .with_block_bytes(256)
        })
        .collect();
    let mut station = Broadcast::builder().files(specs.clone()).build()?;

    println!();
    println!("== pinwheel-scheduled broadcast program (designed by the facade) ==");
    println!(
        "broadcast period   : {} slots",
        station.program().broadcast_period()
    );
    println!(
        "program data cycle : {} slots",
        station.program().data_cycle()
    );
    for f in station.files().files() {
        println!(
            "  {:<20} m={:<3} n={:<3} max gap Δ = {:?} (deadline {} slots)",
            f.name,
            f.size_blocks,
            f.dispersed_blocks,
            station.program().max_gap(f.id).unwrap_or(0),
            f.latencies.base_latency(),
        );
    }

    // 3. Vehicles retrieve files over a bursty channel, from the designed
    //    program and from a naive flat layout of the same file set.
    let flat_program =
        BroadcastProgram::aida_flat(station.files(), FlatOrder::Spread).expect("non-empty");
    let flat_server = BroadcastServer::with_synthetic_contents(station.files(), flat_program)
        .expect("valid contents");
    let programs: [(&str, &BroadcastServer); 2] = [
        ("pinwheel program", station.server()),
        ("naive flat program", &flat_server),
    ];
    for (label, server) in programs {
        println!();
        println!("== retrieval latencies under a bursty channel — {label} ==");
        println!(
            "{:<20} {:>8} {:>8} {:>8} {:>10} {:>10}",
            "file", "mean", "p99", "max", "deadline", "miss-ratio"
        );
        for (i, r) in requirements.iter().enumerate() {
            let file = FileId(i as u32);
            let deadline = (bandwidth as f64 * r.latency_seconds) as usize;
            let config = SimulationConfig {
                retrievals_per_file: 400,
                deadline_slots: Some(deadline),
                max_listen_slots: 100_000,
                seed: 0x1915 + i as u64,
            };
            let mut sim =
                RetrievalSimulator::new(server, GilbertElliott::typical(9 + i as u64), config);
            let report = sim.run_file(file, r.size_blocks as usize);
            println!(
                "{:<20} {:>8.1} {:>8} {:>8} {:>10} {:>9.2}%",
                NAMES[i],
                report.latency.mean(),
                report.latency.p99(),
                report.latency.max(),
                deadline,
                report.misses.miss_ratio() * 100.0
            );
        }
    }
    println!();
    println!(
        "The flat program ignores per-file deadlines, so the urgent incident-alert feed\n\
         misses most of its deadlines; the pinwheel program spaces its blocks to the\n\
         deadline and absorbs bursts with AIDA redundancy."
    );

    // 4. Midnight: hot-swap the serving station to off-peak mode.  Incident
    //    alerts and link travel times relax their deadlines (4× slacker),
    //    freeing bandwidth; the alerts keep one extra dispersed block of
    //    loss protection via the mode profile.  The drain policy lets every
    //    in-flight rush-hour retrieval within its declared tolerance finish
    //    under the old program before the flip.
    let off_peak_specs: Vec<GeneralizedFileSpec> = specs
        .iter()
        .map(|s| {
            let relax = s.id == FileId(0) || s.id == FileId(1);
            let latencies: Vec<u32> = s
                .latencies
                .iter()
                .map(|&d| if relax { d * 4 } else { d })
                .collect();
            GeneralizedFileSpec::new(s.id, s.size_blocks, latencies)
                .expect("relaxed windows stay valid")
                .with_name(s.name.clone())
                .with_block_bytes(s.block_bytes)
        })
        .collect();
    let off_peak = ModeSpec::new("off-peak")
        .files(off_peak_specs)
        .with_profile(
            ModeProfile::new("off-peak", RedundancyPolicy::None)
                .with_override(FileId(0), RedundancyPolicy::TolerateFaults { faults: 3 }),
        );

    // A vehicle is mid-retrieval of the big POI delta when the swap lands.
    let mut vehicle = station.subscribe(FileId(3), 0)?;
    station.run_until_slot(std::slice::from_mut(&mut vehicle), &mut NoErrors, 50)?;
    let prepared = station.prepare_mode(&off_peak)?;
    println!();
    println!("== swap: rush-hour -> off-peak (requested at slot 50, drain policy) ==");
    println!("{}", prepared.transition());
    let report = station.swap(prepared, 50, SwapPolicy::Drain)?;
    println!(
        "  flip deferred to slot {} (swap latency {} slots)",
        report.flip_slot,
        report.swap_latency()
    );
    let resolutions =
        station.run_until_resolved(std::slice::from_mut(&mut vehicle), &mut NoErrors)?;
    match &resolutions[0] {
        RetrievalResolution::Complete(outcome) => println!(
            "  mid-flight POI retrieval drained cleanly: {} bytes after {} slots",
            outcome.data.len(),
            outcome.latency()
        ),
        RetrievalResolution::ModeChanged { file, mode } => {
            println!("  mid-flight retrieval cancelled: {file} by `{mode}`")
        }
    }
    println!(
        "  off-peak program (same station, epoch {}):",
        station.epoch()
    );
    for f in station.files().files() {
        println!(
            "    {:<20} deadline {:>5} slots, n = {:>2} dispersed blocks",
            f.name,
            f.latencies.base_latency(),
            f.dispersed_blocks
        );
    }
    let alert = station.retrieve(FileId(0), report.flip_slot + 10, &mut NoErrors)?;
    println!(
        "    incident alert under off-peak: latency {} slots (deadline {})",
        alert.latency(),
        station
            .files()
            .get(FileId(0))
            .unwrap()
            .latencies
            .base_latency()
    );
    Ok(())
}
