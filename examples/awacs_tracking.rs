//! AWACS target-tracking scenario with *online* mode transitions.
//!
//! The paper's running example: an airborne radar platform broadcasts object
//! positions to client consoles.  An aircraft at 900 km/h needs its position
//! refreshed every 400 ms to keep a 100 m accuracy; a tank at 60 km/h only
//! every 6 s.  Criticality also depends on the *mode of operation*: in
//! "combat" mode the nearby-aircraft object gets maximum AIDA redundancy,
//! in "landing" mode it does not (paper Section 2.2).
//!
//! One `Station` serves the whole flight.  Mode changes are *hot swaps*:
//! `Station::prepare_mode` re-designs the broadcast program off the hot path
//! and `Station::swap` flips only the channels the mode actually touches —
//! consoles retrieving unaffected objects never notice.
//!
//! ```text
//! cargo run --release --example awacs_tracking
//! ```

use bsim::{worst_case_table, TargetedLoss};
use ida::{ModeProfile, RedundancyPolicy};
use rtbdisk::{Broadcast, FileId, GeneralizedFileSpec, ModeSpec, NoErrors, SwapPolicy};

fn specs() -> Result<Vec<GeneralizedFileSpec>, rtbdisk::Error> {
    Ok(vec![
        GeneralizedFileSpec::new(FileId(1), 1, vec![8, 10, 12])?.with_name("aircraft-track"),
        GeneralizedFileSpec::new(FileId(2), 1, vec![120, 150])?.with_name("tank-track"),
        GeneralizedFileSpec::new(FileId(3), 6, vec![200, 220])?.with_name("threat-board"),
        GeneralizedFileSpec::new(FileId(4), 24, vec![1200])?.with_name("terrain-tile"),
    ])
}

fn main() -> Result<(), rtbdisk::Error> {
    // 1. Take off in landing mode: modest redundancy everywhere.
    let landing = ModeSpec::new("landing").files(specs()?).with_profile(
        ModeProfile::new("landing", RedundancyPolicy::None)
            .with_override(FileId(1), RedundancyPolicy::TolerateFaults { faults: 1 }),
    );
    let mut station = Broadcast::builder()
        .files(landing.resolved_specs())
        .build()?;

    println!("== AWACS broadcast disk (mode: landing) ==");
    println!("conjunct density   : {:.3}", station.density());
    println!("schedule period    : {} slots", station.schedule().period());
    println!(
        "program data cycle : {} slots",
        station.program().data_cycle()
    );
    for (file, candidate) in &station.report().conversions {
        let f = station.files().get(*file).unwrap();
        println!(
            "  {:<15} via {:<11} density {:.4} (n = {} dispersed blocks)",
            f.name, candidate.kind, candidate.density, f.dispersed_blocks
        );
    }

    // 2. Worst-case delay analysis for the aircraft track: how late can its
    //    retrieval get when the channel clobbers r blocks?  The analysis
    //    is exact: an adversary picks the request slot and the r losses.
    println!();
    println!("== worst-case extra delay for the aircraft track ==");
    for analysis in worst_case_table(station.program(), FileId(1), 1, 3) {
        println!(
            "  {} error(s): latency ≤ {:>3} slots (extra {:>2})",
            analysis.errors, analysis.latency, analysis.extra_delay
        );
    }
    let outcome = station.retrieve(FileId(1), 0, &mut TargetedLoss::new(FileId(1), 1))?;
    println!(
        "  empirical, 1 targeted loss: latency {} slots (declared d(1) = {:?})",
        outcome.latency(),
        station.files().get(FileId(1)).unwrap().latencies.latency(1)
    );

    // 3. Threat pops up: hot-swap to combat mode.  The combat profile
    //    maximises the aircraft track's AIDA redundancy; the re-design
    //    widens its dispersal and re-programs the channel *while a console
    //    is mid-retrieval of the terrain tile*.
    let combat = ModeSpec::new("combat").files(specs()?).with_profile(
        ModeProfile::new("combat", RedundancyPolicy::None)
            // Burn bandwidth on the dogfight: 8 distinct dispersed blocks of
            // the aircraft track per data cycle instead of 4.
            .with_override(FileId(1), RedundancyPolicy::Fixed { count: 8 })
            .with_override(FileId(3), RedundancyPolicy::TolerateFaults { faults: 2 }),
    );
    let mut terrain_console = station.subscribe(FileId(4), 60)?;
    station.run_until_slot(
        std::slice::from_mut(&mut terrain_console),
        &mut NoErrors,
        100,
    )?;
    let prepared = station.prepare_mode(&combat)?;
    println!();
    println!("== swap: landing -> combat (requested at slot 100, immediate) ==");
    println!("{}", prepared.transition());
    let report = station.swap(prepared, 100, SwapPolicy::Immediate)?;
    println!("{report}");
    for f in station.files().files() {
        println!(
            "  {:<15} n = {:>2} dispersed blocks in combat mode",
            f.name, f.dispersed_blocks
        );
    }
    // The terrain console was mid-retrieval through the swap; its file kept
    // its dispersal parameters, so it either never noticed (channel
    // untouched) or transparently re-subscribed.
    let resolutions =
        station.run_until_resolved(std::slice::from_mut(&mut terrain_console), &mut NoErrors)?;
    match &resolutions[0] {
        rtbdisk::RetrievalResolution::Complete(outcome) => println!(
            "  terrain console survived the swap: {} bytes after {} slots",
            outcome.data.len(),
            outcome.latency()
        ),
        rtbdisk::RetrievalResolution::ModeChanged { file, mode } => {
            println!("  terrain console cancelled: {file} by `{mode}`")
        }
    }

    // 4. Threat clears: drain back to landing mode.  The drain policy defers
    //    the flip past the Lemma 3 horizon so every in-flight retrieval
    //    within its declared fault tolerance completes under combat first.
    let prepared = station.prepare_mode(&landing)?;
    let back = station.swap(prepared, 400, SwapPolicy::Drain)?;
    println!();
    println!("== swap: combat -> landing (drain) ==");
    println!(
        "  requested slot {} -> flip slot {} (drain horizon {} slots)",
        back.requested_slot, back.flip_slot, back.transition.drain_horizon
    );
    let outcome = station.retrieve(FileId(1), back.flip_slot, &mut NoErrors)?;
    println!(
        "  aircraft track under restored landing mode: latency {} slots (d(0) = {:?})",
        outcome.latency(),
        station.files().get(FileId(1)).unwrap().latencies.latency(0)
    );
    Ok(())
}
