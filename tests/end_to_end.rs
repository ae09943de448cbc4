//! End-to-end integration tests through the `rtbdisk` facade: specifications
//! → `Broadcast::builder` → `Station` → lossy channel → `Retrieval`
//! reconstruction, across all crates.

use rtbdisk::{
    BernoulliErrors, Broadcast, FileId, GeneralizedFileSpec, NoErrors, Retrieval, Station,
    TargetedLoss,
};

fn spec(id: u32, size: u32, latencies: &[u32]) -> GeneralizedFileSpec {
    GeneralizedFileSpec::new(FileId(id), size, latencies.to_vec()).unwrap()
}

#[test]
fn designed_program_delivers_correct_bytes_for_every_file() {
    // Real (deterministic) contents, not synthetic ones.
    let specs = vec![
        spec(1, 2, &[10, 14]),
        spec(2, 1, &[6, 8]),
        spec(3, 3, &[40]),
    ];
    let contents: Vec<(FileId, Vec<u8>)> = specs
        .iter()
        .map(|s| {
            let bytes: Vec<u8> = (0..(s.size_blocks * s.block_bytes) as usize)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(s.id.0 as u8))
                .collect();
            (s.id, bytes)
        })
        .collect();
    let mut builder = Broadcast::builder().files(specs.clone());
    for (id, bytes) in &contents {
        builder = builder.content(*id, bytes.clone());
    }
    let station = builder.build().unwrap();
    assert!(station.report().verification.is_ok());

    for (id, bytes) in &contents {
        let outcome = station.retrieve(*id, 0, &mut NoErrors).unwrap();
        assert_eq!(&outcome.data, bytes, "bytes for {id} differ");
        assert_eq!(outcome.errors_observed, 0);
        // Fault-free retrieval meets the fault-free deadline.
        let f = station.files().get(*id).unwrap();
        assert!(
            outcome.latency() <= f.latencies.base_latency() as usize,
            "file {id} latency {} exceeds deadline {}",
            outcome.latency(),
            f.latencies.base_latency()
        );
    }
}

#[test]
fn deadlines_hold_for_every_request_slot_and_fault_level() {
    // The paper's guarantee is per-window, not just from slot 0: check the
    // fault-free and single-fault deadlines from every possible request slot.
    let station = Broadcast::builder()
        .file(spec(1, 1, &[5, 8]))
        .file(spec(2, 2, &[12, 15]))
        .build()
        .unwrap();
    let cycle = station.program().data_cycle();
    for f in station.files().files() {
        for start in 0..cycle {
            // Fault level 0.
            let retrieval = station.subscribe(f.id, start).unwrap();
            let outcome = station.retrieve(f.id, start, &mut NoErrors).unwrap();
            assert_eq!(retrieval.deadline(0), Some(f.latencies.base_latency()));
            assert!(
                outcome.latency() <= f.latencies.base_latency() as usize,
                "file {} from slot {start}: {} > {}",
                f.id,
                outcome.latency(),
                f.latencies.base_latency()
            );
            // Fault level 1: lose the first block of this file that goes by.
            if let Some(d1) = f.latencies.latency(1) {
                let outcome = station
                    .retrieve(f.id, start, &mut TargetedLoss::new(f.id, 1))
                    .unwrap();
                assert!(outcome.errors_observed <= 1);
                assert!(
                    outcome.latency() <= d1 as usize,
                    "file {} from slot {start} with 1 fault: {} > {d1}",
                    f.id,
                    outcome.latency()
                );
            }
        }
    }
}

#[test]
fn lossy_channel_retrievals_still_reconstruct_exact_contents() {
    let station = Broadcast::builder()
        .file(spec(1, 4, &[30, 36, 40]))
        .file(spec(2, 2, &[16, 20]))
        .build()
        .unwrap();
    let mut errors = BernoulliErrors::new(0.15, 99);
    for f in station.files().files() {
        let reference = station.retrieve(f.id, 0, &mut NoErrors).unwrap().data;
        for start in [0usize, 3, 11, 29] {
            let outcome = station.retrieve(f.id, start, &mut errors).unwrap();
            assert_eq!(outcome.data, reference, "file {} from slot {start}", f.id);
        }
    }
}

#[test]
fn a_fleet_of_concurrent_clients_is_driven_in_one_pass() {
    let station = Broadcast::builder()
        .file(spec(1, 2, &[10, 14]))
        .file(spec(2, 1, &[6, 8]))
        .file(spec(3, 3, &[40]))
        .build()
        .unwrap();
    let cycle = station.program().data_cycle();
    // Forty clients across all files with staggered request slots.
    let mut fleet: Vec<Retrieval> = (0..40)
        .map(|i| {
            let file = FileId(1 + (i % 3) as u32);
            station.subscribe(file, (i * 7) % (2 * cycle)).unwrap()
        })
        .collect();
    let outcomes = station
        .run_until_complete(&mut fleet, &mut BernoulliErrors::new(0.05, 17))
        .unwrap();
    assert_eq!(outcomes.len(), fleet.len());
    for (retrieval, outcome) in fleet.iter().zip(&outcomes) {
        assert_eq!(outcome.file, retrieval.file());
        assert_eq!(outcome.request_slot, retrieval.request_slot());
        // Reconstruction must match a clean retrieval of the same file.
        let reference = station
            .retrieve(retrieval.file(), 0, &mut NoErrors)
            .unwrap()
            .data;
        assert_eq!(outcome.data, reference);
    }
}

#[test]
fn designer_and_planner_agree_on_an_awacs_style_disk() {
    // Plan the bandwidth with Equations 1/2 (seconds), then express the same
    // requirements in slots at the constructive bandwidth and design the
    // program through the facade; the design must be feasible and verified.
    let requirements = bsim::awacs_scenario();
    let planner = bcore::Planner;
    let (bandwidth, _) = planner
        .minimum_constructive_bandwidth(&requirements)
        .unwrap();
    let specs: Vec<GeneralizedFileSpec> = requirements
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let window = (bandwidth as f64 * r.latency_seconds).floor() as u32;
            let latencies: Vec<u32> = (0..=r.faults)
                .map(|_| window.max(r.size_blocks + r.faults))
                .collect();
            GeneralizedFileSpec::new(FileId(i as u32 + 1), r.size_blocks, latencies).unwrap()
        })
        .collect();
    let station: Station = Broadcast::builder().files(specs).build().unwrap();
    assert!(station.report().verification.is_ok());
    assert!(station.density() <= 1.0);
}
