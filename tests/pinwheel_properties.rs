//! Randomized property tests of the pinwheel scheduling substrate: every
//! guarantee the broadcast-disk planner relies on, exercised on random
//! instances from a seeded RNG (deterministic, reproducible runs).

use pinwheel::{
    verify, AutoScheduler, DoubleIntegerScheduler, ExactOutcome, ExactSolver, LlfScheduler,
    PinwheelScheduler, SaScheduler, SxScheduler, Task, TaskSystem,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A unit-task system with density at most `max_density` (rejection
/// sampling).
fn unit_system(rng: &mut StdRng, max_tasks: usize, max_density: f64) -> TaskSystem {
    loop {
        let n = rng.gen_range(1usize..=max_tasks);
        let windows: Vec<u32> = (0..n).map(|_| rng.gen_range(2u32..200)).collect();
        let density: f64 = windows.iter().map(|&w| 1.0 / f64::from(w)).sum();
        if density > max_density {
            continue;
        }
        let tasks: Vec<Task> = windows
            .iter()
            .enumerate()
            .map(|(i, &w)| Task::unit(i as u32 + 1, w))
            .collect();
        if let Ok(system) = TaskSystem::new(tasks) {
            return system;
        }
    }
}

/// A multi-unit task system (requirements up to 4) with bounded density.
fn multi_unit_system(rng: &mut StdRng, max_tasks: usize, max_density: f64) -> TaskSystem {
    loop {
        let n = rng.gen_range(1usize..=max_tasks);
        let pairs: Vec<(u32, u32)> = (0..n)
            .map(|_| (rng.gen_range(1u32..=4), rng.gen_range(4u32..300)))
            .collect();
        let density: f64 = pairs
            .iter()
            .map(|&(a, b)| f64::from(a) / f64::from(b))
            .sum();
        if density > max_density {
            continue;
        }
        let tasks: Vec<Task> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| Task::new(i as u32 + 1, a, b.max(a)))
            .collect();
        if let Ok(system) = TaskSystem::new(tasks) {
            return system;
        }
    }
}

/// Holte et al.'s guarantee: density ≤ 1/2 ⇒ Sa schedules it, and the
/// schedule verifies.
#[test]
fn sa_schedules_everything_below_density_half() {
    let mut rng = StdRng::seed_from_u64(0x5A00);
    for _ in 0..64 {
        let system = unit_system(&mut rng, 8, 0.5);
        let schedule = SaScheduler
            .schedule(&system)
            .expect("Sa is guaranteed below density 1/2");
        assert!(verify(&schedule, &system).is_ok());
    }
}

/// Sx's base search always contains Sa's powers-of-two base, so Sx
/// schedules every instance Sa schedules — the reason the auto-scheduler's
/// cascade runs no Sa of its own.  Above 8193 the windows make Sx's cap of
/// 4096 candidates sample the base range; `pinwheel`'s own unit test sweeps
/// smaller caps.
#[test]
fn sx_schedules_whatever_sa_schedules_at_every_candidate_cap() {
    let mut rng = StdRng::seed_from_u64(0x5A07);
    let mut systems: Vec<TaskSystem> = [vec![10, 30], vec![4, 9, 17, 40], vec![8194, 20_000]]
        .iter()
        .map(|windows: &Vec<u32>| {
            let tasks = windows
                .iter()
                .enumerate()
                .map(|(i, &w)| Task::unit(i as u32 + 1, w))
                .collect();
            TaskSystem::new(tasks).unwrap()
        })
        .collect();
    for case in 0..48 {
        let (lo, hi, max_tasks) = [(2, 200, 12), (17, 400, 40), (8194, 20_000, 4)][case % 3];
        let target = rng.gen_range(0.3..1.0);
        let mut tasks = Vec::new();
        let mut density = 0.0;
        while tasks.len() < max_tasks {
            let w = rng.gen_range(lo..hi);
            if density + 1.0 / f64::from(w) > target {
                break;
            }
            density += 1.0 / f64::from(w);
            tasks.push(Task::unit(tasks.len() as u32 + 1, w));
        }
        if !tasks.is_empty() {
            systems.push(TaskSystem::new(tasks).unwrap());
        }
    }
    for system in &systems {
        if SaScheduler.schedule(system).is_ok() {
            let schedule = SxScheduler
                .schedule(system)
                .unwrap_or_else(|e| panic!("Sx failed where Sa succeeded: {e}, {system:?}"));
            assert!(verify(&schedule, system).is_ok());
        }
    }
}

/// Every scheduler only ever returns verified schedules, at any density.
#[test]
fn schedulers_never_return_invalid_schedules() {
    let mut rng = StdRng::seed_from_u64(0x5A01);
    for _ in 0..64 {
        let system = unit_system(&mut rng, 8, 1.0);
        let schedulers: Vec<Box<dyn PinwheelScheduler>> = vec![
            Box::new(SaScheduler),
            Box::new(SxScheduler),
            Box::new(DoubleIntegerScheduler),
            Box::new(LlfScheduler),
            Box::new(AutoScheduler),
        ];
        for s in schedulers {
            if let Ok(schedule) = s.schedule(&system) {
                assert!(
                    verify(&schedule, &system).is_ok(),
                    "{} returned a bad schedule",
                    s.name()
                );
            }
        }
    }
}

/// The Chan & Chin regime the paper's Equations 1/2 rely on: the cascade
/// schedules every instance with density ≤ 7/10 (every such instance is
/// feasible, so a failure here is a genuine gap in the cascade).
#[test]
fn auto_scheduler_covers_the_seven_tenths_regime() {
    let mut rng = StdRng::seed_from_u64(0x5A02);
    for _ in 0..64 {
        let system = unit_system(&mut rng, 5, 0.70);
        let schedule = AutoScheduler
            .schedule(&system)
            .expect("cascade must cover density ≤ 0.7");
        assert!(verify(&schedule, &system).is_ok());
    }
}

/// Multi-unit tasks (the `pc(i, m, d)` conditions of the paper) are handled
/// through rule R3; schedules remain valid against the original multi-unit
/// conditions.
#[test]
fn multi_unit_conditions_verify_against_originals() {
    let mut rng = StdRng::seed_from_u64(0x5A03);
    for _ in 0..64 {
        let system = multi_unit_system(&mut rng, 5, 0.55);
        if let Ok(schedule) = AutoScheduler.schedule(&system) {
            assert!(verify(&schedule, &system).is_ok());
        }
    }
}

/// Exact solver soundness: when it says "schedulable" the witness verifies;
/// when it proves infeasibility no heuristic may find a schedule.
#[test]
fn exact_solver_agrees_with_constructive_schedulers() {
    let mut rng = StdRng::seed_from_u64(0x5A04);
    let mut checked = 0usize;
    while checked < 64 {
        let system = unit_system(&mut rng, 4, 0.9);
        // Keep the state space small enough for the exact solver.
        let states: u128 = system
            .tasks()
            .iter()
            .fold(1u128, |acc, t| acc.saturating_mul(u128::from(t.window)));
        if states > 200_000 {
            continue;
        }
        checked += 1;
        match ExactSolver::default().decide(&system) {
            ExactOutcome::Schedulable(s) => assert!(verify(&s, &system).is_ok()),
            ExactOutcome::Infeasible => {
                for s in [
                    SaScheduler.schedule(&system),
                    SxScheduler.schedule(&system),
                    LlfScheduler.schedule(&system),
                ] {
                    assert!(s.is_err(), "heuristic scheduled an infeasible instance");
                }
            }
            ExactOutcome::Undecided { .. } => {}
        }
    }
}

/// Density above one is always rejected, never mis-scheduled.
#[test]
fn density_above_one_is_always_rejected() {
    let mut rng = StdRng::seed_from_u64(0x5A05);
    let mut checked = 0usize;
    while checked < 64 {
        let n = rng.gen_range(3usize..6);
        let windows: Vec<u32> = (0..n).map(|_| rng.gen_range(2u32..6)).collect();
        let density: f64 = windows.iter().map(|&w| 1.0 / f64::from(w)).sum();
        if density <= 1.0 + 1e-9 {
            continue;
        }
        checked += 1;
        let tasks: Vec<Task> = windows
            .iter()
            .enumerate()
            .map(|(i, &w)| Task::unit(i as u32 + 1, w))
            .collect();
        let system = TaskSystem::new(tasks).unwrap();
        assert!(AutoScheduler.schedule(&system).is_err());
        assert!(ExactSolver::default().decide(&system).is_infeasible());
    }
}

/// The verifier itself, cross-checked against a brute-force window count on
/// random schedules.
#[test]
fn verifier_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0x5A06);
    let mut checked = 0usize;
    while checked < 64 {
        let len = rng.gen_range(1usize..40);
        let slots: Vec<Option<u32>> = (0..len)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Some(rng.gen_range(1u32..4))
                } else {
                    None
                }
            })
            .collect();
        let requirement = rng.gen_range(1u32..4);
        let window = rng.gen_range(1u32..30);
        if requirement > window {
            continue;
        }
        checked += 1;
        let schedule = pinwheel::Schedule::new(slots.clone());
        let task = Task::new(1, requirement, window);
        let system = TaskSystem::new(vec![task]).unwrap();
        let verified = verify(&schedule, &system).is_ok();

        // Brute force over windows starting within one period.
        let period = slots.len();
        let brute = (0..period).all(|start| {
            let count = (start..start + window as usize)
                .filter(|&t| slots[t % period] == Some(1))
                .count();
            count >= requirement as usize
        });
        assert_eq!(
            verified, brute,
            "slots {slots:?}, a {requirement}, b {window}"
        );
    }
}
