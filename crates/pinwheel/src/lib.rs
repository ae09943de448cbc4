//! # pinwheel — pinwheel task systems and schedulers
//!
//! A *pinwheel task* `(i, a, b)` (Holte et al. 1989) must be allocated a
//! shared, slot-granular resource for **at least `a` out of every `b`
//! consecutive time slots**.  A *pinwheel task system* is a set of such tasks
//! sharing one resource under the Integral Boundary Constraint (exactly one
//! task, or none, per slot).
//!
//! This crate provides:
//!
//! * the task model and density computations ([`Task`], [`TaskSystem`]);
//! * cyclic schedules and an **exact window verifier**
//!   ([`Schedule`], [`verify`]);
//! * constructive schedulers of increasing sophistication:
//!   * the harmonic column packer ([`SchedulerChoice::Harmonic`]) —
//!     optimal (density ≤ 1) for instances whose windows form a
//!     divisibility chain;
//!   * [`SaScheduler`] — Holte et al.'s powers-of-two specialization,
//!     guaranteed for density ≤ 1/2;
//!   * [`SxScheduler`] — single-integer reduction with an exhaustive base
//!     search;
//!   * [`DoubleIntegerScheduler`] — two-chain (Chan & Chin style)
//!     specialization with a verified constructive back-end;
//!   * [`LlfScheduler`] — least-laxity-first greedy with cycle detection
//!     (the double-integer reduction's back-end);
//!   * [`ExactSolver`] — state-space search that *decides* schedulability of
//!     small instances and extracts a witness schedule;
//!   * [`AutoScheduler`] — the cascade used by the broadcast-disk planner:
//!     harmonic → double-integer → Sx → exact.  Sx covers Sa, and the
//!     greedy never scheduled a design the reductions had not, so neither
//!     has a stage of its own.
//!
//! Every scheduler verifies its own output before returning it, so a
//! successful result is always a genuine schedule.
//!
//! ## Quick example
//!
//! ```
//! use pinwheel::{Task, TaskSystem, AutoScheduler, PinwheelScheduler};
//!
//! // Example 1 of the paper: {(1,1,2), (2,1,3)} is schedulable.
//! let system = TaskSystem::new(vec![Task::new(1, 1, 2), Task::new(2, 1, 3)]).unwrap();
//! let schedule = AutoScheduler.schedule(&system).unwrap();
//! assert!(pinwheel::verify(&schedule, &system).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod double_integer;
mod exact;
mod harmonic;
mod llf;
mod sa;
mod schedule;
mod scheduler;
mod specialize;
mod sx;
mod task;
mod verify;

pub use double_integer::DoubleIntegerScheduler;
pub use exact::{ExactOutcome, ExactSolver};
pub use llf::LlfScheduler;
pub use sa::SaScheduler;
pub use schedule::Schedule;
pub use scheduler::{AutoScheduler, PinwheelScheduler, ScheduleError, SchedulerChoice};
pub use sx::SxScheduler;
pub use task::{Density, Task, TaskId, TaskSystem, TaskSystemError};
pub use verify::{verify, verify_task, VerificationError};

/// The density below which Chan & Chin's double-integer-reduction scheduler is
/// guaranteed to succeed; the paper's bandwidth Equations 1 and 2 are derived
/// from this bound.
pub const CHAN_CHIN_DENSITY_BOUND: f64 = 0.7;
