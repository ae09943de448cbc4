//! The swap scheduler: plays a [`bmode::ModeSchedule`] against a running
//! [`crate::Runtime`].
//!
//! For each scheduled [`bmode::ModeEvent`] the scheduler thread
//!
//! 1. takes a **snapshot** of the engine (a cheap clone — programs and
//!    contents are `Arc`-shared),
//! 2. runs the expensive design half, [`crate::Engine::prepare`], on its
//!    own thread — the serving loop keeps transmitting, un-stalled,
//! 3. hands the prepared mode to the serving loop, which installs it with
//!    [`crate::Engine::swap`] exactly when the slot clock reaches the
//!    event's planned slot (or immediately, if it is already past).
//!
//! Events are executed strictly in order: the next preparation starts only
//! after the previous swap applied, so each snapshot reflects every earlier
//! transition and stale preparations cannot occur under a single scheduler.

use crate::engine::Engine;
use crate::runtime::{RuntimeController, RuntimeError};
use bmode::{ModeEvent, ModeSchedule};
use std::thread::JoinHandle;

/// What happened to one scheduled mode-change event.
#[derive(Debug)]
pub struct ScheduleOutcome<R> {
    /// The slot the event was planned for.
    pub planned_slot: usize,
    /// The target mode's name.
    pub mode: String,
    /// The engine's swap report, or why the event could not be executed
    /// (preparation or swap failure, rendered via `Display`).
    pub result: Result<R, String>,
}

impl<R> ScheduleOutcome<R> {
    /// `true` when the event's swap was applied.
    pub fn applied(&self) -> bool {
        self.result.is_ok()
    }
}

/// A handle to a running schedule-playback thread.
#[derive(Debug)]
pub struct SwapScheduler<R> {
    task: JoinHandle<Vec<ScheduleOutcome<R>>>,
}

impl<R> SwapScheduler<R> {
    /// `true` once every event has been executed (or failed).
    pub fn is_finished(&self) -> bool {
        self.task.is_finished()
    }

    /// Waits for the schedule to finish and returns one outcome per event,
    /// in schedule order.
    pub fn join(self) -> Vec<ScheduleOutcome<R>> {
        self.task.join().expect("swap scheduler thread panicked")
    }
}

/// Spawns a scheduler thread playing `schedule` against the runtime behind
/// `controller`.
pub fn run_schedule<E: Engine>(
    controller: RuntimeController<E>,
    schedule: ModeSchedule,
) -> SwapScheduler<E::Report> {
    let task = std::thread::Builder::new()
        .name("brt-swap-scheduler".to_string())
        .spawn(move || {
            let mut outcomes = Vec::with_capacity(schedule.len());
            for event in schedule.events() {
                let result = execute(&controller, event);
                outcomes.push(ScheduleOutcome {
                    planned_slot: event.at_slot,
                    mode: event.mode.name().to_string(),
                    result,
                });
            }
            outcomes
        })
        .expect("the swap scheduler thread spawns");
    SwapScheduler { task }
}

fn execute<E: Engine>(
    controller: &RuntimeController<E>,
    event: &ModeEvent,
) -> Result<E::Report, String> {
    let snapshot = controller.snapshot().map_err(display_of)?;
    let prepared = snapshot.prepare(&event.mode).map_err(|e| e.to_string())?;
    controller
        .swap_at(prepared, event.at_slot, event.policy)
        .map_err(display_of)
}

fn display_of<EE: core::fmt::Display>(error: RuntimeError<EE>) -> String {
    error.to_string()
}
