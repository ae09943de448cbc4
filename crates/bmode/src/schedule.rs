//! Timed mode changes: a slot-ordered list of swaps to play against a
//! station.
//!
//! A [`ModeSchedule`] is pure data — [`ModeEvent`]s in slot order — so any
//! driver (the `brt` swap scheduler on a running station, the experiment
//! harness, a test) can play it against its own client fleet.

use crate::{ModeSpec, SwapPolicy};

/// One timed mode-change event: at `at_slot`, swap to `mode` under `policy`.
#[derive(Debug, Clone)]
pub struct ModeEvent {
    /// The slot at which the swap is requested.
    pub at_slot: usize,
    /// The target mode.
    pub mode: ModeSpec,
    /// How in-flight retrievals of affected files are treated.
    pub policy: SwapPolicy,
}

/// A slot-ordered schedule of mode-change events.
#[derive(Debug, Clone, Default)]
pub struct ModeSchedule {
    events: Vec<ModeEvent>,
}

impl ModeSchedule {
    /// An empty schedule (no mode ever changes).
    pub fn new() -> Self {
        ModeSchedule::default()
    }

    /// Adds a mode-change event; events are kept sorted by slot (stable for
    /// equal slots, so a later-added event at the same slot runs last).
    pub fn at(mut self, at_slot: usize, mode: ModeSpec, policy: SwapPolicy) -> Self {
        let index = self
            .events
            .iter()
            .position(|e| e.at_slot > at_slot)
            .unwrap_or(self.events.len());
        self.events.insert(
            index,
            ModeEvent {
                at_slot,
                mode,
                policy,
            },
        );
        self
    }

    /// The events, in slot order.
    pub fn events(&self) -> &[ModeEvent] {
        &self.events
    }

    /// Number of scheduled mode changes.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no mode change is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcore::GeneralizedFileSpec;
    use ida::FileId;

    fn mode(name: &str) -> ModeSpec {
        ModeSpec::new(name).file(GeneralizedFileSpec::new(FileId(1), 1, vec![8]).unwrap())
    }

    #[test]
    fn events_are_kept_in_slot_order() {
        let schedule = ModeSchedule::new()
            .at(300, mode("c"), SwapPolicy::Drain)
            .at(100, mode("a"), SwapPolicy::Immediate)
            .at(200, mode("b"), SwapPolicy::Immediate);
        let slots: Vec<usize> = schedule.events().iter().map(|e| e.at_slot).collect();
        assert_eq!(slots, vec![100, 200, 300]);
        assert_eq!(schedule.len(), 3);
        assert!(!schedule.is_empty());
    }
}
