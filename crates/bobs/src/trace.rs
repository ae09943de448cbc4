//! The bounded typed event-trace ring.
//!
//! Events are recorded from the serving thread (and the sinks it drives),
//! so the trace order is the serving order.  Events carry slot and
//! subscription numbers — never wall-clock timestamps — which is what
//! makes a `ManualClock` run's trace byte-for-byte reproducible: two
//! identical runs record identical event sequences.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One traced occurrence inside the serving stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// The serving loop published a slot cell to the broadcast ring.
    SlotPublished {
        /// The slot number.
        slot: u64,
        /// Lanes carrying a block this slot.
        lanes: u32,
    },
    /// A run of slots was skipped unobserved (no subscribers, no sinks).
    SlotsSkipped {
        /// First slot of the skipped run.
        from_slot: u64,
        /// Number of slots skipped.
        slots: u64,
    },
    /// A prepared mode swap was accepted and scheduled.
    SwapPrepared {
        /// The slot the swap is scheduled to land at.
        at_slot: u64,
    },
    /// A scheduled swap landed: the engine flipped programs.
    SwapLanded {
        /// The slot the swap landed at.
        at_slot: u64,
    },
    /// A subscriber joined the fleet.
    SubscriberAdmitted {
        /// The subscription id.
        id: u64,
        /// The subscribed file.
        file: u64,
    },
    /// A subscriber's cursor was overwritten: it lagged the ring.
    SubscriberLagged {
        /// The subscription id.
        id: u64,
        /// First missed slot.
        from_slot: u64,
        /// One past the last missed slot.
        to_slot: u64,
    },
    /// A subscription resolved (completed or cancelled).
    SubscriberResolved {
        /// The subscription id.
        id: u64,
        /// `true` when the resolution was a cancellation.
        cancelled: bool,
    },
    /// A sink sent a slot's frames to its peers.
    FrameSent {
        /// The slot whose frames went out.
        slot: u64,
        /// Peers the frames were addressed to.
        peers: u64,
    },
    /// A sink failed to send a frame (counted, never retried).
    FrameDropped {
        /// The slot whose frame was dropped.
        slot: u64,
    },
}

#[derive(Debug, Default)]
struct RingInner {
    events: VecDeque<Event>,
    dropped: u64,
}

/// A bounded ring of [`Event`]s: pushing beyond capacity drops the oldest
/// event and counts it, so a long-running station keeps the trace tail.
#[derive(Debug)]
pub struct EventRing {
    inner: Mutex<RingInner>,
    capacity: usize,
}

impl EventRing {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(RingInner::default()),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&self, event: Event) {
        let mut inner = self.inner.lock().expect("trace poisoned");
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace poisoned").dropped
    }

    /// A copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("trace poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Drops every retained event (the eviction counter keeps counting).
    pub fn clear(&self) {
        self.inner.lock().expect("trace poisoned").events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_tail_and_counts_evictions() {
        let ring = EventRing::new(2);
        for slot in 0..5u64 {
            ring.push(Event::SlotPublished { slot, lanes: 1 });
        }
        assert_eq!(ring.dropped(), 3);
        assert_eq!(
            ring.snapshot(),
            vec![
                Event::SlotPublished { slot: 3, lanes: 1 },
                Event::SlotPublished { slot: 4, lanes: 1 },
            ]
        );
        ring.clear();
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.dropped(), 3);
    }
}
