//! Credit pacing of a `ManualClock` station by its own listener.
//!
//! A `ManualClock` server transmits released slots as fast as it can, and
//! std cannot raise a UDP socket's receive buffer: at the default
//! `rmem_default` of 208 KiB the kernel holds only about ninety MTU-size
//! datagrams (it charges each one its buffer's true size, ≈ 2.3 KiB for a
//! 1400-byte payload) and silently drops the rest.  The listener therefore
//! releases slots itself, and only while everything that could still arrive
//! fits a fixed datagram budget well below that.  Nothing overflows, so the
//! slot sequence — and every slot-count metric — replays exactly from the
//! seed, yet the pipeline stays work-conserving: a slot is always in flight
//! while there is room for its datagrams.

/// The most datagrams allowed unread in, or on their way to, the listener's
/// socket buffer.  Sixty-four MTU-size datagrams are ≈ 150 KiB of true size,
/// leaving a quarter of the default buffer spare.
pub const DATAGRAM_BUDGET: u64 = 64;

/// Decides how many more slots the listener may release.
#[derive(Debug, Clone, Copy)]
pub struct CreditPacer {
    budget: u64,
    per_slot: u64,
}

impl CreditPacer {
    /// `per_slot` is the most datagrams one slot can put on the wire
    /// (fragments per frame × live channels).
    pub fn new(budget: u64, per_slot: u64) -> Self {
        let per_slot = per_slot.max(1);
        CreditPacer {
            // A budget below one slot's worth could never release anything.
            budget: budget.max(per_slot),
            per_slot,
        }
    }

    /// Slots that may be released now.
    ///
    /// * `released` — slots released to the clock so far;
    /// * `served` — slots the server has *finished* (every datagram of a
    ///   finished slot is already counted in `sent`), read before `sent`;
    /// * `sent` — datagrams the server handed to its socket;
    /// * `received` — datagrams the listener took off its socket.
    ///
    /// `sent - received` datagrams sit in the buffer and each of the
    /// `released - served` unfinished slots can add `per_slot` more, so
    /// granting `g` slots keeps the worst case at
    /// `unread + (in_flight + g) · per_slot ≤ budget`.  Idle slots add
    /// nothing to `sent`, advance `served`, and so hand their credit back:
    /// a run of idle slots can never stall the pacer.
    pub fn grant(&self, released: u64, served: u64, sent: u64, received: u64) -> u64 {
        let in_flight = released.saturating_sub(served);
        let unread = sent.saturating_sub(received);
        let committed = unread + in_flight * self.per_slot;
        self.budget.saturating_sub(committed) / self.per_slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A fake station: serves released slots one datagram at a time; an idle
    /// slot sends nothing.  `served` only moves once a slot's last datagram
    /// is out, like the real ring tail.
    struct FakeServer {
        released: u64,
        served: u64,
        sent: u64,
        progress_in_slot: u64,
        idle: Box<dyn Fn(u64) -> bool>,
        per_slot: u64,
    }

    impl FakeServer {
        /// Performs one unit of server work, if any is released.
        fn step(&mut self) {
            if self.served == self.released {
                return;
            }
            if (self.idle)(self.served) {
                self.served += 1;
                return;
            }
            self.sent += 1;
            self.progress_in_slot += 1;
            if self.progress_in_slot == self.per_slot {
                self.progress_in_slot = 0;
                self.served += 1;
            }
        }
    }

    fn run(per_slot: u64, idle: Box<dyn Fn(u64) -> bool>, seed: u64) -> (u64, u64) {
        let pacer = CreditPacer::new(DATAGRAM_BUDGET, per_slot);
        let mut server = FakeServer {
            released: 0,
            served: 0,
            sent: 0,
            progress_in_slot: 0,
            idle,
            per_slot,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut received = 0u64;
        let mut max_unread = 0u64;
        for _ in 0..200_000 {
            // Interleave listener and server at random, with stale reads:
            // the listener samples `served` before `sent`, and the server
            // may run in between.
            let served = server.served;
            for _ in 0..rng.gen_range(0..4u32) {
                server.step();
            }
            let sent = server.sent;
            server.released += pacer.grant(server.released, served, sent, received);
            for _ in 0..rng.gen_range(0..6u32) {
                server.step();
                max_unread = max_unread.max(server.sent - received);
            }
            for _ in 0..rng.gen_range(0..3u32) {
                if received < server.sent {
                    received += 1;
                }
            }
        }
        (max_unread, server.served)
    }

    #[test]
    fn never_exceeds_its_datagram_budget() {
        for per_slot in [1, 12, 13, 64] {
            for seed in 0..4 {
                let (max_unread, served) = run(per_slot, Box::new(|_| false), seed);
                assert!(
                    max_unread <= DATAGRAM_BUDGET,
                    "per_slot {per_slot}: {max_unread} unread"
                );
                assert!(
                    served > 1000,
                    "per_slot {per_slot}: only {served} slots served"
                );
            }
        }
    }

    #[test]
    fn never_deadlocks_across_idle_slots() {
        // Two of every three slots idle, then a long dark stretch.
        let sparse = |slot: u64| !slot.is_multiple_of(3) || (5_000..9_000).contains(&slot);
        let (max_unread, served) = run(12, Box::new(sparse), 7);
        assert!(max_unread <= DATAGRAM_BUDGET);
        assert!(served > 9_000, "stalled at slot {served}");
        // Nothing but idle slots still advances.
        let (_, served) = run(12, Box::new(|_| true), 8);
        assert!(served > 10_000);
    }

    #[test]
    fn an_empty_pipeline_always_gets_credit_and_a_full_one_none() {
        let pacer = CreditPacer::new(DATAGRAM_BUDGET, 12);
        assert_eq!(pacer.grant(0, 0, 0, 0), 5);
        assert_eq!(pacer.grant(5, 0, 0, 0), 0);
        assert_eq!(pacer.grant(5, 5, 60, 0), 0);
        assert_eq!(pacer.grant(5, 5, 60, 60), 5);
        // An oversized slot still gets its one slot of credit.
        assert_eq!(CreditPacer::new(8, 100).grant(3, 3, 300, 300), 1);
    }
}
