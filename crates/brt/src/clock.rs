//! Slot clocks: what tells the serving thread that the next slot is due.
//!
//! The paper's model is a server that emits exactly one block per channel
//! per *slot*, forever.  A [`SlotClock`] turns that abstract slot time into
//! something a thread can wait on, with one of two clocks:
//!
//! * [`WallClock`] — real pacing: slot `t` becomes due at
//!   `origin + t × period`.  This is what a deployed station runs on.
//! * [`ManualClock`] — test/CI pacing: no slot is ever due until the test
//!   calls [`ManualClock::advance`], which releases a batch of slots and
//!   wakes the server.  Deterministic and as fast as the machine allows.
//!
//! Both clocks are cheap `Arc`-backed handles: clone one, hand a clone to
//! the runtime, keep the other to drive or close it.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a clock's `poll` says about a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClockPoll {
    /// The slot is due, and so are the slots after it up to this many in
    /// all (at least 1): one query sizes a whole serving burst.
    Ready(usize),
    /// The slot is not due yet; if `Some`, a hint for how long until it is
    /// (wall clocks know, manual clocks do not).
    NotYet(Option<Duration>),
    /// The clock was closed; the serving loop should exit.
    Closed,
}

/// The source of slot time for the serving thread: a [`WallClock`] or a
/// [`ManualClock`], each converting into it.
///
/// The runtime polls the clock once per loop iteration and parks on a wake
/// signal while a slot is not due; both clocks wake every registered
/// waker whenever their answer may have changed (an advance, a close).
#[derive(Debug, Clone)]
pub enum SlotClock {
    /// Real pacing.
    Wall(WallClock),
    /// Hand-cranked pacing.
    Manual(ManualClock),
}

impl From<WallClock> for SlotClock {
    fn from(clock: WallClock) -> Self {
        SlotClock::Wall(clock)
    }
}

impl From<ManualClock> for SlotClock {
    fn from(clock: ManualClock) -> Self {
        SlotClock::Manual(clock)
    }
}

impl SlotClock {
    /// Is `slot` due (and how many from it), not yet due, or is the clock
    /// closed?
    pub(crate) fn poll(&self, slot: usize) -> ClockPoll {
        match self {
            SlotClock::Wall(clock) => clock.poll(slot),
            SlotClock::Manual(clock) => clock.poll(slot),
        }
    }

    /// The signed lateness of serving `slot` *right now*, in nanoseconds:
    /// positive when the slot's due-time has already passed (a late
    /// publish), negative when it is being served ahead of its deadline.
    ///
    /// `None` for a [`ManualClock`], which has no wall-time deadlines.
    /// Telemetry gates every wall-clock quantity (lateness, serving-phase
    /// timings) on this returning `Some`, so a manually-cranked run never
    /// records a nondeterministic value: two identical `ManualClock` runs
    /// produce identical traces and histogram bucket counts.
    pub(crate) fn slot_lateness(&self, slot: usize) -> Option<i64> {
        match self {
            SlotClock::Wall(clock) => Some(clock.slot_lateness(slot)),
            SlotClock::Manual(_) => None,
        }
    }

    fn state(&self) -> &Mutex<ClockState> {
        match self {
            SlotClock::Wall(clock) => &clock.state,
            SlotClock::Manual(clock) => &clock.state,
        }
    }

    /// Registers a waker to be notified whenever the clock's state changes.
    pub(crate) fn register_waker(&self, waker: Arc<WakeSignal>) {
        self.state().lock().expect("clock lock").wakers.push(waker);
    }

    /// Closes the clock: every current and future `poll` returns
    /// [`ClockPoll::Closed`] and all registered wakers are woken.
    pub(crate) fn close(&self) {
        let mut state = self.state().lock().expect("clock lock");
        state.closed = true;
        state.wake_all();
    }
}

/// What a clock's clones share.
#[derive(Debug, Default)]
struct ClockState {
    /// Slots `0..released` are due on a [`ManualClock`] (a [`WallClock`]'s
    /// follow from its origin).
    released: usize,
    closed: bool,
    wakers: Vec<Arc<WakeSignal>>,
}

impl ClockState {
    fn wake_all(&self) {
        for waker in &self.wakers {
            waker.wake();
        }
    }
}

/// A parkable wake-up flag: the serving thread waits on it between slots;
/// clocks poke it, and so does a newly queued future-dated swap.  (A tiny
/// hand-rolled event — the runtime is std-only by design.)
#[derive(Debug, Default)]
pub(crate) struct WakeSignal {
    poked: Mutex<bool>,
    condvar: Condvar,
}

impl WakeSignal {
    /// A fresh, un-poked signal.
    pub(crate) fn new() -> Self {
        WakeSignal::default()
    }

    /// Pokes the signal, waking a parked waiter (or making the next wait
    /// return immediately — pokes are never lost).
    pub(crate) fn wake(&self) {
        let mut poked = self.poked.lock().expect("wake signal lock");
        *poked = true;
        self.condvar.notify_all();
    }

    /// Parks for at most `timeout`, returning early if poked.  Consumes the
    /// poke.
    pub(crate) fn wait_timeout(&self, timeout: Duration) {
        let mut poked = self.poked.lock().expect("wake signal lock");
        if !*poked {
            let (guard, _) = self
                .condvar
                .wait_timeout(poked, timeout)
                .expect("wake signal lock");
            poked = guard;
        }
        *poked = false;
    }
}

/// Real slot pacing: slot `t` is due at `origin + t × period`.
///
/// The origin is captured when the clock is created, so create it right
/// before [`crate::Runtime::spawn`].  Clones share the same origin and
/// closed state.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
    period: Duration,
    state: Arc<Mutex<ClockState>>,
}

impl WallClock {
    /// A wall clock emitting one slot every `period` (clamped to at least
    /// one microsecond so a zero period cannot busy-spin the server).
    pub fn new(period: Duration) -> Self {
        WallClock {
            origin: Instant::now(),
            period: period.max(Duration::from_micros(1)),
            state: Arc::default(),
        }
    }

    /// The configured slot period.
    pub fn period(&self) -> Duration {
        self.period
    }

    /// When `slot` is due.
    fn due(&self, slot: usize) -> Instant {
        // Widen before multiplying: a `* slot as u32` would wrap after 2³²
        // slots (~50 days at 1 ms) and let the server free-run unpaced.
        // Saturating at u64 nanoseconds only kicks in ~584 years out.
        let nanos = self.period.as_nanos().saturating_mul(slot as u128);
        self.origin + Duration::from_nanos(nanos.min(u64::MAX as u128) as u64)
    }

    fn poll(&self, slot: usize) -> ClockPoll {
        if self.state.lock().expect("clock lock").closed {
            return ClockPoll::Closed;
        }
        let (due, now) = (self.due(slot), Instant::now());
        if now < due {
            return ClockPoll::NotYet(Some(due - now));
        }
        // Slot `t` is due once `elapsed >= t × period`, so the frontier is
        // `floor(elapsed / period) + 1` due slots.
        let elapsed = now - self.origin;
        let frontier = (elapsed.as_nanos() / self.period.as_nanos()) as usize + 1;
        ClockPoll::Ready(frontier.saturating_sub(slot).max(1))
    }

    fn slot_lateness(&self, slot: usize) -> i64 {
        let (due, now) = (self.due(slot), Instant::now());
        let signed = |d: Duration| d.as_nanos().min(i64::MAX as u128) as i64;
        if now >= due {
            signed(now - due)
        } else {
            -signed(due - now)
        }
    }
}

/// A hand-cranked slot clock for deterministic tests and CI.
///
/// Freshly created, *no* slot is due: the server parks immediately (calls
/// such as subscribe or a past-due swap still land while it is parked, on
/// their callers' threads).  Each [`ManualClock::advance`] releases the
/// next `n` slots.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    state: Arc<Mutex<ClockState>>,
}

impl ManualClock {
    /// A clock with no slots released yet.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Releases the next `n` slots and wakes the server.
    pub fn advance(&self, n: usize) {
        let mut state = self.state.lock().expect("clock lock");
        state.released = state.released.saturating_add(n);
        state.wake_all();
    }

    /// How many slots have been released so far (the first unreleased slot).
    pub fn released(&self) -> usize {
        self.state.lock().expect("clock lock").released
    }

    fn poll(&self, slot: usize) -> ClockPoll {
        let state = self.state.lock().expect("clock lock");
        if state.closed {
            ClockPoll::Closed
        } else if slot < state.released {
            ClockPoll::Ready(state.released - slot)
        } else {
            ClockPoll::NotYet(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_releases_slots_in_batches() {
        let clock = ManualClock::new();
        assert_eq!(clock.poll(0), ClockPoll::NotYet(None));
        clock.advance(2);
        assert_eq!(clock.poll(0), ClockPoll::Ready(2));
        assert_eq!(clock.poll(1), ClockPoll::Ready(1));
        assert_eq!(clock.poll(2), ClockPoll::NotYet(None));
        assert_eq!(clock.released(), 2);
        SlotClock::from(clock.clone()).close();
        assert_eq!(clock.poll(0), ClockPoll::Closed);
    }

    #[test]
    fn manual_clock_clones_share_state() {
        let clock = ManualClock::new();
        let handle = clock.clone();
        handle.advance(5);
        assert_eq!(clock.poll(4), ClockPoll::Ready(1));
    }

    #[test]
    fn wall_clock_paces_slots() {
        let clock = WallClock::new(Duration::from_millis(5));
        assert!(matches!(clock.poll(0), ClockPoll::Ready(n) if n >= 1));
        match clock.poll(1000) {
            ClockPoll::NotYet(Some(d)) => assert!(d <= Duration::from_secs(5)),
            other => panic!("slot 1000 should not be due yet, got {other:?}"),
        }
        SlotClock::from(clock.clone()).close();
        assert_eq!(clock.poll(0), ClockPoll::Closed);
    }

    #[test]
    fn lateness_is_signed_and_manual_clocks_have_none() {
        let clock = WallClock::new(Duration::from_millis(50));
        // Slot 0 was due at the origin: by now we are (non-negatively) late.
        assert!(clock.slot_lateness(0) >= 0);
        // Slot 1000 is due ~50 s out: serving it now would be very early.
        assert!(clock.slot_lateness(1000) < 0);
        // Manual clocks have no deadlines — nothing wall-timed may record.
        assert_eq!(SlotClock::from(ManualClock::new()).slot_lateness(0), None);
    }

    #[test]
    fn wake_signal_pokes_are_not_lost() {
        let signal = WakeSignal::new();
        signal.wake();
        let start = Instant::now();
        signal.wait_timeout(Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn closing_wakes_registered_wakers() {
        let clock = SlotClock::from(ManualClock::new());
        let waker = Arc::new(WakeSignal::new());
        clock.register_waker(waker.clone());
        let t = std::thread::spawn({
            let waker = waker.clone();
            move || waker.wait_timeout(Duration::from_secs(10))
        });
        // Give the waiter a moment to park, then close.
        std::thread::sleep(Duration::from_millis(10));
        let start = Instant::now();
        clock.close();
        t.join().unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
