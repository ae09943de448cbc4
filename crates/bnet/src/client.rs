//! Socket clients: the self-healing UDP listener and the TCP control
//! client.
//!
//! [`NetClient::retrieve`] is a *supervised* session loop, not a bare
//! receive loop.  The failure modes of a real broadcast medium each have a
//! recovery path:
//!
//! * a lost `Join` (or an eviction from the membership table — server
//!   restart, peer-table wipe) starves the client silently; the loop
//!   re-sends `Join` with exponential backoff plus deterministic jitter
//!   whenever no datagram arrived within the retry window;
//! * a partition is suspected when the liveness watchdog sees no datagram
//!   for [`RecoveryConfig::watchdog`]; the loop then runs a full *recovery
//!   round*;
//! * a mode swap the client missed entirely shows up as a newer epoch on
//!   the wire ([`ClientState::stale_epoch`]) — the same recovery round
//!   re-tunes it.
//!
//! A recovery round re-sends `Join` and, when a control plane is
//! configured, runs `Resync` → `Subscribe` over TCP and applies the answer
//! with [`ClientState::resubscribe`] — keeping already-verified blocks
//! only when `(m, n)` and the commitment root are unchanged.  Rounds are
//! bounded by [`RecoveryConfig::max_recoveries`]; a retrieval that still
//! fails after recovering carries the context as [`NetError::Rejoined`].

use crate::error::NetError;
use crate::session::{ClientState, ClientStats};
use crate::wire::{encode, ControlFrame, Frame, MetricsFormat, SubscriptionInfo};
use bdisk::RetrievalOutcome;
use ida::FileId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::ErrorKind;
use std::net::{IpAddr, SocketAddr, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

/// Bound on establishing, reading and writing one [`ControlClient`]
/// connection.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(2);

/// Fraction of the join backoff added as deterministic jitter, so a fleet
/// rejoining after an outage does not stampede in lockstep.
const JOIN_JITTER: f64 = 0.25;

/// Tunables of the self-healing retrieval loop.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Initial `Join` re-send interval; doubles (plus jitter) per silent
    /// re-send, up to [`RecoveryConfig::max_backoff`].
    pub join_backoff: Duration,
    /// Ceiling of the join backoff.
    pub max_backoff: Duration,
    /// Silence longer than this ⇒ suspect a partition and run a recovery
    /// round.
    pub watchdog: Duration,
    /// Most recovery rounds before the retrieval degrades to
    /// [`NetError::Rejoined`].
    pub max_recoveries: u64,
    /// The station's TCP control plane; `None` limits recovery rounds to
    /// re-joining (no epoch resync).
    pub control: Option<SocketAddr>,
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            join_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(2),
            watchdog: Duration::from_secs(1),
            max_recoveries: 8,
            control: None,
            seed: 0x0BF4,
        }
    }
}

impl RecoveryConfig {
    /// Points recovery rounds at the station's TCP control plane.
    pub fn with_control(mut self, addr: SocketAddr) -> Self {
        self.control = Some(addr);
        self
    }
}

/// A passive UDP listener retrieving one file from a broadcasting station.
///
/// The client joins the station's fan-out set, then simply listens:
/// dispersal parameters come from block headers, losses and corruption
/// become erasures (see [`ClientState`]), and any `m` distinct blocks
/// reconstruct the file — the paper's client, over a real socket, wrapped
/// in the supervision loop described at the module level.
pub struct NetClient {
    socket: UdpSocket,
    server: SocketAddr,
    state: ClientState,
    config: RecoveryConfig,
    recoveries: u64,
}

impl NetClient {
    /// Binds an ephemeral socket and sends a `Join` to the station's data
    /// address, with the default [`RecoveryConfig`].
    pub fn join(server: SocketAddr, file: FileId) -> Result<Self, NetError> {
        NetClient::join_with(server, file, RecoveryConfig::default())
    }

    /// [`NetClient::join`] with explicit recovery tunables.
    pub fn join_with(
        server: SocketAddr,
        file: FileId,
        config: RecoveryConfig,
    ) -> Result<Self, NetError> {
        let bind_ip: IpAddr = match server {
            SocketAddr::V4(_) => "0.0.0.0".parse().expect("valid literal"),
            SocketAddr::V6(_) => "::".parse().expect("valid literal"),
        };
        let socket = UdpSocket::bind(SocketAddr::new(bind_ip, 0))?;
        socket.set_read_timeout(Some(Duration::from_millis(25)))?;
        socket.send_to(&encode(&Frame::Control(ControlFrame::Join)), server)?;
        let mut state = ClientState::new(file);
        // Authenticated stations publish each file's commitment root in
        // the control plane's subscribe ack: fetch it up front (best
        // effort — the UDP path needs no control plane to work) so
        // verify-on-receive is armed from the first datagram, not only
        // after a recovery round.
        if let Some(control) = config.control {
            if let Ok(mut cc) = ControlClient::connect(control) {
                if let Ok(info) = cc.subscribe(file) {
                    state.feed_frame(Frame::Control(ControlFrame::SubscribeAck { file, info }));
                }
            }
        }
        Ok(NetClient {
            socket,
            server,
            state,
            config,
            recoveries: 0,
        })
    }

    /// The client's local socket address.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.socket.local_addr()?)
    }

    /// The retrieval state machine (stats, progress).
    pub fn state(&self) -> &ClientState {
        &self.state
    }

    /// Listens until the retrieval completes, recovering from lost joins,
    /// evictions, partitions and missed epochs along the way, then leaves
    /// the fan-out set and reconstructs the file.
    ///
    /// `timeout` bounds the whole retrieval; hitting it surfaces as
    /// [`NetError::Incomplete`] / [`NetError::NoSignal`] describing how far
    /// the retrieval got.  A failure after ≥ 1 recovery round is wrapped
    /// in [`NetError::Rejoined`].
    pub fn retrieve(self, timeout: Duration) -> Result<RetrievalOutcome, NetError> {
        self.retrieve_with_stats(timeout).0
    }

    /// [`NetClient::retrieve`] additionally returning the final
    /// [`ClientStats`] (the retrieve call consumes the client, so the
    /// counters would otherwise be lost with it).
    pub fn retrieve_with_stats(
        mut self,
        timeout: Duration,
    ) -> (Result<RetrievalOutcome, NetError>, ClientStats) {
        let result = self.run(timeout);
        let _ = self
            .socket
            .send_to(&encode(&Frame::Control(ControlFrame::Leave)), self.server);
        let stats = self.state.stats();
        let result = result.map_err(|cause| match self.recoveries {
            0 => cause,
            attempts => NetError::Rejoined {
                attempts,
                cause: Box::new(cause),
            },
        });
        (result, stats)
    }

    fn run(&mut self, timeout: Duration) -> Result<RetrievalOutcome, NetError> {
        let deadline = Instant::now() + timeout;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut backoff = self.config.join_backoff;
        let mut last_rx = Instant::now();
        let mut last_join = Instant::now();
        let mut suspected = false;
        let mut buf = vec![0u8; 65_536];
        while !self.state.is_complete() {
            if Instant::now() >= deadline {
                break;
            }
            match self.socket.recv_from(&mut buf) {
                Ok((len, _)) => {
                    self.state.feed_datagram(&buf[..len]);
                    last_rx = Instant::now();
                    suspected = false;
                    backoff = self.config.join_backoff;
                    if self.state.stale_epoch().is_some() {
                        // Live traffic under a newer epoch: the swap was
                        // missed — resync instead of listening to a
                        // program that may no longer carry the file.
                        if !self.recover() {
                            break;
                        }
                        last_rx = Instant::now();
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    let idle = last_rx.elapsed();
                    if idle >= self.config.watchdog {
                        if !suspected {
                            suspected = true;
                            self.state.note_partition_suspect();
                        }
                        if !self.recover() {
                            break;
                        }
                        // Re-arm the watchdog: give the recovery a full
                        // period to bear fruit before the next round.
                        last_rx = Instant::now();
                        last_join = Instant::now();
                        backoff = self.config.join_backoff;
                    } else if idle >= backoff && last_join.elapsed() >= backoff {
                        // No datagram within the retry window: the join
                        // (or our membership) may be gone — whether or not
                        // traffic ever arrived before.
                        self.send_join()?;
                        last_join = Instant::now();
                        let jitter = backoff.mul_f64(JOIN_JITTER * rng.gen::<f64>());
                        backoff = (backoff.saturating_mul(2) + jitter).min(self.config.max_backoff);
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.state.finish()
    }

    /// One bounded recovery round: re-join and, with a control plane,
    /// resync + resubscribe.  Returns `false` once the round budget is
    /// spent — the caller gives up and degrades.
    fn recover(&mut self) -> bool {
        if self.recoveries >= self.config.max_recoveries {
            return false;
        }
        self.recoveries += 1;
        if let Some(control) = self.config.control {
            let round = ControlClient::connect(control).and_then(|mut client| {
                let (_, next_slot) = client.resync()?;
                let info = client.subscribe(self.state.file())?;
                Ok((next_slot, info))
            });
            if let Ok((next_slot, info)) = round {
                self.state.resubscribe(info, next_slot);
            }
            // A failed control round is not fatal: the partition may still
            // be on — the next watchdog period retries.
        }
        // Always re-join: the membership table may have been wiped, and on
        // a lossy medium a duplicate join is free.
        let _ = self
            .socket
            .send_to(&encode(&Frame::Control(ControlFrame::Join)), self.server);
        self.state.note_rejoin();
        true
    }

    fn send_join(&mut self) -> Result<(), NetError> {
        self.socket
            .send_to(&encode(&Frame::Control(ControlFrame::Join)), self.server)?;
        self.state.note_rejoin();
        Ok(())
    }
}

/// A reliable (TCP) control-plane client: subscriptions and resyncs.
pub struct ControlClient {
    stream: TcpStream,
}

/// Surfaces a socket timeout as the named [`NetError::Timeout`] instead of
/// a raw io error.
fn named_timeout(err: NetError, during: &'static str) -> NetError {
    match err {
        NetError::Io(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            NetError::Timeout { during }
        }
        other => other,
    }
}

impl ControlClient {
    /// Connects to a station's control plane.  Connecting, and every read
    /// and write after it, is bounded by 2 s; a timeout surfaces as
    /// [`NetError::Timeout`], never as a raw io error.
    pub fn connect(addr: SocketAddr) -> Result<Self, NetError> {
        let stream = TcpStream::connect_timeout(&addr, CONTROL_TIMEOUT)
            .map_err(|e| named_timeout(e.into(), "control connect"))?;
        stream.set_read_timeout(Some(CONTROL_TIMEOUT))?;
        stream.set_write_timeout(Some(CONTROL_TIMEOUT))?;
        Ok(ControlClient { stream })
    }

    /// Asks where `file` is served.
    pub fn subscribe(&mut self, file: FileId) -> Result<SubscriptionInfo, NetError> {
        crate::server::write_control_frame(&mut self.stream, &ControlFrame::Subscribe { file })
            .map_err(|e| named_timeout(e, "subscribe request"))?;
        match crate::server::read_control_frame(&mut self.stream)
            .map_err(|e| named_timeout(e, "subscribe reply"))?
        {
            Some(ControlFrame::SubscribeAck { file: acked, info }) if acked == file => Ok(info),
            Some(ControlFrame::SubscribeNak { reason, .. }) => {
                Err(NetError::Refused { file, reason })
            }
            Some(_) => Err(NetError::Protocol("unexpected subscribe reply")),
            None => Err(NetError::Protocol("control connection closed")),
        }
    }

    /// Asks for the station's slot counter: `(epoch, next_slot)`.
    pub fn resync(&mut self) -> Result<(u64, u64), NetError> {
        crate::server::write_control_frame(&mut self.stream, &ControlFrame::ResyncRequest)
            .map_err(|e| named_timeout(e, "resync request"))?;
        match crate::server::read_control_frame(&mut self.stream)
            .map_err(|e| named_timeout(e, "resync reply"))?
        {
            Some(ControlFrame::Resync { epoch, next_slot }) => Ok((epoch, next_slot)),
            Some(_) => Err(NetError::Protocol("unexpected resync reply")),
            None => Err(NetError::Protocol("control connection closed")),
        }
    }

    /// Scrapes the station's telemetry registry, rendered in `format`.
    /// The reply must echo the requested format.
    pub fn metrics(&mut self, format: MetricsFormat) -> Result<String, NetError> {
        crate::server::write_control_frame(
            &mut self.stream,
            &ControlFrame::MetricsRequest { format },
        )
        .map_err(|e| named_timeout(e, "metrics request"))?;
        match crate::server::read_control_frame(&mut self.stream)
            .map_err(|e| named_timeout(e, "metrics reply"))?
        {
            Some(ControlFrame::Metrics {
                format: got, body, ..
            }) if got == format => Ok(body),
            Some(_) => Err(NetError::Protocol("unexpected metrics reply")),
            None => Err(NetError::Protocol("control connection closed")),
        }
    }
}
