//! `wire_bulk_auth` and `wire_small_plain`: a `ManualClock` station on
//! loopback UDP, one persistent listener feeding `bnet::ClientState` in a
//! closed loop, credit-paced by the listener itself (see [`crate::pacer`]).

use super::{
    ms, network_counts, timed_build, ClientTotals, Deployed, Kind, RefreshTimes, Refresher,
    SetupTimes, Teardown, RETRIEVAL_TIMEOUT,
};
use crate::gen::{self, Catalog, Requests, Shape, Stream};
use crate::pacer::{CreditPacer, DATAGRAM_BUDGET};
use crate::record::Recorder;
use crate::trace::{NameId, Tracer, NO_PARENT};
use rtbdisk::bfault::{Impairer, Impairments};
use rtbdisk::bnet::wire::{self, ControlFrame, Frame, Packet, SlotFrame};
use rtbdisk::bnet::{ClientState, SubscriptionInfo};
use rtbdisk::bobs::Counter;
use rtbdisk::{ControlClient, FileId, ManualClock, NetConfig, NetServing, RuntimeConfig, Station};
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Maps the n-th received datagram to the slot and file whose frame it
/// belongs to.  Every frame of a workload fragments into the same number of
/// datagrams and nothing is lost before the harness sees it, so the n-th
/// datagram belongs to the ⌊n / per_frame⌋-th non-idle slot of the program.
struct FrameTracker {
    per_frame: u64,
    within: u64,
    next_slot: usize,
    slot: usize,
    file: FileId,
}

impl FrameTracker {
    fn new(per_frame: u64) -> Self {
        FrameTracker {
            per_frame,
            within: 0,
            next_slot: 0,
            slot: 0,
            file: FileId(0),
        }
    }

    /// Accounts one received datagram; returns its `(slot, file)`.
    fn on_datagram(&mut self, program: &Station) -> (usize, FileId) {
        if self.within == 0 {
            loop {
                let slot = self.next_slot;
                self.next_slot += 1;
                if let Some(tx) = program.transmit(slot) {
                    self.slot = slot;
                    self.file = tx.block.file();
                    break;
                }
            }
        }
        self.within = (self.within + 1) % self.per_frame;
        (self.slot, self.file)
    }
}

pub struct Wire {
    shape: Shape,
    catalog: Catalog,
    /// A clone of the station as built: the program the tracker walks.
    program: Station,
    serving: Option<NetServing>,
    clock: ManualClock,
    socket: UdpSocket,
    directory: BTreeMap<FileId, SubscriptionInfo>,
    datagrams_sent: Counter,
    pacer: CreditPacer,
    released: u64,
    received: u64,
    tracker: FrameTracker,
    impairer: Option<Impairer>,
    requests: Requests,
    refresher: Refresher,
    buf: Vec<u8>,
    next_request_slot: usize,
    clients: ClientTotals,
    retrieval_ms: Vec<f64>,
    join_ms: f64,
    sequence: u32,
    retrieve_span: NameId,
    invalid: Vec<String>,
}

pub fn setup(
    kind: Kind,
    catalog: &Catalog,
    seed: u64,
    drop_rate: f64,
    tracer: &mut Tracer,
) -> Result<(Box<dyn Deployed>, SetupTimes), String> {
    let shape = kind.shape();
    let (serve_start, join) = (tracer.name("facade.serve_start"), tracer.name("bnet.join"));
    let (station, build_s) = timed_build(catalog, &shape, tracer)?;

    // Harness bookkeeping, outside the timed stages.
    let program = station.clone();
    let net_config = NetConfig::default().with_control_plane();
    let mtu = net_config.mtu;
    let first = (0..)
        .find_map(|slot| program.transmit(slot))
        .expect("a program transmits something");
    let frame = Frame::Slot(SlotFrame::from_transmission(0, 0, first));
    let per_frame = wire::datagrams(&frame, mtu, 0).len() as u64;

    let t = Instant::now();
    let span = tracer.begin(serve_start, NO_PARENT, 0);
    let clock = ManualClock::new();
    let serving = station
        .serve_network_with(clock.clone(), RuntimeConfig::default(), net_config)
        .map_err(|e| format!("serve_network_with: {e}"))?;
    tracer.end(span);
    let serve_start_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let span = tracer.begin(join, NO_PARENT, 0);
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    socket
        .set_read_timeout(Some(Duration::from_millis(2)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    seat_listener(&socket, &serving)?;
    // The first listener asks the control plane where its first file is;
    // that one round trip belongs to being seated.
    let control_addr = serving.control_addr().ok_or("no control plane")?;
    let asked = Instant::now();
    let first_info = ControlClient::connect(control_addr)
        .and_then(|mut control| control.subscribe(FileId(1)))
        .map_err(|e| format!("control subscribe: {e}"))?;
    let control_subscribe_s = Some(asked.elapsed().as_secs_f64());
    tracer.end(span);
    let join_s = t.elapsed().as_secs_f64();

    // The rest of the directory is harness bookkeeping: one 80 ms control
    // round trip per file would turn a 64-file set-up into five seconds of
    // Nagle timers.
    let directory = directory_of(&program);
    if directory.get(&FileId(1)) != Some(&first_info) {
        return Err("the control plane and the station disagree on the directory".into());
    }

    let datagrams_sent = serving
        .telemetry()
        .registry()
        .counter("bnet_datagrams_sent");
    let wire = Wire {
        shape,
        catalog: catalog.clone(),
        program,
        serving: Some(serving),
        clock,
        socket,
        directory,
        datagrams_sent,
        pacer: CreditPacer::new(DATAGRAM_BUDGET, per_frame),
        released: 0,
        received: 0,
        tracker: FrameTracker::new(per_frame),
        impairer: (drop_rate > 0.0).then(|| {
            Impairer::new(
                Impairments::loss(drop_rate),
                gen::sub_seed(seed, Stream::Loss),
            )
        }),
        requests: Requests::new(&shape, seed),
        refresher: Refresher::new(shape, seed, tracer),
        buf: vec![0u8; 65_536],
        next_request_slot: 0,
        clients: ClientTotals::default(),
        retrieval_ms: Vec::new(),
        join_ms: join_s * 1e3,
        sequence: 0,
        retrieve_span: tracer.name("bnet.client_retrieve"),
        invalid: Vec::new(),
    };
    let times = SetupTimes {
        build_s,
        serve_start_s,
        join_s,
        control_subscribe_s,
    };
    Ok((Box::new(wire), times))
}

/// What the control plane would answer for every file of `station`.
fn directory_of(station: &Station) -> BTreeMap<FileId, SubscriptionInfo> {
    station
        .network_directory()
        .into_iter()
        .map(|(id, info)| (FileId(id), info))
        .collect()
}

/// Sends `Join` until the station acknowledges it with a `Resync`, then
/// waits out the acknowledgement of every re-sent `Join`, so no stray
/// control datagram is later mistaken for slot traffic.
fn seat_listener(socket: &UdpSocket, serving: &NetServing) -> Result<(), String> {
    let join = wire::encode(&Frame::Control(ControlFrame::Join));
    let mut buf = [0u8; 2048];
    let (mut sent, mut acked) = (0u32, 0u32);
    let mut last_join: Option<Instant> = None;
    let deadline = Instant::now() + Duration::from_secs(5);
    while acked == 0 || acked < sent {
        if Instant::now() > deadline {
            return Err("the station never acknowledged the listener's Join".into());
        }
        if acked == 0 && last_join.is_none_or(|t| t.elapsed() > Duration::from_millis(200)) {
            socket
                .send_to(&join, serving.data_addr())
                .map_err(|e| format!("join: {e}"))?;
            sent += 1;
            last_join = Some(Instant::now());
        }
        if let Ok((len, _)) = socket.recv_from(&mut buf) {
            if let Ok(Packet::Frame(Frame::Control(ControlFrame::Resync { .. }))) =
                wire::decode(&buf[..len])
            {
                acked += 1;
            }
        }
    }
    Ok(())
}

impl Wire {
    fn serving(&self) -> &NetServing {
        self.serving.as_ref().expect("on the air until teardown")
    }

    /// Releases as many slots as the datagram budget allows.
    fn top_up(&mut self) {
        // `served` before `sent`: see `CreditPacer::grant`.
        let served = self.serving().runtime().slots_served();
        let sent = self.datagrams_sent.get();
        let grant = self.pacer.grant(self.released, served, sent, self.received);
        if grant > 0 {
            self.clock.advance(grant as usize);
            self.released += grant;
        }
    }

    /// Stops releasing and reads everything already on its way, for up to
    /// two seconds.  The tracker sees every datagram, so its count stays
    /// aligned with the program.
    fn drain(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let served = self.serving().runtime().slots_served();
            let sent = self.datagrams_sent.get();
            if (served == self.released && sent == self.received) || Instant::now() > deadline {
                break;
            }
            if self.socket.recv_from(&mut self.buf).is_ok() {
                self.received += 1;
                let (slot, _) = self.tracker.on_datagram(&self.program);
                self.next_request_slot = slot + 1;
            }
        }
    }
}

impl Deployed for Wire {
    fn step(&mut self, rec: &mut Recorder, tracer: &mut Tracer) {
        let file = self.requests.next_file();
        let sequence = self.sequence;
        self.sequence += 1;
        let started = Instant::now();
        let span = tracer.begin(self.retrieve_span, NO_PARENT, sequence);
        let request_slot = self.next_request_slot;
        let mut state = ClientState::new(file);
        state.feed_frame(Frame::Control(ControlFrame::SubscribeAck {
            file,
            info: self.directory[&file],
        }));
        // Frames of `file` this harness dropped: the faults Lemma 3 counts.
        let mut faults = 0usize;
        let mut last_fault_slot = None;
        let mut last_slot = request_slot;
        let complete = loop {
            self.top_up();
            match self.socket.recv_from(&mut self.buf) {
                Ok((len, _)) => {
                    self.received += 1;
                    let (slot, carried) = self.tracker.on_datagram(&self.program);
                    last_slot = slot;
                    let datagram = &self.buf[..len];
                    let done = match &mut self.impairer {
                        None => state.feed_datagram(datagram),
                        Some(impairer) => {
                            let delivered = impairer.apply(datagram);
                            if delivered.is_empty()
                                && carried == file
                                && last_fault_slot != Some(slot)
                            {
                                faults += 1;
                                last_fault_slot = Some(slot);
                            }
                            // Every delivered datagram is fed, also past
                            // the one that completes the retrieval.
                            let mut done = false;
                            for delivered in &delivered {
                                done |= state.feed_datagram(delivered);
                            }
                            done
                        }
                    };
                    if done {
                        break true;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if started.elapsed() > RETRIEVAL_TIMEOUT {
                        break false;
                    }
                }
                Err(e) => {
                    self.invalid.push(format!("recv_from: {e}"));
                    break false;
                }
            }
        };
        let outcome = if complete { Some(state.finish()) } else { None };
        tracer.end(span);
        let elapsed_ms = ms(started.elapsed());
        self.clients.add(&state.stats());
        self.next_request_slot = last_slot + 1;
        let outcome = match outcome {
            Some(Ok(outcome)) => outcome,
            Some(Err(e)) => return rec.failure(format!("{file}: {e}")),
            None => return rec.failure(format!("{file}: timed out after {elapsed_ms:.0} ms")),
        };
        if outcome.data != self.catalog.contents[&file] {
            return rec.failure(format!(
                "{file}: reconstructed bytes differ from the catalog"
            ));
        }
        if outcome.completion_slot != last_slot {
            self.invalid.push(format!(
                "{file} completed in slot {} but the frame tracker stands at {last_slot}",
                outcome.completion_slot
            ));
        }
        let latency = outcome.completion_slot + 1 - request_slot;
        if let Some(&bound) = self.shape.latencies.get(faults) {
            if latency > bound as usize {
                return rec.failure(format!(
                    "{file}: Lemma 3 violated: {faults} faults, latency {latency} > d = {bound}"
                ));
            }
        }
        self.retrieval_ms.push(elapsed_ms);
        let serving = self.serving.as_ref().expect("on the air");
        rec.success(outcome.data.len(), elapsed_ms, Some(latency), || {
            serving.runtime().slots_served()
        });
    }

    fn slots_served(&self) -> u64 {
        self.serving().runtime().slots_served()
    }

    fn medium_bytes(&self) -> u64 {
        self.serving().net_stats().bytes_sent
    }

    fn refresh(&mut self, tracer: &mut Tracer) -> Result<Option<RefreshTimes>, String> {
        // Frames dispersed before the swap carry proofs against the old
        // root: read them off the wire first, so no retrieval hears them as
        // faults the harness did not inject.
        self.drain();
        let serving = self.serving.as_mut().expect("on the air");
        // The clock is parked, so the swap is due at the serving cursor.
        let (_, times) =
            self.refresher
                .refresh_served(serving, 0, &mut self.catalog, tracer, self.sequence)?;

        // The harness's own view follows the air: new bytes to check
        // against, new roots and epochs to subscribe under.
        let air = serving
            .runtime()
            .snapshot()
            .map_err(|e| format!("snapshot: {e}"))?;
        self.directory = directory_of(&air);
        self.program = air;
        Ok(Some(times))
    }

    fn teardown(mut self: Box<Self>) -> Teardown {
        // On a loss-free medium the station's count and the listener's agree
        // once everything released has been read.
        self.drain();
        let serving = self.serving.take().expect("on the air");
        let net = serving.net_stats();
        let runtime = serving.runtime().stats().ok();
        let leave = wire::encode(&Frame::Control(ControlFrame::Leave));
        let _ = self.socket.send_to(&leave, serving.data_addr());
        if let Err(e) = serving.shutdown() {
            self.invalid.push(format!("shutdown: {e}"));
        }

        let mut out = Teardown {
            invalid: std::mem::take(&mut self.invalid),
            ..Teardown::default()
        };
        if net.send_errors > 0 {
            out.invalid.push(format!("{} send errors", net.send_errors));
        }
        if net.datagrams_sent != self.received {
            out.invalid.push(format!(
                "{} datagrams sent but {} received: the medium lost some",
                net.datagrams_sent, self.received
            ));
        }
        if net.datagrams_sent != net.frames_sent * self.tracker.per_frame {
            out.invalid.push(format!(
                "{} datagrams for {} frames: not {} per frame, drop accounting is off",
                net.datagrams_sent, net.frames_sent, self.tracker.per_frame
            ));
        }
        out.counts = network_counts(
            &net,
            runtime.as_ref(),
            &self.clients,
            self.shape.block_bytes,
        );
        let dropped = self.impairer.as_ref().map_or(0, |i| i.stats().dropped);
        out.counts.insert("bfault.dropped", dropped as f64);
        out.samples_ms = BTreeMap::from([
            (
                "bnet.client_retrieve_ms_p50",
                std::mem::take(&mut self.retrieval_ms),
            ),
            ("bnet.join_ms_p50", vec![self.join_ms]),
        ]);
        out.samples_ms.extend(self.refresher.take_samples());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tracker_walks_non_idle_slots_in_frame_sized_steps() {
        let shape = Shape {
            files: 2,
            blocks: 2,
            block_bytes: 64,
            latencies: &[8, 9],
            authenticated: false,
        };
        let catalog = Catalog::generate(&shape, 1);
        let station = catalog.build_station(false).unwrap();
        assert!(
            (0..16).any(|slot| station.transmit(slot).is_none()),
            "some slots are idle"
        );
        let mut tracker = FrameTracker::new(3);
        let mut expected =
            (0..).filter_map(|slot| station.transmit(slot).map(|tx| (slot, tx.block.file())));
        for _ in 0..20 {
            let frame = expected.next().unwrap();
            for _ in 0..3 {
                assert_eq!(tracker.on_datagram(&station), frame);
            }
        }
    }
}
