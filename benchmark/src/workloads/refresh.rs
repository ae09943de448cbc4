//! `refresh_as_deployed`: the station as an operator runs it — wall clock,
//! authenticated, control plane on — refreshing one file's contents per
//! cycle and reading it back through both doors: the supervised wire client
//! and the in-process ring reader.

use super::{
    ms, network_counts, timed_build, ClientTotals, Deployed, Kind, RefreshTimes, Refresher,
    SetupTimes, Teardown, RETRIEVAL_TIMEOUT,
};
use crate::gen::{Catalog, Shape};
use crate::record::Recorder;
use crate::trace::{NameId, Tracer, NO_PARENT};
use rtbdisk::bauth::Root;
use rtbdisk::{
    ControlClient, FileId, NetClient, NetConfig, NetServing, RecoveryConfig, RetrievalResolution,
    RuntimeConfig, Station, WallClock,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The slot period an operator would run this catalog at: 2 000 slots/s.
pub const PERIOD: Duration = Duration::from_micros(500);

/// A swap is scheduled this many slots ahead of the serving cursor.
const SWAP_LEAD_SLOTS: usize = 8;

/// A ring subscription asks for a slot this far ahead, so its seat is
/// granted before the slot its latency counts from.
const SUBSCRIBE_LEAD_SLOTS: usize = 4;

struct Names {
    join: NameId,
    client_retrieve: NameId,
    ring_retrieve: NameId,
}

pub struct Refresh {
    shape: Shape,
    catalog: Catalog,
    serving: Option<NetServing>,
    data_addr: SocketAddr,
    recovery: RecoveryConfig,
    refresher: Refresher,
    roots: BTreeMap<FileId, Option<Root>>,
    clients: ClientTotals,
    join_ms: Vec<f64>,
    client_retrieve_ms: Vec<f64>,
    ring_retrieve_ms: Vec<f64>,
    sequence: u32,
    names: Names,
    invalid: Vec<String>,
}

pub fn setup(
    kind: Kind,
    catalog: &Catalog,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Box<dyn Deployed>, SetupTimes), String> {
    let shape = kind.shape();
    let (serve_start, join) = (tracer.name("facade.serve_start"), tracer.name("bnet.join"));
    let (station, build_s) = timed_build(catalog, &shape, tracer)?;

    let roots = shape
        .file_ids()
        .map(|f| (f, station.commitment_root_of(f)))
        .collect();

    let t = Instant::now();
    let span = tracer.begin(serve_start, NO_PARENT, 0);
    let serving = station
        .serve_network_with(
            WallClock::new(PERIOD),
            RuntimeConfig::default(),
            NetConfig::default().with_control_plane(),
        )
        .map_err(|e| format!("serve_network_with: {e}"))?;
    tracer.end(span);
    let serve_start_s = t.elapsed().as_secs_f64();
    // Lateness histograms record in the traced run only.
    serving.telemetry().set_recording(tracer.enabled());

    let data_addr = serving.data_addr();
    let control_addr = serving.control_addr().ok_or("no control plane")?;
    let recovery = RecoveryConfig::default().with_control(control_addr);

    let t = Instant::now();
    let span = tracer.begin(join, NO_PARENT, 0);
    let first = NetClient::join_with(data_addr, FileId(1), recovery.clone())
        .map_err(|e| format!("join: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(5);
    while serving.net_stats().joins == 0 {
        if Instant::now() > deadline {
            return Err("the station never seated the first listener".into());
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    tracer.end(span);
    let join_s = t.elapsed().as_secs_f64();

    // The seated listener finishes its retrieval and leaves, so the fan-out
    // set is empty when the cycles begin.
    first
        .retrieve(RETRIEVAL_TIMEOUT)
        .map_err(|e| format!("first retrieval: {e}"))?;
    let t = Instant::now();
    ControlClient::connect(control_addr)
        .and_then(|mut control| control.subscribe(FileId(1)))
        .map_err(|e| format!("control subscribe: {e}"))?;
    let control_subscribe_s = Some(t.elapsed().as_secs_f64());

    let refresh = Refresh {
        shape,
        catalog: catalog.clone(),
        serving: Some(serving),
        data_addr,
        recovery,
        refresher: Refresher::new(shape, seed, tracer),
        roots,
        clients: ClientTotals::default(),
        join_ms: vec![join_s * 1e3],
        client_retrieve_ms: Vec::new(),
        ring_retrieve_ms: Vec::new(),
        sequence: 0,
        names: Names {
            join: tracer.name("bnet.join"),
            client_retrieve: tracer.name("bnet.client_retrieve"),
            ring_retrieve: tracer.name("brt.ring_retrieve"),
        },
        invalid: Vec::new(),
    };
    let times = SetupTimes {
        build_s,
        serve_start_s,
        join_s,
        control_subscribe_s,
    };
    Ok((Box::new(refresh), times))
}

impl Refresh {
    fn serving(&self) -> &NetServing {
        self.serving.as_ref().expect("on the air until teardown")
    }

    /// Reads `file` back through the wire client; returns why it failed, or
    /// the slots it listened (when within the declared fault tolerance) and
    /// the milliseconds it took.
    fn read_over_wire(
        &mut self,
        file: FileId,
        air: &Station,
        tracer: &mut Tracer,
    ) -> Result<(Option<usize>, f64), String> {
        let started = Instant::now();
        let span = tracer.begin(self.names.join, NO_PARENT, self.sequence);
        let client = NetClient::join_with(self.data_addr, file, self.recovery.clone())
            .map_err(|e| format!("{file}: join: {e}"))?;
        tracer.end(span);
        self.join_ms.push(ms(started.elapsed()));
        let armed = client.state().commitment_root();
        let span = tracer.begin(self.names.client_retrieve, NO_PARENT, self.sequence);
        let (result, stats) = client.retrieve_with_stats(RETRIEVAL_TIMEOUT);
        tracer.end(span);
        let elapsed_ms = ms(started.elapsed());
        self.clients.add(&stats);
        let outcome = result.map_err(|e| format!("{file}: wire retrieval: {e}"))?;
        if outcome.data != self.catalog.contents[&file] {
            return Err(format!(
                "{file}: the wire door returned stale or wrong bytes"
            ));
        }
        if armed != self.roots[&file] {
            return Err(format!(
                "{file}: the wire client armed a stale commitment root"
            ));
        }
        // Latency in slots is the window the client actually listened:
        // every slot it heard or booked as a gap, ending at completion.
        // (How long the `Join` took to be honoured is in the milliseconds;
        // Lemma 3 says nothing about it.)  Gaps that were idle slots of the
        // program are not faults.
        let listened = (stats.slot_frames + stats.gap_erasures) as usize;
        let first = (outcome.completion_slot + 1).saturating_sub(listened);
        let idle = (first..=outcome.completion_slot)
            .filter(|&slot| air.transmit(slot).is_none())
            .count() as u64;
        let faults = stats.erasures.saturating_sub(idle) as usize;
        // On the real clock the faults are the box's, not the seed's: a
        // vCPU held back for a few milliseconds overflows the socket and
        // costs a burst of frames.  Past the file's declared tolerance
        // nothing is promised, and the window says more about the
        // neighbours than about the station: it stays out of the latency
        // distribution (`bnet.client_erasures` keeps the losses visible).
        let promised = self.shape.latencies.get(faults);
        if promised.is_some_and(|&bound| listened > bound as usize) {
            return Err(format!(
                "{file}: Lemma 3 violated on the wire: {faults} faults, listened {listened} slots"
            ));
        }
        self.client_retrieve_ms.push(elapsed_ms);
        Ok((promised.map(|_| listened), elapsed_ms))
    }

    /// Reads `file` back through a ring subscription; returns why it failed,
    /// or the slots it listened and the milliseconds it took.
    fn read_over_ring(
        &mut self,
        file: FileId,
        air: &Station,
        tracer: &mut Tracer,
    ) -> Result<(Option<usize>, f64), String> {
        let started = Instant::now();
        let span = tracer.begin(self.names.ring_retrieve, NO_PARENT, self.sequence);
        let runtime = self.serving().runtime();
        let at_slot = runtime.slots_served() as usize + SUBSCRIBE_LEAD_SLOTS;
        let resolution = runtime.subscribe(file, at_slot).and_then(|client| {
            // The delivery counters die with the handle: read them once
            // the task has resolved, before joining it.
            while !client.is_finished() && started.elapsed() < RETRIEVAL_TIMEOUT {
                std::thread::sleep(Duration::from_micros(50));
            }
            let stats = client.stats();
            if !client.is_finished() {
                runtime.unsubscribe(&client);
            }
            client.join().map(|resolution| (resolution, stats))
        });
        tracer.end(span);
        let elapsed_ms = ms(started.elapsed());
        let (outcome, stats) = match resolution {
            Ok((RetrievalResolution::Complete(outcome), stats)) => (outcome, stats),
            Ok((RetrievalResolution::ModeChanged { mode, .. }, _)) => {
                return Err(format!("{file}: ring retrieval cancelled by {mode}"))
            }
            Err(e) => return Err(format!("{file}: ring retrieval: {e}")),
        };
        if outcome.data != self.catalog.contents[&file] {
            return Err(format!(
                "{file}: the ring door returned stale or wrong bytes"
            ));
        }
        // The window the reader actually listened: a seat granted late
        // starts at the serving cursor, not at the asked-for slot, so walk
        // back from completion over as many data slots as were delivered
        // (or lagged past).
        let mut heard = stats.delivered + stats.lagged_slots;
        let mut first = outcome.completion_slot + 1;
        while heard > 0 && first > outcome.request_slot {
            first -= 1;
            heard -= u64::from(air.transmit(first).is_some());
        }
        let listened = outcome.completion_slot + 1 - first;
        if let Some(&bound) = self.shape.latencies.get(outcome.errors_observed) {
            if listened > bound as usize {
                return Err(format!(
                    "{file}: Lemma 3 violated on the ring: {} faults, listened {listened} > d = {bound}",
                    outcome.errors_observed
                ));
            }
        }
        self.ring_retrieve_ms.push(elapsed_ms);
        Ok((Some(listened), elapsed_ms))
    }
}

impl Deployed for Refresh {
    fn step(&mut self, rec: &mut Recorder, tracer: &mut Tracer) {
        self.sequence += 1;
        let serving = self.serving.as_mut().expect("on the air");
        let refreshed = self.refresher.refresh_served(
            serving,
            SWAP_LEAD_SLOTS,
            &mut self.catalog,
            tracer,
            self.sequence,
        );
        let file = match refreshed {
            Ok((file, times)) => {
                rec.refresh(times.total_ms());
                file
            }
            Err(e) => {
                // Both reads of the cycle are lost with the refresh.
                rec.failure(e.clone());
                return rec.failure(e);
            }
        };
        // The station as it is on the air now: the new root, and the
        // program the wire oracle checks idle slots against.
        let air = match self.serving().runtime().snapshot() {
            Ok(air) => air,
            Err(e) => {
                rec.failure(format!("snapshot: {e}"));
                return rec.failure(format!("snapshot: {e}"));
            }
        };
        let new_root = air.commitment_root_of(file);
        if new_root.is_none() || new_root == self.roots[&file] {
            self.invalid.push(format!(
                "{file}: the swap did not publish a new commitment root"
            ));
        }
        self.roots.insert(file, new_root);

        let bytes = self.shape.file_bytes();
        let wire = self.read_over_wire(file, &air, tracer);
        let ring = self.read_over_ring(file, &air, tracer);
        let serving = self.serving.as_ref().expect("on the air");
        for read in [wire, ring] {
            match read {
                Ok((latency, elapsed_ms)) => rec.success(bytes, elapsed_ms, latency, || {
                    serving.runtime().slots_served()
                }),
                Err(e) => rec.failure(e),
            }
        }
    }

    fn slots_served(&self) -> u64 {
        self.serving().runtime().slots_served()
    }

    fn medium_bytes(&self) -> u64 {
        self.serving().net_stats().bytes_sent
    }

    /// Every step refreshes already.
    fn refresh(&mut self, _tracer: &mut Tracer) -> Result<Option<RefreshTimes>, String> {
        Ok(None)
    }

    fn teardown(mut self: Box<Self>) -> Teardown {
        let serving = self.serving.take().expect("on the air");
        let net = serving.net_stats();
        let runtime = serving.runtime().stats().ok();
        let lateness = serving
            .telemetry()
            .registry()
            .histogram("brt_slot_lateness_ns")
            .snapshot();
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
        let lateness_us = |q: f64| lateness.quantile(q).map_or(0.0, |ns| ns as f64 / 1e3);
        out.counts = network_counts(
            &net,
            runtime.as_ref(),
            &self.clients,
            self.shape.block_bytes,
        );
        out.counts.extend([
            ("brt.slot_lateness_p50_us", lateness_us(0.5)),
            ("brt.slot_lateness_p99_us", lateness_us(0.99)),
        ]);
        out.samples_ms = BTreeMap::from(self.refresher.take_samples());
        out.samples_ms.extend([
            ("bnet.join_ms_p50", std::mem::take(&mut self.join_ms)),
            (
                "bnet.client_retrieve_ms_p50",
                std::mem::take(&mut self.client_retrieve_ms),
            ),
            (
                "brt.ring_retrieve_ms_p50",
                std::mem::take(&mut self.ring_retrieve_ms),
            ),
        ]);
        out
    }
}
