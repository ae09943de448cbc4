//! The per-layer half of the traced run: the shadow pipeline's stage budget,
//! direct timed calls into each layer's public functions on the workload's
//! own catalog and block sizes, and the counts the deployed phases left in
//! the public stats structs.

use crate::gen::Catalog;
use crate::json::Json;
use crate::record::{Measured, Steady};
use crate::report::{Metric, RunResult};
use crate::runner::{RunConfig, TracedPhases};
use crate::shadow::{self, Shadow};
use crate::spec::PER_LAYER;
use crate::stats;
use crate::trace::{self, Budget, LayerTotal, Tracer};
use crate::workloads::Kind;
use rtbdisk::bauth::{self, CommitPlan, Root};
use rtbdisk::bcore::{BdiskDesigner, ShardPlanner};
use rtbdisk::bdisk::{ClientSession, EpochBank, Observation};
use rtbdisk::bfault::{Impairer, Impairments};
use rtbdisk::bmode::{ChannelView, CurrentMode, ModePlanner};
use rtbdisk::bnet::wire::{self, Frame, Packet, Reassembler, SlotFrame};
use rtbdisk::bnet::ClientState;
use rtbdisk::bobs::{Counter, Telemetry};
use rtbdisk::brt::{BroadcastRing, LaneCell, SlotCell};
use rtbdisk::gf256::{Gf256, Matrix, MulTable};
use rtbdisk::ida::Dispersal;
use rtbdisk::pinwheel::{self, PinwheelScheduler};
use rtbdisk::{
    BernoulliErrors, ErrorModel, FileId, ManualClock, ModeSpec, NetConfig, NoErrors,
    SchedulerChoice,
};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::net::UdpSocket;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

pub struct LayerReport {
    pub metrics: Vec<Metric>,
    pub shadow_retrievals: u64,
    pub shadow_failed: u64,
    pub shadow_failures: Vec<String>,
    deployed: Tracer,
    shadow: Tracer,
    budget: Budget,
    totals: BTreeMap<&'static str, LayerTotal>,
}

impl LayerReport {
    /// `layers-<workload>.json`: the per-layer metrics with what each should
    /// move, and the shadow's stage budget.
    pub fn layers_json(&self, result: &RunResult) -> Json {
        let stages = self
            .totals
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("calls", Json::Num(t.count as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("self_ns", Json::Num(t.self_ns as f64)),
                        (
                            "share_of_roots",
                            Json::Num(t.self_ns as f64 / self.budget.root_ns.max(1) as f64),
                        ),
                    ]),
                )
            })
            .collect();
        let moves = |metric: &Metric| {
            let spec = PER_LAYER.iter().find(|m| m.name == metric.name);
            vec![("moves", Json::str(spec.map_or("", |m| m.moves)))]
        };
        let mut json = result.to_json(moves);
        if let Json::Obj(entries) = &mut json {
            entries.push((
                "budget".into(),
                Json::obj(vec![
                    ("root_ns", Json::Num(self.budget.root_ns as f64)),
                    ("layers_self_ns", Json::Num(self.budget.layers_ns as f64)),
                    ("residual_ns", Json::Num(self.budget.residual_ns as f64)),
                    ("residual_share", Json::Num(self.budget.residual_share())),
                    ("coverage", Json::Num(self.budget.coverage())),
                    ("stages", Json::Obj(stages)),
                ]),
            ));
        }
        json
    }

    /// `trace-<workload>.json`: the coarse spans of the deployed path and
    /// the shadow's spans (root spans all, call spans of the first two
    /// retrievals).
    pub fn trace_json(&self) -> Json {
        Json::obj(vec![
            ("deployed", self.deployed.to_json(u32::MAX)),
            ("shadow", self.shadow.to_json(2)),
        ])
    }
}

/// Mean nanoseconds per call of `f`, over at least `min` of calls.
fn per_call_ns(min: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut iterations = 1u64;
    loop {
        let started = Instant::now();
        for _ in 0..iterations {
            f();
        }
        let elapsed = started.elapsed();
        if elapsed >= min || iterations >= 1 << 32 {
            return elapsed.as_nanos() as f64 / iterations as f64;
        }
        let scale = min.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
        iterations = ((iterations as f64 * scale * 1.2).ceil() as u64).max(iterations * 2);
    }
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns.max(1e-9) * 1e3
}

type Values = BTreeMap<&'static str, (f64, String)>;

fn put(values: &mut Values, name: &'static str, value: f64) {
    // An empty sum is -0.0; print it as plain zero.
    values.insert(name, (value + 0.0, String::new()));
}

/// Direct timed calls into each layer, on the workload's own sizes.
fn direct_calls(
    kind: Kind,
    catalog: &Catalog,
    shadow: &Shadow,
    per_call: Duration,
    values: &mut Values,
) -> Result<(), String> {
    let shape = kind.shape();
    let station = catalog.build_station(shape.authenticated)?;
    let (m, block_bytes) = (shape.blocks as usize, shape.block_bytes as usize);
    let n = station.files().files()[0].dispersed_blocks as usize;
    let file = FileId(1);
    let content = &catalog.contents[&file];
    let time = |f: &mut dyn FnMut()| per_call_ns(per_call, f);

    // ---- gf256
    let src: Vec<u8> = content[..block_bytes].to_vec();
    let mut acc = vec![0u8; block_bytes];
    let table = MulTable::new(Gf256::new(0x57));
    let ns = time(&mut || table.mul_acc(black_box(&src), black_box(&mut acc)));
    put(values, "gf256.mul_acc_mb_s", mb_per_s(block_bytes, ns));
    // The m×m system a retrieval that lost its first n − m blocks inverts.
    let rows: Vec<usize> = (n - m..n).collect();
    let system = Matrix::systematic(n, m)
        .and_then(|g| g.submatrix_rows(&rows))
        .map_err(|e| format!("matrix: {e}"))?;
    let ns = time(&mut || {
        black_box(system.inverted().expect("any m rows are independent"));
    });
    put(values, "gf256.invert_us", ns / 1e3);

    // ---- ida
    let dispersal = Dispersal::new(m, n).map_err(|e| format!("dispersal: {e}"))?;
    let ns = time(&mut || {
        black_box(dispersal.disperse(file, content).expect("disperse"));
    });
    put(values, "ida.disperse_mb_s", mb_per_s(content.len(), ns));
    let dispersed = dispersal
        .disperse(file, content)
        .map_err(|e| format!("disperse: {e}"))?;
    let coded = &dispersed.blocks()[n - m..];
    let ns = time(&mut || {
        black_box(dispersal.reconstruct(coded).expect("reconstruct"));
    });
    put(
        values,
        "ida.reconstruct_coded_mb_s",
        mb_per_s(content.len(), ns),
    );
    let systematic = &dispersed.blocks()[..m];
    let ns = time(&mut || {
        black_box(dispersal.reconstruct(systematic).expect("reconstruct"));
    });
    put(
        values,
        "ida.reconstruct_systematic_mb_s",
        mb_per_s(content.len(), ns),
    );

    // ---- bauth: the honest split of the legacy `commit_mb_s`.
    let payload = dispersed.blocks()[0].payload().to_vec();
    let ns = time(&mut || {
        black_box(bauth::sha256(black_box(&payload)));
    });
    put(values, "bauth.sha256_mb_s", mb_per_s(payload.len(), ns));
    let len = content.len() as u64;
    let leaf = |index: u32, payload: &[u8]| {
        bauth::leaf_hash(file.0, index, m as u32, n as u32, len, payload)
    };
    let ns = time(&mut || {
        black_box(leaf(0, black_box(&payload)));
    });
    put(values, "bauth.leaf_hash_mb_s", mb_per_s(payload.len(), ns));
    let leaves: Vec<Root> = dispersed
        .blocks()
        .iter()
        .map(|b| leaf(b.index(), b.payload()))
        .collect();
    let plan = CommitPlan::new(n).ok_or("commit plan")?;
    let ns = time(&mut || {
        black_box(plan.commit(black_box(&leaves)));
    });
    put(values, "bauth.tree_commit_us", ns / 1e3);
    let commitment = plan.commit(&leaves);
    let mut index = 0;
    let ns = time(&mut || {
        index = (index + 1) % n;
        black_box(commitment.proof(index));
    });
    put(values, "bauth.proof_us", ns / 1e3);
    let (root, proof) = (commitment.root(), commitment.proof(0).ok_or("proof")?);
    let ns = time(&mut || {
        let ok = bauth::verify_block(
            &root,
            file.0,
            0,
            m as u32,
            n as u32,
            len,
            black_box(&payload),
            &proof,
        );
        assert!(black_box(ok), "a genuine block verifies");
    });
    put(values, "bauth.verify_block_us", ns / 1e3);
    let verify_ns = if shape.authenticated { ns } else { 0.0 };

    // ---- pinwheel, bcore, bmode: the design path.
    let report = station.report();
    let tasks = report
        .conjunct
        .to_task_system()
        .map_err(|e| format!("task system: {e}"))?;
    let scheduler = SchedulerChoice::default();
    let ns = time(&mut || {
        black_box(
            scheduler
                .schedule(&tasks)
                .expect("the workload is schedulable"),
        );
    });
    put(values, "pinwheel.schedule_ms", ns / 1e6);
    let ns = time(&mut || {
        pinwheel::verify(&report.schedule, &tasks).expect("the schedule verifies");
    });
    put(values, "pinwheel.verify_ms", ns / 1e6);
    let designer = BdiskDesigner::with_scheduler(scheduler);
    let ns = time(&mut || {
        black_box(
            designer
                .design(&catalog.specs)
                .expect("the workload designs"),
        );
    });
    put(values, "bcore.design_ms", ns / 1e6);
    let planner = ModePlanner::new(
        ShardPlanner::fixed(1),
        BdiskDesigner::with_scheduler(scheduler),
    );
    let current = CurrentMode {
        specs: station.specs(),
        channels: station
            .reports()
            .iter()
            .map(|r| ChannelView {
                program: &r.program,
                files: &r.files,
            })
            .collect(),
        dirty: BTreeSet::from([file]),
    };
    let mode = ModeSpec::new("probe").files(catalog.specs.iter().cloned());
    let ns = time(&mut || {
        black_box(planner.plan(&current, &mode).expect("the mode plans"));
    });
    put(values, "bmode.plan_ms", ns / 1e6);
    put(values, "bcore.density_max", station.density());
    let cycle = station.program().data_cycle();
    put(values, "bcore.cycle_slots", cycle as f64);

    // ---- bdisk
    let mut lanes = Vec::new();
    let mut slot = 0usize;
    let ns = time(&mut || {
        station.transmit_all_into(slot, &mut lanes);
        black_box(&lanes);
        slot = (slot + 1) % cycle;
    });
    put(values, "bdisk.transmit_ns_per_slot", ns);
    let blocks = &dispersed.blocks()[..m];
    let ns = time(&mut || {
        let mut session = ClientSession::new(file, m, 0);
        for (slot, block) in blocks.iter().enumerate() {
            session.ingest(Observation::Block {
                slot,
                block,
                received_ok: true,
                proof: None,
            });
        }
        black_box(session);
    });
    let ingest_ns = ns / m as f64;
    put(values, "bdisk.ingest_ns_per_block", ingest_ns);
    let mut session = ClientSession::new(file, m, 0);
    for (slot, block) in blocks.iter().enumerate() {
        session.ingest(Observation::Block {
            slot,
            block,
            received_ok: true,
            proof: None,
        });
    }
    let ns = time(&mut || {
        black_box(session.finish(&dispersal).expect("finish"));
    });
    put(values, "bdisk.finish_us", ns / 1e3);
    // A second station over other bytes: servers the bank sees as changed.
    let mut other = catalog.clone();
    other
        .contents
        .values_mut()
        .for_each(|bytes| bytes[0] ^= 0xFF);
    let other = other.build_station(shape.authenticated)?;
    let sides = [
        station.bank().current_arc(0).ok_or("no channel")?,
        other.bank().current_arc(0).ok_or("no channel")?,
    ];
    let mut bank = EpochBank::new(vec![sides[0].clone()]).map_err(|e| format!("bank: {e}"))?;
    let mut flips = 0usize;
    let ns = time(&mut || {
        flips += 1;
        // A long-lived bank would carry every past segment; a station is
        // refreshed hundreds of times, not millions.
        if flips.is_multiple_of(256) {
            bank = EpochBank::new(vec![sides[0].clone()]).expect("bank");
            flips = 1;
        }
        black_box(
            bank.swap(flips, vec![sides[flips % 2].clone()])
                .expect("swap"),
        );
    });
    put(values, "bdisk.swap_us", ns / 1e3);

    // ---- bsim
    let tx = (0..)
        .find_map(|s| station.transmit(s))
        .ok_or("no transmission")?;
    let mut errors = BernoulliErrors::new(0.10, 7);
    let ns = time(&mut || {
        black_box(errors.is_lost(tx));
    });
    put(values, "bsim.is_lost_ns", ns);

    // ---- facade / brt: the synchronous drive.
    let ns = time(&mut || {
        black_box(station.subscribe(file, 0).expect("subscribe"));
    });
    put(values, "facade.subscribe_us", ns / 1e3);
    let transmit_ns = values["bdisk.transmit_ns_per_slot"].0;
    let half_window = (shape.latencies[0] as usize / 2).max(1);
    let mut drive_self = Vec::new();
    for round in 0..8 {
        let base = round * cycle;
        let mut fleet: Vec<_> = (0..32u32)
            .map(|i| {
                station
                    .subscribe(FileId(1 + i % shape.files), base)
                    .expect("subscribe")
            })
            .collect();
        let started = Instant::now();
        station
            .run_until_slot(&mut fleet, &mut NoErrors, base + half_window)
            .map_err(|e| format!("run_until_slot: {e}"))?;
        let elapsed = started.elapsed().as_nanos() as f64;
        let ingested: usize = fleet.iter().map(|r| r.blocks_received()).sum();
        // Self time: the pass minus what it spent in the layers below it —
        // one transmit per slot, one (verified) ingest per stored block.
        let children = ingested as f64 * (ingest_ns + verify_ns);
        drive_self.push((elapsed - children) / half_window as f64 - transmit_ns);
    }
    put(
        values,
        "brt.drive_ns_per_slot",
        stats::median(&drive_self).unwrap_or(0.0),
    );

    // ---- brt: the ring, and the runtime's control calls.
    let ring = BroadcastRing::new(1024);
    let detached = AtomicBool::new(false);
    let (mut publish_ns, mut read_ns, mut published) = (0f64, 0f64, 0usize);
    let ring_started = Instant::now();
    while ring_started.elapsed() < per_call * 2 {
        let cells: Vec<SlotCell> = (published..published + 512)
            .map(|slot| SlotCell {
                slot,
                lanes: vec![LaneCell {
                    epoch: Some(0),
                    block: station.transmit(slot).map(|tx| tx.block.clone()),
                }],
            })
            .collect();
        let started = Instant::now();
        for cell in cells {
            ring.publish(cell);
        }
        publish_ns += started.elapsed().as_nanos() as f64;
        let started = Instant::now();
        for slot in published..published + 512 {
            black_box(ring.read(slot, &detached));
        }
        read_ns += started.elapsed().as_nanos() as f64;
        published += 512;
    }
    put(
        values,
        "brt.ring_publish_ns_per_slot",
        publish_ns / published as f64,
    );
    put(
        values,
        "brt.ring_read_ns_per_slot",
        read_ns / published as f64,
    );
    let runtime = station.clone().serve_concurrent(ManualClock::new());
    let ns = time(&mut || {
        black_box(runtime.snapshot().expect("snapshot"));
    });
    put(values, "brt.snapshot_us", ns / 1e3);
    let mut subscribe_us = Vec::new();
    for _ in 0..32 {
        let started = Instant::now();
        let client = runtime
            .subscribe(file, 0)
            .map_err(|e| format!("subscribe: {e}"))?;
        subscribe_us.push(started.elapsed().as_nanos() as f64 / 1e3);
        runtime.unsubscribe(&client);
        let _ = client.join();
    }
    put(
        values,
        "brt.subscribe_us",
        stats::median(&subscribe_us).unwrap_or(0.0),
    );

    // ---- bobs, on the registry a serving station really carries.
    let counter = Counter::new();
    let ns = time(&mut || counter.inc());
    put(values, "bobs.counter_inc_ns", ns);
    let telemetry: &Telemetry = runtime.telemetry();
    telemetry.set_recording(true);
    let histogram = telemetry.registry().histogram("benchmark_probe_ns");
    let mut sample = 1i64;
    let ns = time(&mut || {
        sample = sample.wrapping_mul(3) & 0xFFFF;
        histogram.record(sample);
    });
    put(values, "bobs.histogram_record_ns", ns);
    let ns = time(&mut || {
        black_box(telemetry.export_json());
    });
    put(values, "bobs.export_json_us", ns / 1e3);
    runtime.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    // ---- bnet: framing, the sockets, decoding.
    let mtu = NetConfig::default().mtu;
    let frame = Frame::Slot(SlotFrame::from_transmission(0, 0, tx));
    let ns = time(&mut || {
        black_box(wire::datagrams(black_box(&frame), mtu, 1));
    });
    put(values, "bnet.frame_ns_per_frame", ns);
    let packets = wire::datagrams(&frame, mtu, 1);
    let datagram = &packets[0];
    let ns = time(&mut || {
        black_box(wire::crc32(black_box(datagram)));
    });
    put(values, "bnet.crc32_mb_s", mb_per_s(datagram.len(), ns));
    let ns = time(&mut || {
        black_box(wire::decode(black_box(datagram)).expect("decode"));
    });
    put(values, "bnet.decode_ns_per_datagram", ns);
    let (tx_socket, rx_socket) = (
        UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?,
        UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?,
    );
    rx_socket
        .set_read_timeout(Some(Duration::from_secs(1)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    let rx_addr = rx_socket
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let mut buf = vec![0u8; 65_536];
    let (mut send_ns, mut recv_ns, mut sent) = (0f64, 0f64, 0u64);
    let sockets_started = Instant::now();
    while sockets_started.elapsed() < per_call * 2 {
        let started = Instant::now();
        tx_socket
            .send_to(datagram, rx_addr)
            .map_err(|e| format!("send_to: {e}"))?;
        let between = Instant::now();
        rx_socket
            .recv_from(&mut buf)
            .map_err(|e| format!("recv_from: {e}"))?;
        recv_ns += between.elapsed().as_nanos() as f64;
        send_ns += (between - started).as_nanos() as f64;
        sent += 1;
    }
    put(values, "bnet.send_ns_per_datagram", send_ns / sent as f64);
    put(values, "bnet.recv_ns_per_datagram", recv_ns / sent as f64);
    let mut impairer = Impairer::new(Impairments::loss(0.001), 7);
    let ns = time(&mut || {
        black_box(impairer.apply(black_box(datagram)));
    });
    put(values, "bfault.apply_ns_per_datagram", ns);

    // ---- bnet: `ClientState::feed_datagram` minus its children, both over
    // the datagrams of the shadow's first retrieval: once through the state
    // machine, once through the calls it makes, made directly.
    if !shadow.replay.is_empty() {
        let feed = time(&mut || {
            let mut state = ClientState::new(shadow.replay_file);
            if let Some(root) = shadow.replay_root {
                state.require_root(root);
            }
            for datagram in &shadow.replay {
                state.feed_datagram(datagram);
            }
            assert!(state.is_complete(), "the replayed retrieval completes");
        }) / shadow.replay.len() as f64;
        let children = time(&mut || {
            let mut session = ClientSession::new(shadow.replay_file, m, 0);
            if let Some(root) = shadow.replay_root {
                session.require_root(root);
            }
            let mut reassembler = Reassembler::new(16);
            for datagram in &shadow.replay {
                let mut packet = wire::decode(datagram);
                if let Ok(Packet::Fragment(fragment)) = packet {
                    let Some(whole) = reassembler.offer(fragment) else {
                        continue;
                    };
                    packet = wire::decode(&whole);
                }
                if let Ok(Packet::Frame(Frame::Slot(sf))) = packet {
                    session.ingest(Observation::Block {
                        slot: sf.slot as usize,
                        block: &sf.block,
                        received_ok: true,
                        proof: None,
                    });
                }
            }
            assert!(session.is_complete(), "the replayed retrieval completes");
        }) / shadow.replay.len() as f64;
        values.insert(
            "bnet.feed_self_ns_per_datagram",
            (
                feed - children,
                format!("feed_datagram {feed:.0} ns - children {children:.0} ns per datagram"),
            ),
        );
    }
    Ok(())
}

/// Everything the shadow's spans say.
fn from_shadow(shadow: &Shadow, phases: &TracedPhases, values: &mut Values) -> Budget {
    let totals = shadow.tracer.totals();
    let budget = trace::budget(shadow.tracer.spans());
    let self_s = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| totals.get(n))
            .map(|t| t.self_ns as f64 / 1e9)
            .sum()
    };
    put(values, "ida.disperse_self_s", self_s(&["ida.disperse"]));
    put(
        values,
        "ida.reconstruct_self_s",
        self_s(&["ida.reconstruct"]),
    );
    put(
        values,
        "bauth.commit_self_s",
        self_s(&["bauth.leaf_hash", "bauth.tree_commit", "bauth.proof"]),
    );
    put(
        values,
        "bauth.verify_self_s",
        self_s(&["bauth.verify_block"]),
    );
    put(
        values,
        "ida.coded_share",
        shadow.coded as f64 / shadow.retrievals.max(1) as f64,
    );
    put(values, "ida.cached_inverses", shadow.cached_inverses as f64);
    if let Some(offers) = totals.get("bnet.reassemble") {
        put(
            values,
            "bnet.reassemble_ns_per_fragment",
            offers.total_ns as f64 / offers.count.max(1) as f64,
        );
    }
    // The two sides of the pipeline, per slot walked.
    let per_slot_us = |names: &[&str]| self_s(names) * 1e6 / shadow.slots.max(1) as f64;
    put(
        values,
        "facade.server_us_per_slot",
        per_slot_us(&[
            "bdisk.transmit",
            "brt.ring_publish",
            "bnet.frame",
            "bnet.send",
        ]),
    );
    put(
        values,
        "facade.client_us_per_slot",
        per_slot_us(&[
            "brt.ring_read",
            "bnet.recv",
            "bfault.apply",
            "bnet.decode",
            "bnet.reassemble",
            "bauth.verify_block",
            "bsim.is_lost",
            "bdisk.ingest",
            "ida.reconstruct",
        ]),
    );
    values.insert(
        "facade.residual_share",
        (
            budget.residual_share(),
            format!(
                "layers {:.4} + residual {:.4} of {} root spans",
                budget.layers_ns as f64 / budget.root_ns.max(1) as f64,
                budget.residual_share(),
                shadow.retrievals
            ),
        ),
    );
    let deployed = phases.untraced.goodput_bytes as f64 / phases.untraced.seconds.max(1e-9);
    let shadowed = shadow.goodput_bytes as f64 / (budget.root_ns.max(1) as f64 / 1e9);
    values.insert(
        "facade.shadow_goodput_ratio",
        (
            if deployed > 0.0 {
                shadowed / deployed
            } else {
                0.0
            },
            format!(
                "shadow {:.3} MB/s single-threaded / deployed {:.3} MB/s",
                shadowed / 1e6,
                deployed / 1e6
            ),
        ),
    );
    budget
}

/// What the deployed phases measured and counted.
fn from_phases(phases: &TracedPhases, values: &mut Values) {
    put(values, "facade.build_s", phases.setup.build_s);
    put(
        values,
        "facade.serve_start_ms",
        phases.setup.serve_start_s * 1e3,
    );
    if let Some(s) = phases.setup.control_subscribe_s {
        put(values, "bnet.control_subscribe_ms_p50", s * 1e3);
    }
    for (name, samples) in &phases.teardown.samples_ms {
        let spec = PER_LAYER.iter().find(|m| m.name == *name);
        if let (Some(spec), Some(t)) = (spec, stats::Timing::of(samples)) {
            values.insert(spec.name, (t.p50, t.note()));
        }
    }
    for (name, count) in &phases.teardown.counts {
        put(values, name, *count);
    }
    // Goodput of a phase the way the end-to-end metric reports it.
    let rate = |m: &Measured| {
        m.decile(Steady::High, |w| Some(w.bytes as f64 / w.seconds))
            .map_or(m.goodput_bytes as f64 / m.seconds.max(1e-9), |d| d.steady)
    };
    let (untraced, traced) = (rate(&phases.untraced), rate(&phases.traced));
    values.insert(
        "facade.trace_overhead_pct",
        (
            if untraced > 0.0 {
                (untraced - traced) / untraced * 100.0
            } else {
                0.0
            },
            format!(
                "untraced {:.3} MB/s over {:.1} s, traced {:.3} MB/s over {:.1} s",
                untraced / 1e6,
                phases.untraced.seconds,
                traced / 1e6,
                phases.traced.seconds
            ),
        ),
    );
}

pub fn measure(
    config: &RunConfig,
    catalog: &Catalog,
    phases: &TracedPhases,
    deployed: Tracer,
    budget: Duration,
    invalid: &mut Vec<String>,
) -> Result<LayerReport, String> {
    let shadow = shadow::run(config.kind, catalog, config.seed, budget.mul_f64(0.5))?;
    let mut values = Values::new();
    from_phases(phases, &mut values);
    let stage_budget = from_shadow(&shadow, phases, &mut values);
    if (stage_budget.coverage() - 1.0).abs() > 0.01 {
        invalid.push(format!(
            "the stage budget covers {:.4} of its root spans",
            stage_budget.coverage()
        ));
    }
    // Some sixty timed loops share the other half of the budget.
    let per_call = budget
        .mul_f64(0.5 / 60.0)
        .clamp(Duration::from_millis(2), Duration::from_millis(40));
    direct_calls(config.kind, catalog, &shadow, per_call, &mut values)?;

    let metrics = PER_LAYER
        .iter()
        .map(|spec| match values.remove(spec.name) {
            Some((value, note)) => Metric::new(spec.name, value, spec.unit).with_note(note),
            None => {
                Metric::new(spec.name, 0.0, spec.unit).with_note("not exercised by this workload")
            }
        })
        .collect();
    Ok(LayerReport {
        metrics,
        shadow_retrievals: shadow.retrievals,
        shadow_failed: shadow.failed,
        shadow_failures: shadow.failures.clone(),
        totals: shadow.tracer.totals(),
        budget: stage_budget,
        deployed,
        shadow: shadow.tracer,
    })
}
