//! `drive_fleet_lossy`: the simulation door.  No sockets, no threads —
//! `Station::run_until_complete` over fleets of staggered retrievals under
//! seeded Bernoulli loss.

use super::{ms, timed_build, Deployed, Kind, RefreshTimes, Refresher, SetupTimes, Teardown};
use crate::gen::{self, Catalog, Requests, Shape, Stream};
use crate::record::Recorder;
use crate::trace::{NameId, Tracer, NO_PARENT};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rtbdisk::{BernoulliErrors, Retrieval, Station, SwapPolicy};
use std::collections::BTreeMap;
use std::time::Instant;

/// Retrievals driven per pass.
const FLEET: usize = 32;

/// Per-reception loss probability.
const LOSS: f64 = 0.10;

pub struct Drive {
    shape: Shape,
    catalog: Catalog,
    station: Station,
    requests: Requests,
    loss_seeds: StdRng,
    refresher: Refresher,
    /// `busy[i]`: non-idle slots among the first `i` of one data cycle.
    busy: Vec<u64>,
    /// The next slot nobody has been driven through yet.
    cursor: usize,
    slots_driven: u64,
    air_bytes: u64,
    errors_injected: u64,
    sequence: u32,
    drive_span: NameId,
}

pub fn setup(
    kind: Kind,
    catalog: &Catalog,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Box<dyn Deployed>, SetupTimes), String> {
    let shape = kind.shape();
    let (station, build_s) = timed_build(catalog, &shape, tracer)?;

    // "First listener seated" is the first fleet holding its handles.
    let mut requests = Requests::new(&shape, seed);
    let t = Instant::now();
    let first = subscribe_fleet(&station, &mut requests, &shape, 0)?;
    let join_s = t.elapsed().as_secs_f64();
    drop(first);

    let cycle = station.program().data_cycle();
    let mut busy = vec![0u64; cycle + 1];
    for slot in 0..cycle {
        busy[slot + 1] = busy[slot] + u64::from(station.transmit(slot).is_some());
    }
    let drive = Drive {
        shape,
        catalog: catalog.clone(),
        station,
        // The timed fleets replay the request stream from its start.
        requests: Requests::new(&shape, seed),
        loss_seeds: StdRng::seed_from_u64(gen::sub_seed(seed, Stream::Loss)),
        refresher: Refresher::new(shape, seed, tracer),
        busy,
        cursor: 0,
        slots_driven: 0,
        air_bytes: 0,
        errors_injected: 0,
        sequence: 0,
        drive_span: tracer.name("facade.run_until_complete"),
    };
    let times = SetupTimes {
        build_s,
        join_s,
        ..SetupTimes::default()
    };
    Ok((Box::new(drive), times))
}

/// Subscribes one fleet: files drawn from the request stream, request slots
/// staggered across one fault-free latency window from `base`.
fn subscribe_fleet(
    station: &Station,
    requests: &mut Requests,
    shape: &Shape,
    base: usize,
) -> Result<Vec<Retrieval>, String> {
    (0..FLEET)
        .map(|_| {
            let file = requests.next_file();
            let at_slot = base + requests.below(shape.latencies[0] as usize);
            station
                .subscribe(file, at_slot)
                .map_err(|e| format!("subscribe {file}: {e}"))
        })
        .collect()
}

impl Drive {
    /// Non-idle slots in `[from, to)`.
    fn busy_slots(&self, from: usize, to: usize) -> u64 {
        let cycle = self.busy.len() - 1;
        let upto = |slot: usize| (slot / cycle) as u64 * self.busy[cycle] + self.busy[slot % cycle];
        upto(to) - upto(from)
    }
}

impl Deployed for Drive {
    fn step(&mut self, rec: &mut Recorder, tracer: &mut Tracer) {
        let base = self.cursor;
        let mut fleet = match subscribe_fleet(&self.station, &mut self.requests, &self.shape, base)
        {
            Ok(fleet) => fleet,
            Err(e) => return rec.failure(e),
        };
        let mut errors = BernoulliErrors::new(LOSS, self.loss_seeds.next_u64());
        let sequence = self.sequence;
        self.sequence += 1;
        let started = Instant::now();
        let span = tracer.begin(self.drive_span, NO_PARENT, sequence);
        let outcomes = self.station.run_until_complete(&mut fleet, &mut errors);
        tracer.end(span);
        let elapsed_ms = ms(started.elapsed());
        let outcomes = match outcomes {
            Ok(outcomes) => outcomes,
            Err(e) => {
                // The whole fleet is lost with the pass that drove it.
                self.cursor = base + self.station.listen_cap();
                (0..FLEET).for_each(|_| rec.failure(format!("run_until_complete: {e}")));
                return;
            }
        };
        let end = outcomes
            .iter()
            .map(|o| o.completion_slot + 1)
            .max()
            .expect("a fleet is not empty");
        self.cursor = end;
        self.slots_driven += (end - base) as u64;
        self.air_bytes += self.busy_slots(base, end) * self.shape.block_bytes as u64;
        let slots = self.slots_driven;
        for (retrieval, outcome) in fleet.iter().zip(&outcomes) {
            let file = outcome.file;
            self.errors_injected += outcome.errors_observed as u64;
            if outcome.data != self.catalog.contents[&file] {
                rec.failure(format!(
                    "{file}: reconstructed bytes differ from the catalog"
                ));
            } else if retrieval.within_declared_latency(outcome) == Some(false) {
                rec.failure(format!(
                    "{file}: Lemma 3 violated: {} faults, latency {}",
                    outcome.errors_observed,
                    outcome.latency()
                ));
            } else {
                // Every handle of a fleet has its bytes when the pass ends.
                rec.success(
                    outcome.data.len(),
                    elapsed_ms,
                    Some(outcome.latency()),
                    || slots,
                );
            }
        }
    }

    fn slots_served(&self) -> u64 {
        self.slots_driven
    }

    /// No wire here: the medium is the air, and what it carries is the
    /// block payloads of every non-idle slot driven.
    fn medium_bytes(&self) -> u64 {
        self.air_bytes
    }

    fn refresh(&mut self, tracer: &mut Tracer) -> Result<Option<RefreshTimes>, String> {
        let cursor = self.cursor;
        let (_, times) = self.refresher.refresh(
            &mut self.station,
            &mut self.catalog,
            tracer,
            self.sequence,
            |station, mode, contents| station.prepare_mode_with_contents(mode, contents),
            |station, prepared| {
                station
                    .swap(prepared, cursor, SwapPolicy::Immediate)
                    .map(drop)
            },
        )?;
        Ok(Some(times))
    }

    fn teardown(mut self: Box<Self>) -> Teardown {
        Teardown {
            counts: BTreeMap::from([
                ("bsim.errors_injected", self.errors_injected as f64),
                ("brt.slots_served", self.slots_driven as f64),
            ]),
            samples_ms: BTreeMap::from(self.refresher.take_samples()),
            ..Teardown::default()
        }
    }
}
