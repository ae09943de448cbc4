//! Monte-Carlo retrieval simulation.
//!
//! Drives a [`bdisk::BroadcastServer`] slot by slot, issuing client
//! retrievals at random request slots, passing every transmission through an
//! [`ErrorModel`], and collecting latency and deadline statistics.  This is
//! the workhorse behind the redundancy-level and block-size ablations.
//!
//! Its slot loop is its own, not `brt::drive`'s reader step: it serves a
//! bare `BroadcastServer` — the flat programs of Ablation C and the IVHS
//! example — which has no epoch timeline to resolve, so a client here only
//! ever listens.  Routing it through `brt` would add a `brt::Subscriber`
//! for `ClientSession` and a `bsim → brt` dependency, and delete nothing.

use crate::stats::{LatencySummary, MissReport};
use bdisk::{BroadcastServer, ClientSession, ErrorModel, Observation};
use ida::FileId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Number of retrievals to simulate per file.
    pub retrievals_per_file: usize,
    /// Per-file deadline in slots (retrievals completing later are misses);
    /// `None` disables deadline accounting for that purpose and only latency
    /// statistics are kept.
    pub deadline_slots: Option<usize>,
    /// Abort a retrieval (count it as a miss with this latency) after this
    /// many slots of listening — guards against pathological loss rates.
    pub max_listen_slots: usize,
    /// RNG seed for request-slot placement.
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            retrievals_per_file: 200,
            deadline_slots: None,
            max_listen_slots: 100_000,
            seed: 0xB0A5,
        }
    }
}

/// The per-file outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// The file simulated.
    pub file: FileId,
    /// Latency statistics over completed retrievals.
    pub latency: LatencySummary,
    /// Deadline accounting (only misses against `deadline_slots` plus any
    /// aborted retrievals).
    pub misses: MissReport,
    /// Total reception errors observed by the clients of this file.
    pub errors_observed: usize,
}

/// A Monte-Carlo retrieval simulator over one broadcast server.
pub struct RetrievalSimulator<'a, E: ErrorModel> {
    server: &'a BroadcastServer,
    error_model: E,
    config: SimulationConfig,
}

impl<'a, E: ErrorModel> RetrievalSimulator<'a, E> {
    /// Creates a simulator with the given error model.
    ///
    /// `source` is anything that exposes a broadcast server — a
    /// [`BroadcastServer`] itself, or the `rtbdisk` facade's `Station`.
    pub fn new(
        source: &'a impl AsRef<BroadcastServer>,
        error_model: E,
        config: SimulationConfig,
    ) -> Self {
        RetrievalSimulator {
            server: source.as_ref(),
            error_model,
            config,
        }
    }

    /// Simulates retrievals of `file` (needing `threshold` distinct blocks).
    pub fn run_file(&mut self, file: FileId, threshold: usize) -> SimulationReport {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ u64::from(file.0));
        let cycle = self.server.program().data_cycle().max(1);
        let mut latency = LatencySummary::new();
        let mut misses = MissReport::default();
        let mut errors_observed = 0usize;

        for _ in 0..self.config.retrievals_per_file {
            let request_slot = rng.gen_range(0..cycle);
            let mut session = ClientSession::new(file, threshold, request_slot);
            let mut slot = request_slot;
            let completed = loop {
                if slot - request_slot >= self.config.max_listen_slots {
                    break false;
                }
                let tx = self.server.transmit_ref(slot);
                let ok = match tx {
                    Some(t) => !self.error_model.is_lost(t),
                    None => true,
                };
                session.ingest(Observation::Slot {
                    transmission: tx,
                    received_ok: ok,
                });
                if session.is_complete() {
                    break true;
                }
                slot += 1;
            };
            errors_observed += session.errors_observed();
            if completed {
                let l = slot - request_slot + 1;
                latency.record(l);
                if let Some(deadline) = self.config.deadline_slots {
                    misses.record(l <= deadline);
                }
            } else {
                misses.record(false);
            }
        }
        SimulationReport {
            file,
            latency,
            misses,
            errors_observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BernoulliErrors;
    use bdisk::{BroadcastProgram, FlatOrder, NoErrors};

    fn server(dispersal_factor: f64) -> BroadcastServer {
        let files = crate::workload::uniform_file_set(4, 5, 32, dispersal_factor);
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        BroadcastServer::with_synthetic_contents(&files, program).unwrap()
    }

    #[test]
    fn lossless_channel_completes_within_one_broadcast_period() {
        let server = server(1.0);
        let period = server.program().broadcast_period();
        let mut sim = RetrievalSimulator::new(&server, NoErrors, SimulationConfig::default());
        let report = sim.run_file(FileId(0), 5);
        assert_eq!(report.latency.count(), 200);
        assert_eq!(report.errors_observed, 0);
        assert!(report.latency.max() <= period);
        assert_eq!(report.misses.miss_ratio(), 0.0);
    }

    #[test]
    fn redundancy_reduces_latency_under_loss() {
        // Same workload, 10% block loss: AIDA dispersal (factor 2) must beat
        // the undispersed layout on mean retrieval latency.
        let config = SimulationConfig {
            retrievals_per_file: 300,
            ..SimulationConfig::default()
        };
        let plain = server(1.0);
        let dispersed = server(2.0);
        let mut sim_plain =
            RetrievalSimulator::new(&plain, BernoulliErrors::new(0.10, 11), config.clone());
        let mut sim_disp =
            RetrievalSimulator::new(&dispersed, BernoulliErrors::new(0.10, 11), config);
        let plain_report = sim_plain.run_file(FileId(0), 5);
        let disp_report = sim_disp.run_file(FileId(0), 5);
        assert!(
            disp_report.latency.mean() < plain_report.latency.mean(),
            "dispersed {} !< plain {}",
            disp_report.latency.mean(),
            plain_report.latency.mean()
        );
    }

    #[test]
    fn deadlines_are_accounted() {
        let server = server(1.0);
        let config = SimulationConfig {
            retrievals_per_file: 100,
            deadline_slots: Some(server.program().broadcast_period()),
            ..SimulationConfig::default()
        };
        let mut sim = RetrievalSimulator::new(&server, NoErrors, config);
        let report = sim.run_file(FileId(1), 5);
        assert_eq!(report.misses.total(), 100);
        assert_eq!(report.misses.miss_ratio(), 0.0);
    }

    #[test]
    fn pathological_loss_rates_abort_rather_than_hang() {
        let server = server(1.0);
        let config = SimulationConfig {
            retrievals_per_file: 5,
            max_listen_slots: 200,
            ..SimulationConfig::default()
        };
        let mut sim = RetrievalSimulator::new(&server, BernoulliErrors::new(1.0, 3), config);
        let report = sim.run_file(FileId(0), 5);
        assert_eq!(report.latency.count(), 0);
        assert_eq!(report.misses.missed, 5);
        assert!(report.errors_observed > 0);
    }
}
