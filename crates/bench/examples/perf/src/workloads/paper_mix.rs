//! `paper_mix`: the paper's six functions on one shared server (§VIII-D).
//!
//! Every function of `paper_suite` is launched `size` times in a seeded
//! shuffled order, with Poisson arrivals of mean gap 5 s, against one
//! server of 4 GPUs × 2 API servers (best-fit placement, full guest
//! optimisations). There is no autoscaling, admission control, obs plane
//! or telemetry, so control-plane and telemetry changes must not move it.

use std::sync::Arc;

use dgsf::server::GpuServerConfig;
use dgsf::serverless::{Schedule, Workload};
use dgsf::sim::{Dur, SimTime};
use dgsf::{PlatformConfig, Testbed};

use super::{Config, Instance, Outcome, PlatformRun, Timed};
use crate::rng::Rng;

/// Mean gap between launches: a rate the 4 GPUs sustain without queueing.
const MEAN_GAP_NS: u64 = 5_000_000_000;

/// Table II's DGSF column (seconds), in `paper_suite` order: kmeans,
/// covidctnet, face detection, face identification, nlp, image
/// classification. Fingler et al., "DGSF: Disaggregated GPUs for
/// Serverless Functions", IPDPS 2022, Table II.
const TABLE2_DGSF_SECS: [f64; 6] = [9.9, 22.4, 16.4, 10.5, 32.4, 24.8];

pub struct PaperMix(PlatformRun);

pub fn prepare(cfg: Config) -> PaperMix {
    let suite: Vec<Arc<dyn Workload>> = dgsf::workloads::paper_suite()
        .into_iter()
        .map(|w| Arc::new(Timed(w)) as Arc<dyn Workload>)
        .collect();
    let mut rng = Rng::new(cfg.seed, 2);
    let mut order: Vec<usize> = (0..suite.len())
        .flat_map(|w| std::iter::repeat_n(w, cfg.size as usize))
        .collect();
    rng.shuffle(&mut order);
    let mut at = 0u64;
    let entries = order
        .into_iter()
        .map(|w| {
            let entry = (SimTime::ZERO + Dur(at), w);
            at += rng.exp_ns(MEAN_GAP_NS);
            entry
        })
        .collect();
    let platform = PlatformConfig::paper_default()
        .with_seed(cfg.seed)
        .with_server(GpuServerConfig::paper_default().gpus(4).sharing(2));
    PaperMix(PlatformRun::new(
        platform,
        suite,
        Schedule { entries },
        cfg.telemetry,
    ))
}

impl Instance for PaperMix {
    fn run(&mut self) {
        self.0.run();
    }

    fn finish(self: Box<Self>) -> Outcome {
        let mut out = Box::new(self.0).finish();
        out.model_err_permille = Some(model_err_permille());
        out
    }
}

/// Mean relative error of the six solo DGSF runtimes against Table II, ‰,
/// on the paper's default testbed: a property of the cost model, not of
/// the seed.
fn model_err_permille() -> f64 {
    let testbed = PlatformConfig::paper_default().testbed();
    let errs: f64 = dgsf::workloads::paper_suite()
        .into_iter()
        .zip(TABLE2_DGSF_SECS)
        .map(|(w, paper)| {
            let sim = Testbed::run_dgsf_once(&testbed, w).e2e().as_secs_f64();
            (sim - paper).abs() / paper
        })
        .sum();
    errs / TABLE2_DGSF_SECS.len() as f64 * 1000.0
}
