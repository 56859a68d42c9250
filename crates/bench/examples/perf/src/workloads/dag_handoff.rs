//! `dag_handoff`: three-stage DAGs over both handoff paths.
//!
//! `pipeline3` DAGs (8 MB input, 64–192 MB intermediates, 1 MB output, GPU
//! time 0.02 / 0.15 / 0.02 s per stage) arrive as a Poisson stream of mean
//! gap 500 ms at one 2-GPU server. Each DAG belongs to tenant `acme`,
//! which bounces intermediates through the host, or to `globex`, which
//! keeps them GPU-resident. The remoting link carries a few bulk transfers
//! here instead of `rpc_storm`'s many tiny frames, and resident
//! publish/adopt plus successor pinning run on every `globex` DAG.

use std::sync::{Arc, Mutex};

use dgsf::cuda::ResidentEvent;
use dgsf::remoting::{NetProfile, OptConfig};
use dgsf::server::{GpuServer, GpuServerConfig};
use dgsf::serverless::{
    phase, DagResult, DagWorkload, HandoffMode, InvokeOptions, Invoker, ObjectStore,
};
use dgsf::sim::{Dur, Sim, SimTime};

use super::{Config, Instance, Outcome};
use crate::rng::Rng;
use crate::spans::span;

const MB: u64 = 1 << 20;
const INPUT_BYTES: u64 = 8 * MB;
/// Intermediate tensors are drawn uniformly from 64..=192 MB per DAG (mean
/// 128 MB), so latencies spread instead of sitting on a few values.
const INTER_MB: (u64, u64) = (64, 192);
const FINAL_BYTES: u64 = MB;
const STAGE_SECS: [f64; 3] = [0.02, 0.15, 0.02];
const MEAN_GAP_NS: u64 = 500_000_000;
/// Whole-DAG attempts `invoke_dag` may take (only transient failures
/// retry; the benchmark's link is fault-free).
const MAX_ATTEMPTS: u32 = 3;

type Results = Arc<Mutex<Vec<(u64, DagResult)>>>;

pub struct DagHandoff {
    sim: Sim,
    launched: u64,
    results: Results,
    server: Arc<Mutex<Option<Arc<GpuServer>>>>,
}

pub fn prepare(cfg: Config) -> DagHandoff {
    let mut rng = Rng::new(cfg.seed, 4);
    let mut at = 0u64;
    let launches: Vec<(u64, SimTime, DagWorkload)> = (0..cfg.size)
        .map(|id| {
            at += rng.exp_ns(MEAN_GAP_NS);
            let (tenant, mode) = if rng.below(2) == 0 {
                ("acme", HandoffMode::HostBounce)
            } else {
                ("globex", HandoffMode::GpuResident)
            };
            let inter = (INTER_MB.0 + rng.below(INTER_MB.1 - INTER_MB.0 + 1)) * MB;
            let dag =
                DagWorkload::pipeline3("vision", mode, INPUT_BYTES, inter, FINAL_BYTES, STAGE_SECS)
                    .with_tenant(tenant);
            (id, SimTime::ZERO + Dur(at), dag)
        })
        .collect();

    let sim = Sim::new(cfg.seed);
    if cfg.telemetry {
        sim.telemetry().enable();
    }
    let results: Results = Arc::new(Mutex::new(Vec::with_capacity(launches.len())));
    let server_slot = Arc::new(Mutex::new(None));
    let (r2, s2) = (Arc::clone(&results), Arc::clone(&server_slot));
    let h = sim.handle();
    // One open-loop generator: it provisions the server, then spawns each
    // DAG at its scheduled arrival.
    sim.spawn("generator", move |p| {
        let server = GpuServer::provision(p, &h, GpuServerConfig::paper_default().gpus(2));
        *s2.lock().expect("server slot lock") = Some(Arc::clone(&server));
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        for (id, at, dag) in launches {
            p.sleep_until(at);
            let (server, store, results) =
                (Arc::clone(&server), Arc::clone(&store), Arc::clone(&r2));
            p.spawn(&format!("dag-{id}"), move |p| {
                let _s = span("serverless.invoke_dag");
                let r = Invoker::new(&server, &store).invoke_dag(
                    p,
                    &dag,
                    InvokeOptions::new(OptConfig::full()),
                    MAX_ATTEMPTS,
                );
                results.lock().expect("dag results lock").push((id, r));
            });
        }
    });
    DagHandoff {
        sim,
        launched: cfg.size,
        results,
        server: server_slot,
    }
}

impl Instance for DagHandoff {
    fn run(&mut self) {
        let _s = span("sim.run");
        self.sim.run();
    }

    fn finish(self: Box<Self>) -> Outcome {
        let mut runs = std::mem::take(&mut *self.results.lock().expect("dag results lock"));
        runs.sort_by_key(|(id, _)| *id);
        let server = self
            .server
            .lock()
            .expect("server slot lock")
            .clone()
            .expect("the generator provisioned the server");
        let ok = |r: &DagResult| r.succeeded();
        let mut out = Outcome {
            launched: self.launched,
            completed: runs.iter().filter(|(_, r)| ok(r)).count() as u64,
            shed: runs.iter().filter(|(_, r)| r.shed).count() as u64,
            failed: runs.iter().filter(|(_, r)| !ok(r) && !r.shed).count() as u64,
            latencies: runs
                .iter()
                .filter(|(_, r)| ok(r))
                .map(|(id, r)| (*id, r.e2e().as_nanos()))
                .collect(),
            queue_delays: server
                .records()
                .iter()
                .filter_map(|r| r.queue_delay())
                .map(|d| d.as_nanos())
                .collect(),
            attempts: runs.iter().map(|(_, r)| r.attempts as u64).sum(),
            transfer_ns: runs
                .iter()
                .flat_map(|(_, r)| &r.stages)
                .map(|s| s.phases.get(phase::TRANSFER).as_nanos())
                .sum(),
            e2e_ns: runs.iter().map(|(_, r)| r.e2e().as_nanos()).sum(),
            resident_adopts: server
                .resident_events()
                .iter()
                .filter(|e| matches!(e, ResidentEvent::Adopted { .. }))
                .count() as u64,
            events: Some(self.sim.events_executed()),
            telemetry: Some(self.sim.telemetry()),
            ..Outcome::default()
        };
        let n = runs.len() as u64;
        let launched = self.launched;
        out.check(n == launched, || format!("{n} of {launched} DAGs returned"));
        for v in dgsf::check_resident_handoff(&server)
            .violations
            .into_iter()
            .chain(dgsf::check_memory_balance(&server, true).violations)
        {
            out.violations.push(format!("{}: {}", v.rule, v.detail));
        }
        out.check_accounting();
        out
    }
}
