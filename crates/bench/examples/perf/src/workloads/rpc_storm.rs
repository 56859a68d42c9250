//! `rpc_storm`: the `scale` trace, as the benchmark's own copy.
//!
//! One open-loop generator emits invocations with exponential gaps (mean
//! 800 µs), a Zipf(1.1) tenant mix over 64 tenants and log-normal service
//! times (median 2 ms, σ = 1). Six worker/server pairs each drain them as
//! one framed `Launch` round trip over a 60 µs / 10 Gb/s link, so only the
//! simulation kernel and the remoting layer (codec, link, transport) do
//! work here: no CUDA session, GPU, server or serverless code runs.

use std::sync::{Arc, Mutex};

use dgsf::remoting::wire::{err_class, Request, Response, WireArgs};
use dgsf::remoting::{NetLink, NetProfile, RpcClient, RpcInbox};
use dgsf::sim::{Dur, Sim, SimTime};

use super::{Config, Instance, Outcome};
use crate::rng::{Rng, Zipf};
use crate::spans::span;

const TENANTS: usize = 64;
const ZIPF_S: f64 = 1.1;
const SERVERS: usize = 6;
const MEAN_GAP_NS: u64 = 800_000;
const SERVICE_MEDIAN_NS: f64 = 2e6;
const SERVICE_SIGMA: f64 = 1.0;

/// One scheduled invocation.
struct Invocation {
    id: u64,
    arrival: SimTime,
    tenant: u32,
    service_ns: u64,
}

/// What a worker records per completed invocation.
#[derive(Clone, Copy)]
struct Done {
    id: u64,
    latency_ns: u64,
    queue_ns: u64,
    ok: bool,
}

pub struct RpcStorm {
    sim: Sim,
    launched: u64,
    done: Arc<Mutex<Vec<Done>>>,
}

/// Generate the trace and build the simulation: generator, workers and
/// servers are spawned here, so the timed region is the run alone.
pub fn prepare(cfg: Config) -> RpcStorm {
    let mut rng = Rng::new(cfg.seed, 1);
    let zipf = Zipf::new(TENANTS, ZIPF_S);
    let mut at = 0u64;
    let trace: Vec<Invocation> = (0..cfg.size)
        .map(|id| {
            at += rng.exp_ns(MEAN_GAP_NS);
            Invocation {
                id,
                arrival: SimTime::ZERO + Dur(at),
                tenant: zipf.sample(&mut rng) as u32,
                service_ns: rng.lognormal_ns(SERVICE_MEDIAN_NS, SERVICE_SIGMA),
            }
        })
        .collect();

    let sim = Sim::new(cfg.seed);
    if cfg.telemetry {
        sim.telemetry().enable();
    }
    let h = sim.handle();
    let done = Arc::new(Mutex::new(Vec::with_capacity(trace.len())));
    let (inv_tx, inv_rx) = h.channel::<Invocation>();
    for s in 0..SERVERS {
        let link = NetLink::new(
            &h,
            NetProfile {
                rpc_latency: Dur::from_micros(60),
                rpc_jitter: Dur::ZERO,
                nic_bw: 1.25e9,
                s3_bw: 0.15e9,
            },
        );
        let (client, inbox) = RpcClient::connect(&h, link.clone());
        // Servers and workers stay parked on their inboxes once the trace
        // ends, until the `Sim` is dropped; a span around a whole body would
        // close only then, after recording stopped, so each covers one turn.
        sim.spawn(&format!("server-{s}"), move |p| loop {
            let _turn = span("rpc_storm.server");
            let Some(env) = inbox.next(p) else { break };
            let req = {
                let _s = span("remoting.serve");
                RpcInbox::decode(&env)
            };
            let resp = match req {
                Ok(Request::Launch { args, .. }) => {
                    p.sleep(Dur(args.scalars[0]));
                    Response::Ok
                }
                _ => Response::Err {
                    class: err_class::INVALID_VALUE,
                    msg: "rpc_storm serves Launch only".into(),
                },
            };
            let _s = span("remoting.serve");
            inbox.respond(p, &link, &env, &resp);
        });
        let rx = inv_rx.clone();
        let done = Arc::clone(&done);
        sim.spawn(&format!("worker-{s}"), move |p| loop {
            let _turn = span("rpc_storm.worker");
            let Some(inv) = rx.recv(p) else { break };
            let queue_ns = p.now().since(inv.arrival).as_nanos();
            let req = Request::Launch {
                fptr: inv.tenant as u64,
                args: WireArgs {
                    ptrs: vec![inv.tenant as u64],
                    scalars: vec![inv.service_ns],
                    bytes: 0,
                    work_hint: None,
                },
            };
            let resp = {
                let _s = span("remoting.call");
                client.call(p, &req)
            };
            done.lock().expect("worker results lock").push(Done {
                id: inv.id,
                latency_ns: p.now().since(inv.arrival).as_nanos(),
                queue_ns,
                ok: resp == Ok(Response::Ok),
            });
        });
    }
    drop(inv_rx);
    sim.spawn("generator", move |p| {
        let _body = span("rpc_storm.generator");
        for inv in trace {
            p.sleep_until(inv.arrival);
            inv_tx.send(p, inv);
        }
    });
    RpcStorm {
        sim,
        launched: cfg.size,
        done,
    }
}

impl Instance for RpcStorm {
    fn run(&mut self) {
        let _s = span("sim.run");
        self.sim.run();
    }

    fn finish(self: Box<Self>) -> Outcome {
        let done = std::mem::take(&mut *self.done.lock().expect("worker results lock"));
        let ok = done.iter().filter(|d| d.ok).count() as u64;
        let mut out = Outcome {
            launched: self.launched,
            completed: ok,
            failed: self.launched - ok,
            latencies: done
                .iter()
                .filter(|d| d.ok)
                .map(|d| (d.id, d.latency_ns))
                .collect(),
            queue_delays: done.iter().map(|d| d.queue_ns).collect(),
            attempts: done.len() as u64,
            e2e_ns: done.iter().map(|d| d.latency_ns).sum(),
            events: Some(self.sim.events_executed()),
            telemetry: Some(self.sim.telemetry()),
            ..Outcome::default()
        };
        let n = done.len() as u64;
        let launched = self.launched;
        out.check(n == launched, || {
            format!("{n} of {launched} invocations completed a round trip")
        });
        out.check(ok == n, || format!("{} replies were not Ok", n - ok));
        out.check_accounting();
        out
    }
}
