//! `dgsf-expt scale` — the million-invocation substrate benchmark.
//!
//! Drives a heavy-tailed open-loop trace through the real remoting stack:
//! a single generator emits invocations with exponential inter-arrival
//! gaps, a Zipf tenant mix, and log-normally distributed service times;
//! a fixed pool of worker/server pairs drains them as an M/G/k queue,
//! every invocation paying a full framed RPC round trip (encode →
//! uplink → decode → serve → respond → downlink → reply decode) through
//! the DES kernel. The process set is fixed — generator, workers,
//! servers — so a run past 1M invocations costs memory proportional to
//! the latency sample, not the invocation count.
//!
//! Everything in `BENCH_scale.json` is an integer derived from virtual
//! time and kernel event counts, so the file is **byte-identical per
//! seed** across runs and machines — CI diffs the quick variant against
//! a committed golden. Wall-clock throughput (events/sec, invocations/
//! sec) is *not* in the JSON; the binary prints it alongside.

use std::sync::Arc;

use dgsf::remoting::wire::{Request, Response, WireArgs};
use dgsf::remoting::{NetLink, NetProfile, RpcClient, RpcInbox};
use dgsf::sim::json::JsonWriter;
use dgsf::sim::json::Layout::{Inline, Lines};
use dgsf::sim::stats::percentile_permille;
use dgsf::sim::{rng, Dur, Sim, SimTime};
use parking_lot::Mutex;

use crate::report::TextTable;

/// One scale run's shape. `quick` is the CI smoke; `full` crosses the
/// million-invocation line.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Base RNG seed.
    pub seed: u64,
    /// Invocations the generator emits.
    pub invocations: u64,
    /// Distinct tenants in the Zipf mix.
    pub tenants: usize,
    /// Worker/server pairs (the `k` of the M/G/k queue).
    pub servers: usize,
    /// Mean inter-arrival gap of the open-loop trace.
    pub mean_gap: Dur,
    /// Log of the median service time, in seconds (`mu` of the log-normal).
    pub service_mu: f64,
    /// Spread of the log service time (`sigma` of the log-normal).
    pub service_sigma: f64,
    /// Zipf skew of the tenant mix.
    pub zipf_s: f64,
    /// Progress checkpoints taken at fixed virtual times.
    pub checkpoints: usize,
}

impl ScaleConfig {
    /// CI smoke: 50k invocations, a few seconds of wall time.
    pub fn quick(seed: u64) -> ScaleConfig {
        ScaleConfig {
            invocations: 50_000,
            ..ScaleConfig::full(seed)
        }
    }

    /// The headline run: 1.2M invocations through the fixed process set.
    pub fn full(seed: u64) -> ScaleConfig {
        ScaleConfig {
            seed,
            invocations: 1_200_000,
            tenants: 64,
            servers: 6,
            // 1250 req/s offered against ~1800 req/s of capacity
            // (6 servers × mean service e^{mu + sigma²/2} ≈ 3.3 ms).
            mean_gap: Dur::from_micros(800),
            service_mu: (0.002f64).ln(), // 2 ms median
            service_sigma: 1.0,          // heavy tail: mean ≈ 1.65 × median
            zipf_s: 1.1,
            checkpoints: 8,
        }
    }
}

/// A progress snapshot at a fixed virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleCheckpoint {
    /// Virtual time of the snapshot (milliseconds).
    pub virtual_ms: u64,
    /// Invocations completed by then.
    pub completed: u64,
    /// Kernel events executed by then.
    pub events: u64,
}

/// The whole run. All integers (virtual-time derived), so the JSON
/// rendering is byte-stable per seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleOutput {
    /// Seed the trace derives from.
    pub seed: u64,
    /// Invocations emitted.
    pub invocations: u64,
    /// Invocations that completed a full RPC round trip.
    pub completed: u64,
    /// Distinct tenants.
    pub tenants: u64,
    /// Worker/server pairs.
    pub servers: u64,
    /// Median end-to-end latency (queue wait + round trip + service), µs.
    pub p50_us: u64,
    /// 99th-percentile end-to-end latency, µs.
    pub p99_us: u64,
    /// 99.9th-percentile end-to-end latency, µs.
    pub p999_us: u64,
    /// Worst end-to-end latency, µs.
    pub max_us: u64,
    /// Virtual makespan (first arrival to last completion), ms.
    pub virtual_ms: u64,
    /// Kernel events executed over the whole run.
    pub events: u64,
    /// Kernel events per completed invocation, ×1000.
    pub events_per_invocation_milli: u64,
    /// Share of completions belonging to the hottest tenant, ‰.
    pub hot_tenant_permille: u64,
    /// Progress curve at fixed virtual times.
    pub checkpoints: Vec<ScaleCheckpoint>,
}

/// An invocation in flight between the generator and a worker.
struct Invocation {
    arrival: SimTime,
    tenant: u32,
    service_ns: u64,
}

/// Run the trace. Returns the deterministic output plus the wall-clock
/// seconds the kernel took (for the throughput line the caller prints —
/// never serialized).
pub fn scale(cfg: &ScaleConfig) -> (ScaleOutput, f64) {
    assert!(cfg.servers > 0 && cfg.tenants > 0 && cfg.invocations > 0);
    let mut sim = Sim::new(cfg.seed);
    let h = sim.handle();

    // Completed invocations: (latency_ns, tenant). Completion order is
    // deterministic, so the vector is too.
    let done: Arc<Mutex<Vec<(u64, u32)>>> =
        Arc::new(Mutex::new(Vec::with_capacity(cfg.invocations as usize)));

    let (inv_tx, inv_rx) = h.channel::<Invocation>();

    // Worker/server pairs: each worker owns one client/inbox connection
    // and serializes its server's service times by blocking on the call.
    for s in 0..cfg.servers {
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
        let srv_link = link.clone();
        sim.spawn(&format!("server-{s}"), move |p| {
            while let Some(env) = inbox.next(p) {
                let req = RpcInbox::decode(&env).expect("scale frames always decode");
                if let Request::Launch { args, .. } = &req {
                    p.sleep(Dur(args.scalars[0]));
                }
                inbox.respond(p, &srv_link, &env, &Response::Ok);
            }
        });
        let rx = inv_rx.clone();
        let done = done.clone();
        sim.spawn(&format!("worker-{s}"), move |p| {
            while let Some(inv) = rx.recv(p) {
                let req = Request::Launch {
                    fptr: inv.tenant as u64,
                    args: WireArgs {
                        ptrs: vec![inv.tenant as u64],
                        scalars: vec![inv.service_ns],
                        bytes: 0,
                        work_hint: None,
                    },
                };
                let resp = client.call(p, &req).expect("scale servers never fail");
                assert_eq!(resp, Response::Ok);
                done.lock()
                    .push((p.now().since(inv.arrival).as_nanos(), inv.tenant));
            }
        });
    }
    drop(inv_rx);

    // Open-loop generator: arrivals never wait on completions; backlog
    // queues in the invocation channel.
    let gen_cfg = cfg.clone();
    sim.spawn("generator", move |p| {
        let zipf = rng::Zipf::new(gen_cfg.tenants, gen_cfg.zipf_s);
        for _ in 0..gen_cfg.invocations {
            let gap = p.with_rng(|r| rng::exp_gap(r, gen_cfg.mean_gap));
            p.sleep(gap);
            let tenant = p.with_rng(|r| zipf.sample(r)) as u32;
            let service =
                p.with_rng(|r| rng::lognormal_dur(r, gen_cfg.service_mu, gen_cfg.service_sigma));
            inv_tx.send(
                p,
                Invocation {
                    arrival: p.now(),
                    tenant,
                    service_ns: service.as_nanos().max(1),
                },
            );
        }
        // Dropping the sender lets workers (then servers) drain and exit.
    });

    // Drive the run in fixed virtual-time slices so the progress curve is
    // part of the deterministic artifact, then run the tail to completion.
    let wall = std::time::Instant::now();
    let horizon = Dur(cfg.mean_gap.as_nanos().saturating_mul(cfg.invocations));
    let mut checkpoints = Vec::with_capacity(cfg.checkpoints + 1);
    for k in 1..=cfg.checkpoints as u64 {
        let deadline = SimTime::ZERO + Dur(horizon.as_nanos() / cfg.checkpoints as u64 * k);
        let at = sim.run_until(deadline);
        checkpoints.push(ScaleCheckpoint {
            virtual_ms: at.max(deadline).as_nanos() / 1_000_000,
            completed: done.lock().len() as u64,
            events: sim.events_executed(),
        });
    }
    let end = sim.run();
    let wall_secs = wall.elapsed().as_secs_f64();
    let events = sim.events_executed();
    checkpoints.push(ScaleCheckpoint {
        virtual_ms: end.as_nanos() / 1_000_000,
        completed: done.lock().len() as u64,
        events,
    });

    let done = Arc::try_unwrap(done)
        .map(Mutex::into_inner)
        .unwrap_or_else(|d| d.lock().clone());
    let completed = done.len() as u64;
    let hot = done.iter().filter(|(_, t)| *t == 0).count() as u64;
    let mut lat_us: Vec<u64> = done.iter().map(|(ns, _)| ns / 1_000).collect();
    lat_us.sort_unstable();

    let out = ScaleOutput {
        seed: cfg.seed,
        invocations: cfg.invocations,
        completed,
        tenants: cfg.tenants as u64,
        servers: cfg.servers as u64,
        p50_us: percentile_permille(&lat_us, 500),
        p99_us: percentile_permille(&lat_us, 990),
        p999_us: percentile_permille(&lat_us, 999),
        max_us: lat_us.last().copied().unwrap_or(0),
        virtual_ms: end.as_nanos() / 1_000_000,
        events,
        events_per_invocation_milli: events
            .saturating_mul(1000)
            .checked_div(completed)
            .unwrap_or(0),
        hot_tenant_permille: hot.saturating_mul(1000).checked_div(completed).unwrap_or(0),
        checkpoints,
    };
    (out, wall_secs)
}

/// Render the run as JSON. Integers only — byte-identical per seed.
pub fn scale_json(s: &ScaleOutput) -> String {
    let mut j = JsonWriter::new();
    j.object(Lines(2), |j| {
        j.key("seed").u64(s.seed);
        j.key("invocations").u64(s.invocations);
        j.key("completed").u64(s.completed);
        j.key("tenants").u64(s.tenants);
        j.key("servers").u64(s.servers);
        j.key("p50_us").u64(s.p50_us);
        j.key("p99_us").u64(s.p99_us);
        j.key("p999_us").u64(s.p999_us);
        j.key("max_us").u64(s.max_us);
        j.key("virtual_ms").u64(s.virtual_ms);
        j.key("events").u64(s.events);
        j.key("events_per_invocation_milli")
            .u64(s.events_per_invocation_milli);
        j.key("hot_tenant_permille").u64(s.hot_tenant_permille);
        j.key("checkpoints").array(Lines(4), |j| {
            for c in &s.checkpoints {
                j.object(Inline, |j| {
                    j.key("virtual_ms").u64(c.virtual_ms);
                    j.key("completed").u64(c.completed);
                    j.key("events").u64(c.events);
                });
            }
        });
    });
    j.finish()
}

/// Human-readable summary, including the wall-clock throughput lines that
/// stay out of the deterministic JSON.
pub fn scale_text(s: &ScaleOutput, wall_secs: f64) -> String {
    let mut t = TextTable::new(vec![
        "invocations",
        "completed",
        "p50 e2e",
        "p99 e2e",
        "p99.9 e2e",
        "virtual",
        "events",
        "ev/invocation",
        "hot tenant",
    ]);
    t.row(vec![
        s.invocations.to_string(),
        s.completed.to_string(),
        format!("{:.2}ms", s.p50_us as f64 / 1e3),
        format!("{:.2}ms", s.p99_us as f64 / 1e3),
        format!("{:.2}ms", s.p999_us as f64 / 1e3),
        format!("{:.1}s", s.virtual_ms as f64 / 1e3),
        s.events.to_string(),
        format!("{:.1}", s.events_per_invocation_milli as f64 / 1e3),
        format!("{:.1}%", s.hot_tenant_permille as f64 / 10.0),
    ]);
    let mut out = t.render();
    if wall_secs > 0.0 {
        out.push_str(&format!(
            "wall: {:.1}s — {:.0} events/sec, {:.0} invocations/sec\n",
            wall_secs,
            s.events as f64 / wall_secs,
            s.completed as f64 / wall_secs,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> ScaleConfig {
        ScaleConfig {
            invocations: 400,
            checkpoints: 4,
            ..ScaleConfig::full(seed)
        }
    }

    #[test]
    fn tiny_trace_completes_everything_deterministically() {
        let (a, _) = scale(&tiny(42));
        assert_eq!(a.completed, 400);
        assert!(a.p50_us >= 120, "at least the RPC round trip: {}", a.p50_us);
        assert!(a.p99_us >= a.p50_us && a.max_us >= a.p999_us);
        assert!(a.events > 400, "several kernel events per invocation");
        assert_eq!(a.checkpoints.len(), 5);
        assert!(a.hot_tenant_permille > 100, "Zipf mix concentrates rank 0");
        let (b, _) = scale(&tiny(42));
        assert_eq!(a, b, "same seed ⇒ identical output");
        assert_eq!(scale_json(&a), scale_json(&b));
        let (c, _) = scale(&tiny(43));
        assert_ne!(a, c, "different seed ⇒ different trace");
    }

    #[test]
    fn checkpoints_are_monotone() {
        let (out, _) = scale(&tiny(7));
        for w in out.checkpoints.windows(2) {
            assert!(w[1].virtual_ms >= w[0].virtual_ms);
            assert!(w[1].completed >= w[0].completed);
            assert!(w[1].events > w[0].events);
        }
    }
}
