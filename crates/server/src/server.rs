//! Provisioning and the public handle of one disaggregated GPU server.
//!
//! The *manager* "is responsible for setting up the environment, checking
//! the available GPUs and creating the monitor and the initial idle API
//! servers" (§V-A). [`GpuServer::provision`] plays that role: it builds the
//! physical GPUs, pre-initializes one CUDA context plus cuDNN/cuBLAS handle
//! pools per API server (the 755 MB idle footprint, charged immediately but
//! off any function's critical path), and spawns the monitor and API server
//! processes.

use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::{CostTable, ModuleRegistry};
use dgsf_gpu::{Gpu, GpuId};
use dgsf_remoting::{FaultStats, LinkFaults, NetLink, RpcClient};
use dgsf_sim::{
    lit, Dur, ObsPlane, ProcCtx, RecvError, SimCell, SimHandle, SimSender, SimTime, TraceCtx,
};

use crate::api_server::{start_api_server, ApiServerEnv, MigrationRecord};
use crate::config::GpuServerConfig;
use crate::monitor::{
    run_monitor, FnRequest, GpuKeys, InvocationRecord, MonCtx, MonitorMsg, RecordBook, SrvBook,
};

/// Why [`GpuServer::try_request_gpu`] could not hand out a virtual GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireError {
    /// The configured queue timeout elapsed before any API server freed up.
    Timeout {
        /// How long the request waited in the monitor's queue.
        waited: Dur,
    },
    /// The simulation is shutting down; no more assignments will happen.
    Shutdown,
}

impl std::fmt::Display for AcquireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcquireError::Timeout { waited } => {
                write!(f, "gave up queueing for a GPU after {waited:?}")
            }
            AcquireError::Shutdown => write!(f, "GPU server shutting down"),
        }
    }
}

impl std::error::Error for AcquireError {}

/// One gauge snapshot of a GPU server, exported by the monitor's
/// bookkeeping for the cluster balancer (and any other external observer).
/// All counts are the monitor's view — a killed-but-undetected API server
/// still counts as live until its lease expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerGauges {
    /// API servers in the pool (provisioned + autoscaled − retired),
    /// including ones whose lease has expired.
    pub pool_size: usize,
    /// API servers whose lease expired (declared dead by the monitor and
    /// excluded from placement forever).
    pub failed_api_servers: usize,
    /// Functions on this server: assigned-but-unfinished plus queued.
    pub active_functions: usize,
    /// Functions still waiting in the monitor's queue.
    pub queued_functions: usize,
    /// Bytes of GPU memory currently reserved across all GPUs.
    pub used_mem_bytes: u64,
    /// Total GPU memory across all GPUs.
    pub total_mem_bytes: u64,
    /// API servers mid-migration (requested or state transfer in flight).
    /// A migrating server is briefly stalled, so the balancer steers new
    /// work away from the box until the move commits.
    pub migrations_in_flight: usize,
}

impl ServerGauges {
    /// API servers the monitor still considers placeable.
    pub fn live_api_servers(&self) -> usize {
        self.pool_size.saturating_sub(self.failed_api_servers)
    }

    /// True while at least one API server holds a valid lease. A server
    /// whose whole pool is lease-expired serves nothing; the balancer must
    /// never route to it.
    pub fn lease_live(&self) -> bool {
        self.live_api_servers() > 0
    }

    /// Memory pressure in integer permille of total capacity.
    pub fn mem_used_permille(&self) -> u64 {
        if self.total_mem_bytes == 0 {
            return 1000;
        }
        ((self.used_mem_bytes as u128 * 1000) / self.total_mem_bytes as u128) as u64
    }
}

/// A provisioned, running GPU server.
pub struct GpuServer {
    /// The physical GPUs.
    pub gpus: Vec<Rc<Gpu>>,
    /// The server's NIC.
    pub link: Arc<NetLink>,
    /// Calibrated cost table in force.
    pub costs: Arc<CostTable>,
    cfg: GpuServerConfig,
    handle: SimHandle,
    monitor_tx: SimSender<MonitorMsg>,
    /// The API servers, shared with the monitor: the autoscaler pushes
    /// spawned servers and removes retired ones.
    servers: Rc<SimCell<Vec<SrvBook>>>,
    records: Rc<SimCell<RecordBook>>,
    migration_log: Rc<SimCell<Vec<MigrationRecord>>>,
    faults: Option<Rc<LinkFaults>>,
}

impl GpuServer {
    /// Provision a GPU server. Must be called from a simulated process (the
    /// platform's root); API servers and the monitor are spawned as
    /// sibling processes and are ready immediately (warm pool — the paper
    /// always measures warm starts, §VI).
    pub fn provision(p: &ProcCtx, h: &SimHandle, cfg: GpuServerConfig) -> Arc<GpuServer> {
        GpuServer::provision_observed(p, h, cfg, None)
    }

    /// Like [`GpuServer::provision`], but wires an online observability
    /// plane into the monitor under a stable server label (e.g. `srv0`):
    /// the monitor feeds per-GPU health scores each tick, and a predictive
    /// autoscaler ([`crate::AutoscaleConfig::predictive`]) reads the
    /// plane's streamed rate-ramp and queue-attribution signals.
    #[expect(
        clippy::arc_with_non_send_sync,
        reason = "`GpuServer::provision` returns an `Arc`, an entry point the benchmark \
                  pins; it becomes an `Rc` when ROADMAP item 1 re-pins the benchmark"
    )]
    pub fn provision_observed(
        p: &ProcCtx,
        h: &SimHandle,
        cfg: GpuServerConfig,
        obs: Option<(Rc<ObsPlane>, String)>,
    ) -> Arc<GpuServer> {
        let mut cfg = cfg;
        // Chaos implies hardening: a faulted run must terminate even when
        // requests or replies vanish, so installing a fault plan fills in
        // defaults for every timeout the user left open.
        if cfg.faults.is_some() {
            cfg.rpc_timeout.get_or_insert(Dur::from_secs(5));
            cfg.idle_timeout.get_or_insert(Dur::from_secs(10));
            cfg.queue_timeout.get_or_insert(Dur::from_secs(60));
        }
        let costs = Arc::new(cfg.costs.clone());
        let gpus: Vec<Rc<Gpu>> = (0..cfg.num_gpus).map(|i| Gpu::v100(h, GpuId(i))).collect();
        let faults = cfg
            .faults
            .as_ref()
            .filter(|plan| plan.has_link_faults() || plan.has_migration_faults())
            .map(|plan| LinkFaults::new(h, plan));
        let link = NetLink::with_faults(h, cfg.net.clone(), faults.clone());
        let (monitor_tx, monitor_rx) = h.channel::<MonitorMsg>();
        let records = Rc::new(SimCell::new(h, RecordBook::default()));
        let migration_log = Rc::new(SimCell::new(h, Vec::new()));

        let env = ApiServerEnv {
            h: h.clone(),
            gpus: gpus.clone(),
            costs: Arc::clone(&costs),
            link: Arc::clone(&link),
            monitor_tx: monitor_tx.clone(),
            migration_log: Rc::clone(&migration_log),
            idle_timeout: cfg.idle_timeout,
            kills: cfg
                .faults
                .as_ref()
                .map_or(&[][..], |plan| plan.kills())
                .into(),
        };
        let servers: Vec<SrvBook> = (0..cfg.total_api_servers())
            .map(|id| {
                let started = start_api_server(p, &env, id, GpuId(id % cfg.num_gpus))
                    .expect("a fresh GPU fits an API server's idle footprint");
                SrvBook::new(started, p.now())
            })
            .collect();
        let servers = Rc::new(SimCell::new(h, servers));
        let monitor = MonCtx {
            env,
            cfg: cfg.clone(),
            records: Rc::clone(&records),
            servers: Rc::clone(&servers),
            gpu_keys: GpuKeys::for_gpus(cfg.num_gpus, obs.as_ref().map(|(_, l)| l.as_str())),
            obs: obs.map(|(obs, _)| obs),
        };
        h.spawn("monitor", move |pp| run_monitor(pp, monitor, monitor_rx));

        Arc::new(GpuServer {
            gpus,
            link,
            costs,
            cfg,
            handle: h.clone(),
            monitor_tx,
            servers,
            records,
            migration_log,
            faults,
        })
    }

    /// The configuration this server was provisioned with.
    pub fn config(&self) -> &GpuServerConfig {
        &self.cfg
    }

    /// Request a virtual GPU for a function: blocks (in virtual time,
    /// including FCFS queueing) until an API server is assigned, then
    /// returns the connected guest-side RPC client and the invocation id.
    /// Infallible convenience wrapper for fault-free runs; chaos-aware
    /// callers use [`try_request_gpu`](Self::try_request_gpu).
    pub fn request_gpu(
        &self,
        p: &ProcCtx,
        name: &str,
        mem: u64,
        registry: Arc<ModuleRegistry>,
    ) -> (RpcClient, u64) {
        self.try_request_gpu(p, name, mem, registry)
            .expect("monitor alive for the run's duration")
    }

    /// Fallible GPU request: gives up after the configured queue timeout
    /// (if any), marking the invocation failed so the retry layer can move
    /// on. The invocation is recorded as attempt 1.
    pub fn try_request_gpu(
        &self,
        p: &ProcCtx,
        name: &str,
        mem: u64,
        registry: Arc<ModuleRegistry>,
    ) -> Result<(RpcClient, u64), AcquireError> {
        self.try_request_gpu_with_timeout(
            p,
            name,
            mem,
            registry,
            self.cfg.queue_timeout,
            None,
            None,
        )
    }

    /// Like [`try_request_gpu`](Self::try_request_gpu), but with an
    /// explicit queue-wait bound overriding the configured one, an
    /// optional causal [`TraceCtx`] that rides the monitor's queue entry
    /// down to the API server, and an optional placement pin restricting
    /// assignment to one API server (GPU-resident DAG stages must land on
    /// the context holding their predecessor's output buffer). The
    /// serverless backend's admission control uses this to enforce its
    /// queue-age limit and thread request tracing. The invocation records
    /// the trace's attempt number (1-based; 1 without a trace or for a
    /// whole-request context), so chaos runs can reconstruct the retry
    /// history from the records alone.
    #[allow(clippy::too_many_arguments)]
    pub fn try_request_gpu_with_timeout(
        &self,
        p: &ProcCtx,
        name: &str,
        mem: u64,
        registry: Arc<ModuleRegistry>,
        timeout: Option<Dur>,
        trace: Option<TraceCtx>,
        pin_server: Option<u32>,
    ) -> Result<(RpcClient, u64), AcquireError> {
        let now = p.now();
        let invocation = self.records.lock().insert(|invocation| InvocationRecord {
            invocation,
            name: name.to_string(),
            mem,
            requested_at: now,
            assigned_at: None,
            done_at: None,
            failed_at: None,
            attempts: trace.as_ref().map_or(1, |t| t.attempt.max(1)),
            server: None,
            gpu: None,
            trace: trace.as_ref().map(|t| t.id),
            tenant: trace
                .as_ref()
                .map(|t| t.tenant.to_string())
                .unwrap_or_default(),
        });
        let (reply_tx, reply_rx) = self.handle.channel::<RpcClient>();
        self.monitor_tx.send(
            p,
            MonitorMsg::Request(FnRequest {
                registry,
                reply: reply_tx,
                invocation,
                trace,
                pin_server,
            }),
        );
        let got = match timeout {
            Some(t) => reply_rx.recv_timeout(p, t),
            None => reply_rx.recv(p).ok_or(RecvError::Shutdown),
        };
        match got {
            Ok(client) => Ok((client, invocation)),
            Err(RecvError::Timeout) => {
                p.telemetry().counter_add(lit!("server.queue_timeouts"), 1);
                self.mark_invocation_failed(p.now(), invocation);
                Err(AcquireError::Timeout {
                    waited: p.now().since(now),
                })
            }
            Err(RecvError::Shutdown) => Err(AcquireError::Shutdown),
        }
    }

    /// Record an invocation as failed (first failure wins; completed
    /// invocations are untouched). Called by the serverless layer when a
    /// guest-side RPC times out, and internally on queue timeout.
    pub fn mark_invocation_failed(&self, at: SimTime, invocation: u64) {
        self.records
            .lock()
            .mark_failed(at, invocation, &self.handle.telemetry());
    }

    /// True once the *server* recorded the invocation's completion. The
    /// retry layer probes this before re-running a function whose reply
    /// never arrived: a completed invocation did its work and only the
    /// response was lost — re-running it would execute the function twice.
    pub fn invocation_completed(&self, invocation: u64) -> bool {
        self.records
            .lock()
            .get(invocation)
            .is_some_and(|r| r.done_at.is_some())
    }

    /// API server an invocation was assigned to, if the monitor got that
    /// far. The invoke layer reads this back after a successful attempt so
    /// GPU-resident DAG stages can pin their successors.
    pub fn invocation_server(&self, invocation: u64) -> Option<u32> {
        self.records.lock().get(invocation).and_then(|r| r.server)
    }

    /// Fault counters of the link's chaos layer, if one is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Free a GPU-resident handoff buffer parked under `key` on any of the
    /// fleet's contexts. The DAG layer calls this when it abandons a DAG
    /// whose published output will never be adopted; returns false if no
    /// context holds the key (already adopted, reclaimed, or never
    /// published).
    pub fn reclaim_resident(&self, key: u64) -> bool {
        for s in self.servers.lock().iter() {
            for ctx in s.shared.contexts() {
                if ctx.reclaim_resident(key) {
                    return true;
                }
            }
        }
        false
    }

    /// Resident-store audit events from every context in the fleet, in
    /// (server id, context creation) order: the raw material for the
    /// handoff exactly-once oracle — every `Published` key must be followed
    /// by exactly one `Adopted` or `Reclaimed`.
    pub fn resident_events(&self) -> Vec<dgsf_cuda::ResidentEvent> {
        let mut out = Vec::new();
        for s in self.servers.lock().iter() {
            for ctx in s.shared.contexts() {
                out.extend(ctx.resident_events());
            }
        }
        out
    }

    /// Buffers currently parked in resident stores fleet-wide (leak probe:
    /// zero once every DAG has completed or been reclaimed).
    pub fn resident_in_store(&self) -> usize {
        self.servers
            .lock()
            .iter()
            .flat_map(|s| s.shared.contexts())
            .map(|c| c.resident_count())
            .sum()
    }

    /// Force an API server to migrate to `target` at its next API-call
    /// boundary (Table V's forced-migration microbenchmark). No-op if the
    /// server has been retired.
    pub fn force_migration(&self, server: u32, target: GpuId) {
        if let Some(s) = self.servers.lock().iter().find(|s| s.shared.id == server) {
            s.shared.request_migration(target);
        }
    }

    /// GPU an API server currently executes on.
    ///
    /// # Panics
    /// If the server does not exist (never spawned, or already retired).
    pub fn server_current_gpu(&self, server: u32) -> GpuId {
        self.servers
            .lock()
            .iter()
            .find(|s| s.shared.id == server)
            .expect("server exists")
            .shared
            .current_gpu()
    }

    /// Current size of the API-server pool (provisioned plus autoscaled,
    /// minus retired; servers killed by the fault injector still count —
    /// the monitor cannot distinguish them until their lease expires).
    pub fn pool_size(&self) -> usize {
        self.servers.lock().len()
    }

    /// True while at least one API server holds a valid lease; a server
    /// with none cannot serve anything and must not be routed to.
    pub fn lease_live(&self) -> bool {
        self.gauges().lease_live()
    }

    /// One consistent gauge snapshot for the cluster balancer: pool and
    /// lease state from the server list (the monitor sets each server's
    /// lease-expired bit), load from the invocation records, memory from
    /// the GPUs' real reservations.
    pub fn gauges(&self) -> ServerGauges {
        let (pool_size, failed_api_servers) = {
            let servers = self.servers.lock();
            let failed = servers.iter().filter(|s| s.shared.lease_expired()).count();
            (servers.len(), failed)
        };
        let (mut used, mut total) = (0u64, 0u64);
        for g in &self.gpus {
            used += g.used_mem();
            total += g.total_mem();
        }
        let (active_functions, queued_functions) = {
            let records = self.records.lock();
            debug_assert_eq!(
                records.counts(),
                records.scan_counts(),
                "kept (active, queued) counts drifted from the records"
            );
            records.counts()
        };
        ServerGauges {
            pool_size,
            failed_api_servers,
            active_functions,
            queued_functions,
            used_mem_bytes: used,
            total_mem_bytes: total,
            migrations_in_flight: self.migrations_in_flight(),
        }
    }

    /// API servers with a migration requested or mid-transfer.
    fn migrations_in_flight(&self) -> usize {
        self.servers
            .lock()
            .iter()
            .filter(|s| s.shared.migration_pending() || s.shared.migration_in_flight())
            .count()
    }

    /// Expected quiescent memory footprint on `gpu`: every server's
    /// declared memory there, the same sum the monitor places by — home
    /// servers' idle footprints (context + handle pools) plus one context
    /// per lazily created migration context parked there. The invariant
    /// checker compares this against the GPU's real reservations after a
    /// run settles — any difference means a migration leaked or
    /// double-charged memory.
    pub fn expected_idle_mem(&self, gpu: GpuId) -> u64 {
        let mut sum = 0;
        for s in self.servers.lock().iter() {
            s.shared.declared(&self.costs, |g, mem| {
                if g == gpu {
                    sum += mem;
                }
            });
        }
        sum
    }

    /// Snapshot of all invocation records, in invocation order.
    pub fn records(&self) -> Vec<InvocationRecord> {
        self.records.lock().all().to_vec()
    }

    /// All completed migrations.
    pub fn migrations(&self) -> Vec<MigrationRecord> {
        self.migration_log.lock().clone()
    }

    /// Mean utilization across all GPUs over `[start, end)` (busy-time
    /// fraction).
    pub fn mean_utilization(&self, start: SimTime, end: SimTime) -> f64 {
        if end <= start {
            return 0.0;
        }
        let span = end.since(start).as_secs_f64();
        let total: f64 = self
            .gpus
            .iter()
            .map(|g| g.busy_between(start, end).as_secs_f64() / span)
            .sum();
        total / self.gpus.len() as f64
    }
}
