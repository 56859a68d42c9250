//! The GPU server's monitor: "the main piece of the GPU server" (§V-A).
//!
//! The monitor tracks per-GPU memory commitments and utilization, assigns
//! incoming function requests to idle API servers under a best-fit or
//! worst-fit policy with a strict FCFS queue (head-of-line blocking is the
//! paper's stated behaviour) or per-tenant virtual-time fair queues
//! ([`QueuePolicy::Mqfq`], the MQFQ-Sticky design — see
//! [`crate::fairqueue`]), and — when migration is enabled — moves an API
//! server off an overloaded GPU onto an idle one.
//!
//! It is also the failure detector: busy API servers heartbeat the monitor,
//! and a server silent past its lease is declared dead — its
//! memory commitment is released, its invocation marked failed (so the
//! serverless layer can retry elsewhere), and it is excluded from future
//! placement.

use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::ModuleRegistry;
use dgsf_gpu::{Gpu, GpuId};
use dgsf_remoting::RpcClient;
use dgsf_sim::{
    Dur, ObsPlane, ProcCtx, RecvError, SimCell, SimReceiver, SimSender, SimTime, TraceCtx,
};

use crate::api_server::{
    start_api_server, ApiServerEnv, ApiServerShared, Assignment, ServerCmd, HEARTBEAT_PERIOD,
};
use crate::autoscale::Autoscaler;
use crate::config::{GpuServerConfig, PlacementPolicy, QueuePolicy};
use crate::fairqueue::MqfqQueues;

/// A function's request for a virtual GPU.
pub(crate) struct FnRequest {
    pub mem: u64,
    pub registry: Arc<ModuleRegistry>,
    pub reply: SimSender<RpcClient>,
    pub invocation: u64,
    /// When the requester asked (drives the autoscaler's queue-delay
    /// signal).
    pub requested_at: SimTime,
    /// Set by the requester when it gives up waiting (queue timeout); the
    /// monitor purges cancelled requests instead of assigning them.
    pub cancelled: Rc<Cell<bool>>,
    /// Causal context of the serverless request this queue entry serves;
    /// handed on to the RPC client and the API-server assignment.
    pub trace: Option<TraceCtx>,
    /// Tenant this request belongs to (from the trace context; empty when
    /// the caller threaded no trace). Keys the MQFQ flow and the
    /// per-tenant queue-delay gauges.
    pub tenant: String,
    /// Restrict assignment to this one API server: the request waits (FCFS
    /// head-of-line rules apply) until that server is idle and its GPU
    /// fits, and is never placed elsewhere. GPU-resident DAG stages pin to
    /// the server whose context holds their predecessor's output buffer.
    pub pin_server: Option<u32>,
}

/// Messages the monitor consumes.
pub(crate) enum MonitorMsg {
    /// A function wants a GPU.
    Request(FnRequest),
    /// An API server finished its function.
    FunctionDone { server: u32, invocation: u64 },
    /// A busy API server signalling liveness.
    Heartbeat { server: u32 },
    /// An API server aborted its function (guest vanished / idle timeout).
    FunctionFailed { server: u32, invocation: u64 },
    /// An API server completed a migration.
    Migrated { server: u32, from: GpuId, to: GpuId },
}

/// Lifecycle record of one invocation, kept for the experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationRecord {
    /// Platform-assigned invocation id.
    pub invocation: u64,
    /// Function name.
    pub name: String,
    /// Declared GPU memory requirement.
    pub mem: u64,
    /// When the GPU request reached the monitor.
    pub requested_at: SimTime,
    /// When an API server was assigned (None while queued).
    pub assigned_at: Option<SimTime>,
    /// When the function finished on the API server.
    pub done_at: Option<SimTime>,
    /// When the invocation was declared failed (lease expiry, abort, or
    /// queue timeout). Mutually exclusive with `done_at`.
    pub failed_at: Option<SimTime>,
    /// Which serverless-backend attempt this invocation belongs to
    /// (1-based; retries re-request a GPU under a fresh invocation id).
    pub attempts: u32,
    /// Assigned API server.
    pub server: Option<u32>,
    /// GPU the server was homed on at assignment.
    pub gpu: Option<GpuId>,
    /// Platform-unique trace id of the serverless request this invocation
    /// belongs to (None when the caller did not thread a trace context).
    pub trace: Option<u64>,
    /// Tenant the invocation belongs to (empty when no trace context was
    /// threaded). Drives per-tenant fairness accounting in the harness.
    pub tenant: String,
}

impl InvocationRecord {
    /// Queueing delay at the GPU server (None while queued).
    pub fn queue_delay(&self) -> Option<Dur> {
        self.assigned_at.map(|a| a.since(self.requested_at))
    }

    /// Execution time on the API server.
    pub fn exec_time(&self) -> Option<Dur> {
        match (self.assigned_at, self.done_at) {
            (Some(a), Some(d)) => Some(d.since(a)),
            _ => None,
        }
    }

    /// True once the invocation has been declared failed.
    pub fn failed(&self) -> bool {
        self.failed_at.is_some()
    }

    /// Neither finished nor failed: queued or running.
    fn active(&self) -> bool {
        self.done_at.is_none() && self.failed_at.is_none()
    }

    /// Active and not yet assigned to an API server.
    fn queued(&self) -> bool {
        self.active() && self.assigned_at.is_none()
    }
}

/// The invocation records of one GPU server, with the number of active and
/// of queued invocations kept beside them: the cluster balancer reads both
/// on every routing decision, and the record map only grows.
#[derive(Default)]
pub(crate) struct RecordBook {
    records: HashMap<u64, InvocationRecord>,
    active: usize,
    queued: usize,
}

impl RecordBook {
    pub(crate) fn insert(&mut self, rec: InvocationRecord) {
        self.active += usize::from(rec.active());
        self.queued += usize::from(rec.queued());
        let old = self.records.insert(rec.invocation, rec);
        debug_assert!(old.is_none(), "invocation ids are never reused");
    }

    pub(crate) fn get(&self, invocation: u64) -> Option<&InvocationRecord> {
        self.records.get(&invocation)
    }

    /// Change one record through `f`, keeping the counts in step. `None`
    /// if there is no such record.
    pub(crate) fn update<R>(
        &mut self,
        invocation: u64,
        f: impl FnOnce(&mut InvocationRecord) -> R,
    ) -> Option<R> {
        let rec = self.records.get_mut(&invocation)?;
        let (active, queued) = (rec.active(), rec.queued());
        let out = f(rec);
        let (now_active, now_queued) = (rec.active(), rec.queued());
        self.active = self.active + usize::from(now_active) - usize::from(active);
        self.queued = self.queued + usize::from(now_queued) - usize::from(queued);
        Some(out)
    }

    /// Declare `invocation` failed at `at`, unless it already finished or
    /// failed. Returns whether it did.
    pub(crate) fn mark_failed(&mut self, at: SimTime, invocation: u64) -> bool {
        self.update(invocation, |rec| {
            let fail = rec.active();
            if fail {
                rec.failed_at = Some(at);
            }
            fail
        })
        .unwrap_or(false)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &InvocationRecord> {
        self.records.values()
    }

    /// `(active, queued)`: invocations neither finished nor failed, and
    /// those of them not yet assigned.
    pub(crate) fn counts(&self) -> (usize, usize) {
        (self.active, self.queued)
    }

    /// [`counts`](Self::counts) by scanning every record, for checking the
    /// kept counts.
    pub(crate) fn scan_counts(&self) -> (usize, usize) {
        let active = self.values().filter(|r| r.active()).count();
        let queued = self.values().filter(|r| r.queued()).count();
        (active, queued)
    }
}

struct SrvBook {
    shared: Rc<ApiServerShared>,
    assign_tx: SimSender<ServerCmd>,
    busy: Option<BusyInfo>,
    /// Declared dead by the lease check; excluded from placement forever.
    failed: bool,
    /// Last liveness signal (assignment or heartbeat).
    last_heartbeat: SimTime,
    /// Start of the server's current idle period (spawn, or the moment its
    /// last function left). Drives the autoscaler's scale-down TTL.
    idle_since: SimTime,
}

struct BusyInfo {
    invocation: u64,
    mem: u64,
    /// Tenant of the running function, for the fair queue's service charge.
    tenant: String,
    /// When the function was assigned; the charge is `done - assigned`.
    assigned_at: SimTime,
}

/// The monitor's queue: one flat FIFO under FCFS/SmallestFirst, or
/// per-tenant virtual-time flows under MQFQ.
enum MonQueue {
    Flat(VecDeque<FnRequest>),
    Fair(MqfqQueues<FnRequest>),
}

impl MonQueue {
    fn for_cfg(cfg: &GpuServerConfig) -> MonQueue {
        match cfg.queue {
            QueuePolicy::Mqfq => {
                MonQueue::Fair(MqfqQueues::new(cfg.fair_queue.clone().unwrap_or_default()))
            }
            _ => MonQueue::Flat(VecDeque::new()),
        }
    }

    fn push(&mut self, req: FnRequest) {
        match self {
            MonQueue::Flat(q) => q.push_back(req),
            MonQueue::Fair(fq) => {
                let tenant = req.tenant.clone();
                fq.push(&tenant, req);
            }
        }
    }

    /// Drop requests whose senders gave up (queue timeout).
    fn purge_cancelled(&mut self) {
        let keep = |r: &FnRequest| !r.cancelled.get();
        match self {
            MonQueue::Flat(q) => q.retain(keep),
            MonQueue::Fair(fq) => fq.retain(keep),
        }
    }

    fn len(&self) -> usize {
        match self {
            MonQueue::Flat(q) => q.len(),
            MonQueue::Fair(fq) => fq.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All queued requests, in a deterministic (not dispatch) order.
    fn iter(&self) -> Box<dyn Iterator<Item = &FnRequest> + '_> {
        match self {
            MonQueue::Flat(q) => Box::new(q.iter()),
            MonQueue::Fair(fq) => Box::new(fq.iter()),
        }
    }

    /// Credit a completed function's exact service time to its tenant's
    /// flow (no-op for the flat queue).
    fn charge(&mut self, tenant: &str, service_ns: u64) {
        if let MonQueue::Fair(fq) = self {
            fq.charge(tenant, service_ns);
        }
    }
}

pub(crate) struct MonitorArgs {
    /// The API servers' shared environment: the GPUs, the NIC, and what
    /// the autoscaler hands to the servers it starts.
    pub env: ApiServerEnv,
    pub cfg: GpuServerConfig,
    pub servers: Vec<(Rc<ApiServerShared>, SimSender<ServerCmd>)>,
    pub rx: SimReceiver<MonitorMsg>,
    pub records: Rc<SimCell<RecordBook>>,
    /// Live-server registry shared with [`crate::GpuServer`]; the
    /// autoscaler pushes spawned servers and removes retired ones.
    pub registry: Rc<SimCell<Vec<Rc<ApiServerShared>>>>,
    /// Ids of API servers whose lease expired, shared with
    /// [`crate::GpuServer`] so the cluster balancer can see dead capacity.
    pub failed_servers: Rc<SimCell<HashSet<u32>>>,
    /// Online observability plane plus this server's stable label (e.g.
    /// `srv0`). When present the monitor feeds per-GPU health scores each
    /// tick and a predictive autoscaler reads its streamed signals.
    pub obs: Option<(Rc<ObsPlane>, String)>,
}

/// Immutable monitor context shared by the helpers below.
struct MonCtx {
    env: ApiServerEnv,
    cfg: GpuServerConfig,
    records: Rc<SimCell<RecordBook>>,
    registry: Rc<SimCell<Vec<Rc<ApiServerShared>>>>,
    failed_servers: Rc<SimCell<HashSet<u32>>>,
    obs: Option<Rc<ObsPlane>>,
    /// One per GPU, built once so the per-tick sampling formats nothing.
    gpu_keys: Vec<GpuKeys>,
}

/// Telemetry gauge names and the obs health label of one GPU.
struct GpuKeys {
    mem_used: String,
    util_bp: String,
    /// `{label}.gpu{i}`; empty when no obs plane is wired.
    health: String,
}

/// Monitor tick: utilization sampling, lease and migration checks. The
/// paper samples NVML every 200 ms.
const MONITOR_PERIOD: Dur = Dur::from_millis(200);

/// Upper bound on migrations in flight (requested or mid-transfer) at
/// once. The paper migrates one server at a time.
const MAX_CONCURRENT_MIGRATIONS: usize = 1;

/// Body of the monitor process.
pub(crate) fn run_monitor(p: &ProcCtx, args: MonitorArgs) {
    let MonitorArgs {
        env,
        cfg,
        servers,
        rx,
        records,
        registry,
        failed_servers,
        obs,
    } = args;
    let gpu_keys = (0..env.gpus.len())
        .map(|i| GpuKeys {
            mem_used: format!("gpu.{i}.mem_used_bytes"),
            util_bp: format!("gpu.{i}.util_bp"),
            health: obs
                .as_ref()
                .map_or_else(String::new, |(_, label)| format!("{label}.gpu{i}")),
        })
        .collect();
    let a = MonCtx {
        env,
        cfg,
        records,
        registry,
        failed_servers,
        obs: obs.map(|(obs, _)| obs),
        gpu_keys,
    };
    let spawn_time = p.now();
    let mut servers: Vec<SrvBook> = servers
        .into_iter()
        .map(|(shared, assign_tx)| SrvBook {
            shared,
            assign_tx,
            busy: None,
            failed: false,
            last_heartbeat: SimTime::ZERO,
            idle_since: spawn_time,
        })
        .collect();
    // Static per-GPU overhead: each homed server holds its 755 MB idle
    // footprint; lazily created migration contexts add 303 MB each.
    let idle_fp = a.cfg.costs.idle_worker_mem();
    let ctx_fp = a.cfg.costs.cuda_ctx_mem;
    let mut overhead: HashMap<GpuId, u64> = HashMap::new();
    for s in &servers {
        *overhead.entry(s.shared.home_gpu).or_insert(0) += idle_fp;
    }
    let mut known_ctxs: HashSet<(u32, GpuId)> = servers
        .iter()
        .map(|s| (s.shared.id, s.shared.home_gpu))
        .collect();
    // Warm-pool autoscaling state: ids continue past the provisioned
    // fleet; the scaler is pure policy (hysteresis/TTL/cooldown).
    let mut next_server_id = servers.len() as u32;
    let mut scaler = a.cfg.autoscale.clone().map(Autoscaler::new);
    let mut queue = MonQueue::for_cfg(&a.cfg);
    // Migration damping: bound concurrent migrations, and let the system
    // settle before judging imbalance again. `None` = never requested.
    let mut last_migration_request: Option<SimTime> = None;
    let migration_cooldown = Dur(MONITOR_PERIOD
        .as_nanos()
        .saturating_mul(a.cfg.migration_cooldown_ticks as u64));

    let mut next_tick = p.now() + MONITOR_PERIOD;
    // Telemetry bookkeeping: only emit the queue-depth gauge on change, and
    // sample per-GPU timelines once per tick over the since-last-sample
    // window.
    let mut last_depth: usize = 0;
    let mut last_gpu_sample = p.now();

    loop {
        // Drop requests whose senders gave up (queue timeout) before they
        // can occupy a server.
        queue.purge_cancelled();
        if p.telemetry().is_enabled() && queue.len() != last_depth {
            last_depth = queue.len();
            p.telemetry()
                .gauge_set("monitor.queue_depth", p.now(), last_depth as i64);
        }
        // Periodic ticks drive the migration policy, the lease check and
        // the autoscaler; they are armed only while work is in flight or
        // the pool holds live servers above the autoscaler's floor (which
        // must eventually be retired). An idle monitor blocks indefinitely,
        // which lets the simulation's event queue drain and `Sim::run`
        // terminate naturally. Failed servers never retire, so they do not
        // keep the tick armed. The deadline is absolute: heartbeat traffic
        // must not indefinitely re-arm the timeout and starve the tick.
        let work_in_flight = servers.iter().any(|s| s.busy.is_some()) || !queue.is_empty();
        let excess_live = scaler
            .as_ref()
            .map(|sc| {
                let min = sc.config().min_per_gpu as usize;
                (0..a.env.gpus.len()).any(|g| {
                    servers
                        .iter()
                        .filter(|s| !s.failed && s.shared.home_gpu == GpuId(g as u32))
                        .count()
                        > min
                })
            })
            .unwrap_or(false);
        let msg = if work_in_flight || excess_live {
            let now = p.now();
            let wait = if next_tick > now {
                next_tick.since(now)
            } else {
                Dur::ZERO
            };
            rx.recv_timeout(p, wait)
        } else {
            match rx.recv(p) {
                Some(m) => {
                    next_tick = p.now() + MONITOR_PERIOD;
                    Ok(m)
                }
                None => Err(RecvError::Shutdown),
            }
        };
        match msg {
            Ok(MonitorMsg::Request(req)) => {
                queue.push(req);
                drain_queue(p, &a, &mut servers, &overhead, &mut queue);
            }
            Ok(MonitorMsg::FunctionDone { server, invocation }) => {
                if let Some(s) = servers.iter_mut().find(|s| s.shared.id == server) {
                    if let Some(b) = s.busy.take() {
                        // Credit the exact service time to the tenant's
                        // fair-queue flow, releasing its provisional hold.
                        queue.charge(&b.tenant, p.now().since(b.assigned_at).as_nanos());
                    }
                    s.idle_since = p.now();
                }
                a.records.lock().update(invocation, |rec| {
                    // A lease may already have failed this invocation over;
                    // the late completion loses.
                    if rec.failed_at.is_none() {
                        rec.done_at = Some(p.now());
                    }
                });
                drain_queue(p, &a, &mut servers, &overhead, &mut queue);
            }
            Ok(MonitorMsg::Heartbeat { server }) => {
                if let Some(s) = servers.iter_mut().find(|s| s.shared.id == server) {
                    s.last_heartbeat = p.now();
                }
            }
            Ok(MonitorMsg::FunctionFailed { server, invocation }) => {
                // The server itself aborted (guest vanished); it stays in
                // the placement pool — only the invocation failed.
                if let Some(s) = servers.iter_mut().find(|s| s.shared.id == server) {
                    if let Some(b) = s.busy.take() {
                        queue.charge(&b.tenant, p.now().since(b.assigned_at).as_nanos());
                    }
                    s.idle_since = p.now();
                }
                mark_failed(p.now(), &a, invocation);
                drain_queue(p, &a, &mut servers, &overhead, &mut queue);
            }
            Ok(MonitorMsg::Migrated { server, from, to }) => {
                let _ = from; // informative in logs; unused by the policy
                if known_ctxs.insert((server, to)) {
                    *overhead.entry(to).or_insert(0) += ctx_fp;
                }
            }
            Err(RecvError::Timeout) => {
                next_tick = p.now() + MONITOR_PERIOD;
                sample_gpus(p, &a, &mut last_gpu_sample);
                check_leases(p, &a, &mut servers, &mut queue);
                if let Some(sc) = scaler.as_mut() {
                    autoscale_tick(
                        p,
                        &a,
                        sc,
                        &mut servers,
                        &mut overhead,
                        &mut known_ctxs,
                        &mut next_server_id,
                        &queue,
                    );
                }
                // Drain unconditionally: a lease expiry or scale-up may
                // have freed capacity, and a cancelled head-of-line
                // request must not strand placeable requests behind it
                // until the next message arrives.
                drain_queue(p, &a, &mut servers, &overhead, &mut queue);
                let in_flight = servers
                    .iter()
                    .filter(|s| s.shared.migration_pending() || s.shared.migration_in_flight())
                    .count();
                let cooled = migration_cooled(p.now(), last_migration_request, migration_cooldown);
                if a.cfg.migration
                    && in_flight < MAX_CONCURRENT_MIGRATIONS
                    && cooled
                    && migration_tick(p, &a, &servers, &overhead, &queue)
                {
                    last_migration_request = Some(p.now());
                }
            }
            Err(RecvError::Shutdown) => return,
        }
    }
}

/// Sample per-GPU memory and utilization timelines for telemetry, and —
/// when an obs plane is wired — derive per-GPU health scores from the same
/// gauges. The utilization is the busy fraction of the since-last-sample
/// window in integer basis points (floats never reach an export); health is
/// `1000 − max(mem_permille, util_permille)`, so a GPU scores low when
/// either memory or compute is saturated.
fn sample_gpus(p: &ProcCtx, a: &MonCtx, last_sample: &mut SimTime) {
    let now = p.now();
    let since = *last_sample;
    *last_sample = now;
    let tel = p.telemetry();
    if !tel.is_enabled() && a.obs.is_none() {
        return;
    }
    let window = now.since(since).as_nanos();
    for (gpu, keys) in a.env.gpus.iter().zip(&a.gpu_keys) {
        let used = gpu.used_mem();
        if tel.is_enabled() {
            tel.gauge_set(&keys.mem_used, now, used as i64);
        }
        let busy = gpu.busy_between(since, now).as_nanos();
        let util_bp = busy.saturating_mul(10_000).checked_div(window);
        if let (true, Some(util_bp)) = (tel.is_enabled(), util_bp) {
            tel.gauge_set(&keys.util_bp, now, util_bp as i64);
        }
        if let Some(obs) = &a.obs {
            let mem_permille = used.saturating_mul(1000) / gpu.total_mem().max(1);
            let util_permille = util_bp.unwrap_or(0) / 10;
            let score = 1000u64.saturating_sub(mem_permille.max(util_permille).min(1000));
            obs.record_health(now, &keys.health, score);
        }
    }
}

/// Fail `invocation` over (first failure wins; completed invocations are
/// left alone).
fn mark_failed(at: SimTime, a: &MonCtx, invocation: u64) {
    if a.records.lock().mark_failed(at, invocation) {
        a.env.h.telemetry().counter_add("invocation.failures", 1);
    }
}

/// Monitor-side lease: a busy API server silent for longer than this is
/// declared dead, its memory commitment released and its invocation failed
/// over. Five of the API servers' heartbeat periods (1 s).
const LEASE_TIMEOUT: Dur = Dur(HEARTBEAT_PERIOD.0 * 5);

/// Declare busy servers dead when their lease expires: no heartbeat for
/// longer than [`LEASE_TIMEOUT`] means the server was killed (or is
/// unreachable, which is indistinguishable from the monitor's seat).
/// Releases the memory commitment and fails the invocation over. Returns
/// true if any server was declared dead (freed capacity may unblock the
/// queue — not for the failed server, which is excluded from placement,
/// but its GPU's committed memory is released for servers homed there).
/// The dead server's service-so-far is charged to its tenant's fair-queue
/// flow, so a tenant whose functions keep dying still pays for the GPU
/// time they held.
fn check_leases(p: &ProcCtx, a: &MonCtx, servers: &mut [SrvBook], queue: &mut MonQueue) -> bool {
    let now = p.now();
    let mut any = false;
    for s in servers.iter_mut() {
        if s.failed || s.busy.is_none() {
            continue;
        }
        if now.since(s.last_heartbeat) > LEASE_TIMEOUT {
            s.failed = true;
            a.failed_servers.lock().insert(s.shared.id);
            let b = s.busy.take().expect("checked busy");
            queue.charge(&b.tenant, now.since(b.assigned_at).as_nanos());
            let tel = p.telemetry();
            if tel.is_enabled() {
                tel.counter_add("monitor.lease_expirations", 1);
                tel.instant(
                    p.name(),
                    "lease-expired",
                    now,
                    &[
                        ("server", s.shared.id.into()),
                        ("invocation", b.invocation.into()),
                    ],
                );
            }
            mark_failed(now, a, b.invocation);
            any = true;
        }
    }
    any
}

/// Declared-memory availability of a GPU, as the monitor sees it.
fn avail(gpus: &[Rc<Gpu>], servers: &[SrvBook], overhead: &HashMap<GpuId, u64>, gpu: GpuId) -> i64 {
    let total = gpus[gpu.0 as usize].total_mem() as i64;
    let oh = *overhead.get(&gpu).unwrap_or(&0) as i64;
    let committed: i64 = servers
        .iter()
        .filter(|s| s.busy.is_some() && s.shared.current_gpu() == gpu)
        .map(|s| s.busy.as_ref().expect("filtered busy").mem as i64)
        .sum();
    total - oh - committed
}

/// Drain the queue under the configured discipline: strict FCFS assigns
/// from the head only (head-of-line blocking, the paper's policy);
/// smallest-first scans for the smallest placeable request; MQFQ serves
/// the backlogged tenant with the lowest virtual time, falling back to
/// any backlogged tenant whose head fits (work conservation).
fn drain_queue(
    p: &ProcCtx,
    a: &MonCtx,
    servers: &mut [SrvBook],
    overhead: &HashMap<GpuId, u64>,
    queue: &mut MonQueue,
) {
    loop {
        // Purge cancelled requests *before* placement. Checking only after
        // a successful `pick_server` left a cancelled head-of-line request
        // that fits no GPU blocking the FCFS queue (and the SmallestFirst
        // early-return) forever.
        queue.purge_cancelled();
        let (req, srv_idx) = match queue {
            MonQueue::Flat(q) => {
                let pos = match a.cfg.queue {
                    QueuePolicy::SmallestFirst => {
                        let Some(pos) = (0..q.len()).min_by_key(|&i| q[i].mem) else {
                            return;
                        };
                        pos
                    }
                    // FCFS: head only; an unplaceable head blocks the line
                    // (the paper's policy).
                    _ => {
                        if q.is_empty() {
                            return;
                        }
                        0
                    }
                };
                let Some(srv_idx) =
                    pick_server(a, servers, overhead, q[pos].mem, q[pos].pin_server)
                else {
                    return;
                };
                (q.remove(pos).expect("index in bounds"), srv_idx)
            }
            MonQueue::Fair(fq) => {
                let Some(picked) =
                    fq.pop_next(|r| pick_server(a, servers, overhead, r.mem, r.pin_server))
                else {
                    return; // no backlogged tenant's head fits anywhere
                };
                picked
            }
        };
        assign_request(p, a, servers, srv_idx, req);
    }
}

/// Hand `req` to the idle server at `srv_idx`: connect the RPC client, set
/// the busy book-keeping, update the invocation record, emit telemetry
/// (including the per-tenant queue-delay gauge), and send the assignment.
fn assign_request(
    p: &ProcCtx,
    a: &MonCtx,
    servers: &mut [SrvBook],
    srv_idx: usize,
    req: FnRequest,
) {
    let now = p.now();
    let (mut client, inbox) = RpcClient::connect(&a.env.h, Arc::clone(&a.env.link));
    client.set_timeout(a.cfg.rpc_timeout);
    client.set_trace(req.trace.clone());
    let s = &mut servers[srv_idx];
    s.busy = Some(BusyInfo {
        invocation: req.invocation,
        mem: req.mem,
        tenant: req.tenant.clone(),
        assigned_at: now,
    });
    // An assignment counts as liveness: the lease clock starts now.
    s.last_heartbeat = now;
    a.records.lock().update(req.invocation, |rec| {
        rec.assigned_at = Some(now);
        rec.server = Some(s.shared.id);
        rec.gpu = Some(s.shared.home_gpu);
    });
    let tel = p.telemetry();
    tel.counter_add("monitor.assignments", 1);
    if tel.is_enabled() && !req.tenant.is_empty() {
        tel.counter_add(&format!("monitor.tenant.{}.dispatches", req.tenant), 1);
        let delay_us = now.since(req.requested_at).as_nanos() / 1_000;
        tel.gauge_set(
            &format!("monitor.tenant.{}.queue_delay_us", req.tenant),
            now,
            delay_us as i64,
        );
    }
    s.assign_tx.send(
        p,
        ServerCmd::Assign(Assignment {
            inbox,
            registry: req.registry,
            mem_limit: req.mem,
            invocation: req.invocation,
            trace: req.trace.clone(),
        }),
    );
    req.reply.send(p, client);
}

/// Choose an idle API server whose home GPU fits `mem`, by policy. A
/// pinned request considers only its pinned server — `None` while that
/// server is busy means the request waits for it, and a pin on a failed
/// (lease-expired) or retired server never places, leaving the requester's
/// queue timeout to fail the invocation over.
fn pick_server(
    a: &MonCtx,
    servers: &[SrvBook],
    overhead: &HashMap<GpuId, u64>,
    mem: u64,
    pin: Option<u32>,
) -> Option<usize> {
    let mut best: Option<(usize, i64)> = None;
    for (i, s) in servers.iter().enumerate() {
        if s.busy.is_some() || s.failed {
            continue;
        }
        if pin.is_some_and(|id| s.shared.id != id) {
            continue;
        }
        let gpu = s.shared.home_gpu;
        let free = avail(&a.env.gpus, servers, overhead, gpu);
        if free < mem as i64 {
            continue;
        }
        let better = match (best, a.cfg.policy) {
            (None, _) => true,
            (Some((_, bf)), PlacementPolicy::BestFit) => free < bf,
            (Some((_, bf)), PlacementPolicy::WorstFit) => free > bf,
        };
        if better {
            best = Some((i, free));
        }
    }
    best.map(|(i, _)| i)
}

/// One autoscaler tick: feed the queue-delay signal, then fire at most one
/// scaling action (scale-up wins over scale-down when both are due).
#[allow(clippy::too_many_arguments)]
fn autoscale_tick(
    p: &ProcCtx,
    a: &MonCtx,
    scaler: &mut Autoscaler,
    servers: &mut Vec<SrvBook>,
    overhead: &mut HashMap<GpuId, u64>,
    known_ctxs: &mut HashSet<(u32, GpuId)>,
    next_server_id: &mut u32,
    queue: &MonQueue,
) {
    let now = p.now();
    let oldest_wait = queue
        .iter()
        .filter(|r| !r.cancelled.get())
        .map(|r| now.since(r.requested_at))
        .max();
    // Predictive mode reads the obs plane's streamed signals: the
    // arrival-rate ramp (pre-warm trigger) and the queue-attributed share
    // of tail latency (reactive-growth gate).
    if let Some(obs) = &a.obs {
        scaler.observe_signals(obs.rate_ramp(now), obs.tail_queue_share_permille(now));
    }
    scaler.observe_queue(oldest_wait);
    let idle_fp = a.cfg.costs.idle_worker_mem();
    let reactive_up = scaler.scale_up_due(now);
    let prewarm = scaler.prewarm_due(now);
    if reactive_up || prewarm {
        // Home the new server on the GPU with the most declared free
        // memory among those under the per-GPU ceiling that still fit the
        // 755 MB idle footprint (ties: lowest GPU id).
        let max = scaler.config().max_per_gpu;
        let mut best: Option<(GpuId, i64)> = None;
        for g in 0..a.env.gpus.len() {
            let gpu = GpuId(g as u32);
            let homed = servers
                .iter()
                .filter(|s| !s.failed && s.shared.home_gpu == gpu)
                .count() as u32;
            if homed >= max {
                continue;
            }
            let free = avail(&a.env.gpus, servers, overhead, gpu);
            if free < idle_fp as i64 {
                continue;
            }
            if best.map(|(_, bf)| free > bf).unwrap_or(true) {
                best = Some((gpu, free));
            }
        }
        if let Some((gpu, _)) = best {
            if spawn_server(p, a, servers, overhead, known_ctxs, next_server_id, gpu) {
                scaler.record_action(now);
                let tel = p.telemetry();
                if prewarm && !reactive_up && tel.is_enabled() {
                    // Capacity added purely on the rate-ramp forecast,
                    // before any queue-delay breach.
                    tel.counter_add("autoscale.prewarms", 1);
                    tel.instant(p.name(), "prewarm", now, &[("gpu", gpu.0.into())]);
                }
                return; // one action per tick
            }
        }
    }
    // Scale down the longest-idle live server whose idle period passed the
    // TTL, as long as its GPU stays at or above the floor (ties: lowest
    // server id).
    let min = scaler.config().min_per_gpu;
    let mut cand: Option<usize> = None;
    for (i, s) in servers.iter().enumerate() {
        if s.failed || s.busy.is_some() || s.shared.migration_pending() {
            continue;
        }
        let live_homed = servers
            .iter()
            .filter(|t| !t.failed && t.shared.home_gpu == s.shared.home_gpu)
            .count() as u32;
        if live_homed <= min || !scaler.scale_down_due(now, s.idle_since) {
            continue;
        }
        let better = match cand {
            None => true,
            Some(j) => {
                let c = &servers[j];
                s.idle_since < c.idle_since
                    || (s.idle_since == c.idle_since && s.shared.id < c.shared.id)
            }
        };
        if better {
            cand = Some(i);
        }
    }
    if let Some(i) = cand {
        retire_server(p, a, servers, overhead, known_ctxs, i);
        scaler.record_action(now);
    }
}

/// Number of live (non-failed) servers in the pool, for the pool-size
/// gauge.
fn live_pool(servers: &[SrvBook]) -> i64 {
    servers.iter().filter(|s| !s.failed).count() as i64
}

/// Spawn one autoscaled API server homed on `gpu` (the same 755 MB idle
/// footprint a provisioned server pays), register it everywhere, and start
/// its process. Returns false — without charging anything — if the GPU
/// cannot actually fit the footprint.
fn spawn_server(
    p: &ProcCtx,
    a: &MonCtx,
    servers: &mut Vec<SrvBook>,
    overhead: &mut HashMap<GpuId, u64>,
    known_ctxs: &mut HashSet<(u32, GpuId)>,
    next_server_id: &mut u32,
    gpu: GpuId,
) -> bool {
    let id = *next_server_id;
    let Some((shared, assign_tx)) = start_api_server(p, &a.env, id, gpu) else {
        return false;
    };
    *next_server_id += 1;
    *overhead.entry(gpu).or_insert(0) += a.cfg.costs.idle_worker_mem();
    known_ctxs.insert((id, gpu));
    a.registry.lock().push(Rc::clone(&shared));
    let now = p.now();
    servers.push(SrvBook {
        shared,
        assign_tx,
        busy: None,
        failed: false,
        last_heartbeat: now,
        idle_since: now,
    });
    let tel = p.telemetry();
    if tel.is_enabled() {
        tel.counter_add("autoscale.scale_ups", 1);
        tel.gauge_set("monitor.pool_size", now, live_pool(servers));
        tel.instant(
            p.name(),
            "scale-up",
            now,
            &[("server", id.into()), ("gpu", gpu.0.into())],
        );
    }
    true
}

/// Retire the idle server at `idx`: roll back its declared overhead (idle
/// footprint on its home GPU plus every lazily created migration context
/// elsewhere), deregister it, and send `Retire` so the process releases
/// its real reservations and exits.
fn retire_server(
    p: &ProcCtx,
    a: &MonCtx,
    servers: &mut Vec<SrvBook>,
    overhead: &mut HashMap<GpuId, u64>,
    known_ctxs: &mut HashSet<(u32, GpuId)>,
    idx: usize,
) {
    let s = servers.remove(idx);
    let id = s.shared.id;
    let home = s.shared.home_gpu;
    if let Some(o) = overhead.get_mut(&home) {
        *o = o.saturating_sub(a.cfg.costs.idle_worker_mem());
    }
    let ctx_gpus: Vec<GpuId> = known_ctxs
        .iter()
        .filter(|(sid, _)| *sid == id)
        .map(|&(_, g)| g)
        .collect();
    for g in ctx_gpus {
        known_ctxs.remove(&(id, g));
        if g != home {
            if let Some(o) = overhead.get_mut(&g) {
                *o = o.saturating_sub(a.cfg.costs.cuda_ctx_mem);
            }
        }
    }
    a.registry.lock().retain(|sh| sh.id != id);
    s.assign_tx.send(p, ServerCmd::Retire);
    let tel = p.telemetry();
    if tel.is_enabled() {
        tel.counter_add("autoscale.scale_downs", 1);
        tel.gauge_set("monitor.pool_size", p.now(), live_pool(servers));
        tel.instant(
            p.name(),
            "scale-down",
            p.now(),
            &[("server", id.into()), ("gpu", home.0.into())],
        );
    }
}

/// True when enough time has passed since the last migration request.
///
/// `None` means "never requested", which always counts as cooled. The old
/// `SimTime::ZERO` sentinel conflated that with a genuine request at t=0,
/// silently disabling the cooldown for the earliest possible migration —
/// `Option` makes the two states unconfusable.
fn migration_cooled(now: SimTime, last: Option<SimTime>, cooldown: Dur) -> bool {
    match last {
        None => true,
        Some(t) => now.since(t) >= cooldown,
    }
}

/// Execution share of the load signal on `gpu`, in integer per mille:
/// accumulated busy-execution time of the functions currently running
/// there versus accumulated queue-wait of everything still in the
/// monitor's queue. This is the critical-path attribution split at tick
/// granularity — a high share means the tail is *exec*-caused (co-located
/// functions slowing each other down), which migration can fix; a low
/// share means the fleet is queue-saturated and moving servers around
/// would only churn. An empty system scores 1000 (nothing contradicts
/// migrating).
fn exec_share_permille(
    now: SimTime,
    a: &MonCtx,
    servers: &[SrvBook],
    queue: &MonQueue,
    gpu: GpuId,
) -> u64 {
    let recs = a.records.lock();
    let exec_ns: u64 = servers
        .iter()
        .filter(|s| s.shared.current_gpu() == gpu)
        .filter_map(|s| s.busy.as_ref())
        .filter_map(|b| recs.get(b.invocation))
        .filter_map(|r| r.assigned_at)
        .map(|at| now.since(at).as_nanos())
        .sum();
    let queue_ns: u64 = queue
        .iter()
        .filter(|r| !r.cancelled.get())
        .map(|r| now.since(r.requested_at).as_nanos())
        .sum();
    let total = exec_ns as u128 + queue_ns as u128;
    if total == 0 {
        return 1000;
    }
    ((exec_ns as u128 * 1000) / total) as u64
}

/// Attribution gate: only migrate off a GPU whose tail is
/// *execution*-caused. [`exec_share_permille`] below this share means a
/// queue-dominated tail: the fleet is saturated, and moving servers around
/// would churn without relieving anything.
const MIGRATION_MIN_EXEC_SHARE_PERMILLE: u64 = 500;

/// Detect load imbalance and request a migration: a GPU running ≥2 busy API
/// servers at high utilization while another GPU is idle (the §VIII-E
/// scenario), provided the tail there is execution-attributed.
fn migration_tick(
    p: &ProcCtx,
    a: &MonCtx,
    servers: &[SrvBook],
    overhead: &HashMap<GpuId, u64>,
    queue: &MonQueue,
) -> bool {
    let now = p.now();
    // NVML-style utilization window: the last three monitor ticks.
    let window = Dur(MONITOR_PERIOD.as_nanos() * 3);
    if now.as_nanos() < window.as_nanos() {
        return false; // too early to judge: less than one full window observed
    }
    let since = SimTime(now.as_nanos() - window.as_nanos());
    let num_gpus = a.env.gpus.len();
    let mut busy_count = vec![0u32; num_gpus];
    for s in servers {
        if s.busy.is_some() {
            busy_count[s.shared.current_gpu().0 as usize] += 1;
        }
    }
    let Some(idle_gpu) = (0..num_gpus).find(|&g| busy_count[g] == 0) else {
        return false;
    };
    for (g, &count) in busy_count.iter().enumerate() {
        if count < 2 {
            continue;
        }
        let busy = a.env.gpus[g].busy_between(since, now).as_secs_f64();
        let util = busy / window.as_secs_f64().max(1e-9);
        if util < 0.8 {
            continue; // contended in count but not in compute
        }
        if exec_share_permille(now, a, servers, queue, GpuId(g as u32))
            < MIGRATION_MIN_EXEC_SHARE_PERMILLE
        {
            continue; // tail is queue-caused; migration would not relieve it
        }
        // Move the smallest-footprint migratable function.
        let target = GpuId(idle_gpu as u32);
        let mut cand: Option<(&SrvBook, u64)> = None;
        for s in servers {
            if s.shared.current_gpu().0 as usize != g || s.shared.migration_pending() {
                continue;
            }
            let Some(b) = &s.busy else { continue };
            let extra_ctx = if s.shared.home_gpu == target {
                0
            } else {
                a.cfg.costs.cuda_ctx_mem
            };
            if avail(&a.env.gpus, servers, overhead, target) < (b.mem + extra_ctx) as i64 {
                continue;
            }
            if cand.map(|(_, m)| b.mem < m).unwrap_or(true) {
                cand = Some((s, b.mem));
            }
        }
        if let Some((s, _)) = cand {
            s.shared.request_migration(target);
            return true; // one migration per tick
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooldown_distinguishes_never_from_a_request_at_t0() {
        let t = |ms: u64| SimTime::ZERO + Dur::from_millis(ms);
        let cooldown = Dur::from_secs(3);
        // Never requested: always cooled, even at t=0.
        assert!(migration_cooled(SimTime::ZERO, None, cooldown));
        assert!(migration_cooled(t(1), None, cooldown));
        // A genuine request at t=0 must hold the cooldown. The old
        // `SimTime::ZERO` sentinel returned true here, letting a second
        // migration fire immediately after one at the epoch.
        assert!(!migration_cooled(t(100), Some(SimTime::ZERO), cooldown));
        assert!(!migration_cooled(t(2999), Some(SimTime::ZERO), cooldown));
        assert!(migration_cooled(t(3000), Some(SimTime::ZERO), cooldown));
        // And the ordinary case away from the epoch.
        assert!(!migration_cooled(t(5000), Some(t(4000)), cooldown));
        assert!(migration_cooled(t(7000), Some(t(4000)), cooldown));
    }
}
