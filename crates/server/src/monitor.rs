//! The GPU server's monitor: "the main piece of the GPU server" (§V-A).
//!
//! The monitor tracks per-GPU memory commitments and utilization, assigns
//! incoming function requests to idle API servers under a best-fit or
//! worst-fit policy, and — when migration is enabled — moves an API server
//! off an overloaded GPU onto an idle one. Its one queue is
//! [`MqfqQueues`] (the MQFQ-Sticky design, see [`crate::fairqueue`]): one
//! flow per tenant under [`QueuePolicy::Mqfq`], and a single flow under
//! strict FCFS (head-of-line blocking is the paper's stated behaviour) and
//! smallest-first.
//!
//! It is also the failure detector: busy API servers heartbeat the monitor
//! (beats it computes from the assignment and kill instants), and a server
//! silent past its lease is declared dead — its memory commitment is
//! released, its invocation marked failed (so the serverless layer can
//! retry elsewhere), and it is excluded from future placement.
//!
//! Each wake reads one plain-integer [`View`], and pure functions decide
//! from it: dispatch ([`MqfqQueues::decide`] with [`pick_server`]'s
//! placement), scaling ([`scale_up_gpu`], [`scale_down_victim`]), migration
//! ([`migration_move`]) and lease lapses ([`lapsed`]). [`run_monitor`]
//! applies each result and reads the view afresh before the next decision.

use std::cell::OnceCell;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::ModuleRegistry;
use dgsf_gpu::{Gpu, GpuId};
use dgsf_remoting::RpcClient;
use dgsf_sim::telemetry::kind::{Counter, Gauge};
use dgsf_sim::{
    lit, Dur, Id, ObsPlane, ProcCtx, RecvError, SimCell, SimReceiver, SimSender, SimTime,
    Telemetry, TraceCtx,
};

use crate::api_server::{
    start_api_server, ApiServerEnv, ApiServerShared, Assignment, ServerCmd, HEARTBEAT_PERIOD,
};
use crate::autoscale::Autoscaler;
use crate::config::GpuServerConfig;
use crate::fairqueue::MqfqQueues;
use crate::policy::{PlacementPolicy, QueuePolicy};

/// A function's request for a virtual GPU. Its memory and arrival time are
/// in its [`InvocationRecord`]. Its requester has given up (queue timeout)
/// exactly when that record has failed: nothing else fails an invocation
/// that was never assigned.
pub(crate) struct FnRequest {
    pub registry: Arc<ModuleRegistry>,
    pub reply: SimSender<RpcClient>,
    pub invocation: u64,
    /// Causal context of the serverless request this queue entry serves;
    /// handed on to the RPC client and the API-server assignment.
    pub trace: Option<TraceCtx>,
    /// Restrict assignment to this one API server: the request waits (FCFS
    /// head-of-line rules apply) until that server is idle and its GPU
    /// fits, and is never placed elsewhere. GPU-resident DAG stages pin to
    /// the server whose context holds their predecessor's output buffer.
    pub pin_server: Option<u32>,
}

impl FnRequest {
    /// Tenant this request belongs to, from its trace context (`None` when
    /// the caller threaded none). Keys the MQFQ flow and the per-tenant
    /// telemetry.
    fn tenant(&self) -> Option<&Arc<str>> {
        self.trace.as_ref().map(|t| &t.tenant)
    }

    /// True once the requester gave up waiting: its record has failed.
    fn abandoned(&self, records: &RecordBook) -> bool {
        self.record(records).failed()
    }

    /// This request's record.
    fn record<'r>(&self, records: &'r RecordBook) -> &'r InvocationRecord {
        records
            .get(self.invocation)
            .expect("a queued request has a record")
    }
}

/// Messages the monitor consumes.
pub(crate) enum MonitorMsg {
    /// A function wants a GPU.
    Request(FnRequest),
    /// An API server's function left it: finished, or aborted (`failed`:
    /// the guest vanished or went idle past its timeout).
    FunctionEnded {
        server: u32,
        invocation: u64,
        failed: bool,
    },
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
    /// threaded), shared with the request's trace context. Drives
    /// per-tenant fairness accounting in the harness.
    pub tenant: Arc<str>,
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
/// on every routing decision, and the record list only grows. The book
/// hands out invocation ids as 1, 2, … in insert order, so record `i` sits
/// at index `i - 1`.
#[derive(Default)]
pub(crate) struct RecordBook {
    records: Vec<InvocationRecord>,
    active: usize,
    queued: usize,
}

impl RecordBook {
    /// Add the record `rec` builds for the next invocation id, and return
    /// that id.
    pub(crate) fn insert(&mut self, rec: impl FnOnce(u64) -> InvocationRecord) -> u64 {
        let invocation = self.records.len() as u64 + 1;
        let rec = rec(invocation);
        self.active += usize::from(rec.active());
        self.queued += usize::from(rec.queued());
        self.records.push(rec);
        invocation
    }

    pub(crate) fn get(&self, invocation: u64) -> Option<&InvocationRecord> {
        self.records.get(invocation.checked_sub(1)? as usize)
    }

    /// Change one record through `f`, keeping the counts in step. `None`
    /// if there is no such record.
    pub(crate) fn update<R>(
        &mut self,
        invocation: u64,
        f: impl FnOnce(&mut InvocationRecord) -> R,
    ) -> Option<R> {
        let rec = self.records.get_mut(invocation.checked_sub(1)? as usize)?;
        let (active, queued) = (rec.active(), rec.queued());
        let out = f(rec);
        let (now_active, now_queued) = (rec.active(), rec.queued());
        self.active = self.active + usize::from(now_active) - usize::from(active);
        self.queued = self.queued + usize::from(now_queued) - usize::from(queued);
        Some(out)
    }

    /// Declare `invocation` failed at `at` and count it in `tel`'s
    /// `invocation.failures`, unless it already finished or failed (the
    /// first failure wins).
    pub(crate) fn mark_failed(&mut self, at: SimTime, invocation: u64, tel: &Telemetry) {
        let failed = self.update(invocation, |rec| {
            let fail = rec.active();
            if fail {
                rec.failed_at = Some(at);
            }
            fail
        });
        if failed == Some(true) {
            tel.counter_add(lit!("invocation.failures"), 1);
        }
    }

    /// Every record, in invocation order.
    pub(crate) fn all(&self) -> &[InvocationRecord] {
        &self.records
    }

    /// `(active, queued)`: invocations neither finished nor failed, and
    /// those of them not yet assigned.
    pub(crate) fn counts(&self) -> (usize, usize) {
        (self.active, self.queued)
    }

    /// [`counts`](Self::counts) by scanning every record, for checking the
    /// kept counts.
    pub(crate) fn scan_counts(&self) -> (usize, usize) {
        let active = self.records.iter().filter(|r| r.active()).count();
        let queued = self.records.iter().filter(|r| r.queued()).count();
        (active, queued)
    }
}

/// One API server in the GPU server's list: what [`crate::GpuServer`]
/// reads of it, and the monitor's book-keeping.
pub(crate) struct SrvBook {
    pub(crate) shared: Rc<ApiServerShared>,
    assign_tx: SimSender<ServerCmd>,
    /// The invocation the server runs; its memory, tenant and assignment
    /// time are in its [`InvocationRecord`].
    busy: Option<u64>,
    /// Start of the server's current idle period (spawn, or the moment its
    /// last function left). Drives the autoscaler's scale-down TTL.
    idle_since: SimTime,
}

impl SrvBook {
    /// An idle server started at `now` (see [`start_api_server`]).
    pub(crate) fn new(
        (shared, assign_tx): (Rc<ApiServerShared>, SimSender<ServerCmd>),
        now: SimTime,
    ) -> SrvBook {
        SrvBook {
            shared,
            assign_tx,
            busy: None,
            idle_since: now,
        }
    }

    /// Idle and live (not lease-expired): the only kind of server a
    /// placement or a scale-down can pick.
    fn idle(&self) -> bool {
        self.busy.is_none() && !self.shared.lease_expired()
    }
}

/// What the monitor's decisions read of one GPU: its declared free memory
/// (capacity less every server's declared memory there, see
/// [`ApiServerShared::declared`], and the memory of the functions running
/// there; negative when over-committed), its live (not lease-expired)
/// homed servers and the busy servers executing on it.
#[derive(Clone, Copy, Debug, Default)]
struct GpuView {
    free: i64,
    homed: u32,
    busy: u32,
}

/// What the monitor's decisions read of one API server: `live` is "not
/// lease-expired", `killed` the kill instant if it is not after the
/// view's, `migrating` a migration pending or in flight, and `busy` the
/// running invocation, its memory and assignment time read from its
/// [`InvocationRecord`].
#[derive(Clone, Copy, Debug)]
struct SrvView {
    id: u32,
    home: GpuId,
    current: GpuId,
    live: bool,
    killed: Option<SimTime>,
    migrating: bool,
    idle_since: SimTime,
    busy: Option<Running>,
}

#[derive(Clone, Copy, Debug)]
struct Running {
    invocation: u64,
    mem: u64,
    assigned_at: SimTime,
}

/// The plain-integer view the monitor decides from, read at one instant:
/// per GPU (by id) and per server (in list order). Its buffers are reused
/// from read to read.
#[derive(Debug, Default)]
struct View {
    now: SimTime,
    gpus: Vec<GpuView>,
    servers: Vec<SrvView>,
}

impl View {
    /// Read the view at `now` from the server list and the records.
    fn read(&mut self, now: SimTime, a: &MonCtx, servers: &[SrvBook]) {
        self.now = now;
        self.gpus.clear();
        self.gpus.extend(a.env.gpus.iter().map(|g| GpuView {
            free: g.total_mem() as i64,
            ..GpuView::default()
        }));
        self.servers.clear();
        let records = a.records.lock();
        for s in servers {
            let sh = &s.shared;
            let gpus = &mut self.gpus;
            let (current, pending) =
                sh.declared(&a.env.costs, |g, mem| gpus[g.0 as usize].free -= mem as i64);
            let live = !sh.lease_expired();
            if live {
                gpus[sh.home_gpu.0 as usize].homed += 1;
            }
            let busy = s.busy.map(|invocation| {
                let rec = records
                    .get(invocation)
                    .expect("a running invocation has a record");
                let assigned_at = rec.assigned_at.expect("a running invocation was assigned");
                Running {
                    invocation,
                    mem: rec.mem,
                    assigned_at,
                }
            });
            if let Some(b) = busy {
                let g = &mut gpus[current.0 as usize];
                g.free -= b.mem as i64;
                g.busy += 1;
            }
            self.servers.push(SrvView {
                id: sh.id,
                home: sh.home_gpu,
                current,
                live,
                killed: sh.killed_by(now),
                migrating: pending || sh.migration_in_flight(),
                idle_since: s.idle_since,
                busy,
            });
        }
    }
}

/// The queue flow a request of `tenant` joins: its tenant's under MQFQ,
/// one shared flow under FCFS and smallest-first.
fn flow_of(policy: QueuePolicy, tenant: &str) -> &str {
    match policy {
        QueuePolicy::Mqfq => tenant,
        QueuePolicy::Fcfs | QueuePolicy::SmallestFirst => "",
    }
}

/// How long each queued request has waited by `now`, in a deterministic
/// (not dispatch) order.
fn waits<'q>(
    queue: &'q MqfqQueues<FnRequest>,
    records: &'q RecordBook,
    now: SimTime,
) -> impl Iterator<Item = Dur> + 'q {
    queue
        .iter()
        .map(move |r| now.since(r.record(records).requested_at))
}

/// The monitor's immutable context, built at provisioning and shared by
/// the helpers below.
pub(crate) struct MonCtx {
    /// The API servers' shared environment: the GPUs, the NIC, and what
    /// the autoscaler hands to the servers it starts.
    pub env: ApiServerEnv,
    pub cfg: GpuServerConfig,
    pub records: Rc<SimCell<RecordBook>>,
    /// The API servers, in spawn order, shared with [`crate::GpuServer`]:
    /// the autoscaler pushes spawned servers and removes retired ones. The
    /// monitor borrows it for one wake at a time, never across `recv`.
    pub servers: Rc<SimCell<Vec<SrvBook>>>,
    /// Online observability plane. When present the monitor feeds per-GPU
    /// health scores each tick and a predictive autoscaler reads its
    /// streamed signals.
    pub obs: Option<Rc<ObsPlane>>,
    /// One per GPU, built once so the per-tick sampling formats nothing.
    pub gpu_keys: Vec<GpuKeys>,
}

/// Telemetry gauge names and the obs health label of one GPU.
pub(crate) struct GpuKeys {
    mem_used: String,
    util_bp: String,
    /// The two gauges' ids, resolved at the first sample.
    gauges: OnceCell<[Id<Gauge>; 2]>,
    /// `{label}.gpu{i}`; empty when no obs plane is wired.
    health: String,
}

impl GpuKeys {
    /// The keys of GPUs `0..n`; `obs_label` is this server's stable label
    /// on the obs plane (e.g. `srv0`), when one is wired.
    pub(crate) fn for_gpus(n: u32, obs_label: Option<&str>) -> Vec<GpuKeys> {
        (0..n)
            .map(|i| GpuKeys {
                mem_used: format!("gpu.{i}.mem_used_bytes"),
                util_bp: format!("gpu.{i}.util_bp"),
                gauges: OnceCell::new(),
                health: obs_label.map_or_else(String::new, |label| format!("{label}.gpu{i}")),
            })
            .collect()
    }

    /// The memory and utilization gauges' ids in `tel`.
    fn gauges(&self, tel: &Telemetry) -> [Id<Gauge>; 2] {
        *self
            .gauges
            .get_or_init(|| [tel.id(&self.mem_used), tel.id(&self.util_bp)])
    }
}

/// A tenant's dispatch counter and queue-delay gauge, by tenant, resolved at
/// the tenant's first dispatch.
type TenantKeys = BTreeMap<Arc<str>, (Id<Counter>, Id<Gauge>)>;

/// Monitor tick: utilization sampling, lease and migration checks. The
/// paper samples NVML every 200 ms.
const MONITOR_PERIOD: Dur = Dur::from_millis(200);

/// Migration's NVML-style utilization window: the last three monitor
/// ticks.
const MIGRATION_WINDOW: Dur = Dur(MONITOR_PERIOD.0 * 3);

/// Upper bound on migrations in flight (requested or mid-transfer) at
/// once. The paper migrates one server at a time.
const MAX_CONCURRENT_MIGRATIONS: usize = 1;

/// Body of the monitor process. Each wake (a message or a tick) first
/// drops the queued requests whose requesters gave up, then handles what
/// woke it with the server list borrowed: it reads the [`View`] right
/// before each decision, so a decision sees every action taken before it.
/// The borrow ends before the next `recv`, so other processes can read the
/// list while the monitor waits.
pub(crate) fn run_monitor(p: &ProcCtx, a: MonCtx, rx: SimReceiver<MonitorMsg>) {
    // Warm-pool autoscaling state: ids continue past the provisioned
    // fleet; the scaler is pure policy (hysteresis/TTL/cooldown).
    let mut next_server_id = a.servers.lock().len() as u32;
    let mut scaler = a.cfg.autoscale.clone().map(Autoscaler::new);
    let mut queue: MqfqQueues<FnRequest> = MqfqQueues::default();
    // Migration damping: bound concurrent migrations, and let the system
    // settle before judging imbalance again. `None` = never requested.
    let mut last_migration: Option<SimTime> = None;
    let mut view = View::default();
    // Each GPU's busy time over the migration window, read at the ticks
    // that judge migration.
    let mut busy_ns: Vec<u64> = Vec::with_capacity(a.env.gpus.len());

    let mut next_tick = p.now() + MONITOR_PERIOD;
    // Telemetry bookkeeping: only emit the queue-depth gauge on change, and
    // sample per-GPU timelines once per tick over the since-last-sample
    // window.
    let mut last_depth: usize = 0;
    let mut last_gpu_sample = p.now();
    // Each tenant's dispatch counter and queue-delay gauge.
    let tenants = &mut TenantKeys::new();

    loop {
        if p.telemetry().is_enabled() && queue.len() != last_depth {
            last_depth = queue.len();
            p.telemetry()
                .gauge_set(lit!("monitor.queue_depth"), p.now(), last_depth as i64);
        }
        // Periodic ticks drive the migration policy, the lease check and
        // the autoscaler; they are armed only while work is in flight or
        // the pool holds live servers above the autoscaler's floor (which
        // must eventually be retired). An idle monitor blocks indefinitely,
        // which lets the simulation's event queue drain and `Sim::run`
        // terminate naturally. Failed servers never retire, so they do not
        // keep the tick armed. The deadline is absolute: message traffic
        // must not indefinitely re-arm the timeout and starve the tick.
        let servers = a.servers.lock();
        let work_in_flight = servers.iter().any(|s| s.busy.is_some()) || !queue.is_empty();
        let excess_live = !work_in_flight
            && scaler.as_ref().is_some_and(|sc| {
                view.read(p.now(), &a, &servers);
                view.gpus.iter().any(|g| g.homed > sc.config().min_per_gpu)
            });
        drop(servers); // never held across `recv`
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
        // Once per wake: a request abandoned while the monitor waited must
        // neither take a server nor count as its tenant's backlog when that
        // tenant's next request is pushed (MQFQ clamps a tenant's virtual
        // time only when it re-activates from idle).
        let records = a.records.lock();
        queue.retain(|r| !r.abandoned(&records));
        drop(records);
        let mut servers = a.servers.lock();
        let now = p.now();
        match msg {
            Ok(MonitorMsg::Request(req)) => {
                // Under a zero queue timeout the requester has already
                // given up.
                if !req.abandoned(&a.records.lock()) {
                    let tenant = req.tenant().cloned();
                    queue.push(flow_of(a.cfg.queue, tenant.as_deref().unwrap_or("")), req);
                }
                drain_queue(p, &a, &mut view, &mut servers, &mut queue, tenants, false);
            }
            Ok(MonitorMsg::FunctionEnded {
                server,
                invocation,
                failed,
            }) => {
                // An aborted function fails only its invocation: the server
                // stays in the placement pool.
                if let Some(s) = servers.iter_mut().find(|s| s.shared.id == server) {
                    release(now, &a, s, &mut queue);
                }
                if failed {
                    a.records.lock().mark_failed(now, invocation, p.telemetry());
                } else {
                    a.records.lock().update(invocation, |rec| {
                        // A lease may already have failed this invocation
                        // over; the late completion loses.
                        if rec.failed_at.is_none() {
                            rec.done_at = Some(now);
                        }
                    });
                }
                drain_queue(p, &a, &mut view, &mut servers, &mut queue, tenants, false);
            }
            Err(RecvError::Timeout) => {
                next_tick = now + MONITOR_PERIOD;
                sample_gpus(p, &a, &mut last_gpu_sample);
                // The view is read only for a decision that can act: a
                // lease lapses only on a killed server, and the autoscaler
                // acts only when a scale-up is due or an idle server's
                // scale-down is.
                let mut fresh = false;
                if servers.iter().any(|s| s.shared.killed_by(now).is_some()) {
                    view.read(now, &a, &servers);
                    expire_leases(p, &a, &mut view, &mut servers, &mut queue);
                    fresh = true;
                }
                if let Some(sc) = scaler.as_mut() {
                    let due = autoscale_due(&a, sc, &queue, now);
                    let down = |s: &SrvBook| s.idle() && sc.scale_down_due(now, s.idle_since);
                    if due.0 || due.1 || servers.iter().any(down) {
                        if !fresh {
                            view.read(now, &a, &servers);
                        }
                        let id = &mut next_server_id;
                        fresh = !autoscale_tick(p, &a, sc, &view, &mut servers, id, due);
                    }
                }
                // Drain unconditionally: a lease expiry or scale-up may
                // have freed capacity, and a head-of-line request dropped
                // at this wake must not strand placeable requests behind
                // it until the next message arrives. The view is still
                // current if it was read and the autoscaler did not act.
                drain_queue(p, &a, &mut view, &mut servers, &mut queue, tenants, fresh);
                if a.cfg.migration {
                    view.read(now, &a, &servers);
                    let since = now.as_nanos().saturating_sub(MIGRATION_WINDOW.as_nanos());
                    let busy = |g: &Rc<Gpu>| g.busy_between(SimTime(since), now).as_nanos();
                    busy_ns.clear();
                    busy_ns.extend(a.env.gpus.iter().map(busy));
                    let waited = waits(&queue, &a.records.lock(), now)
                        .map(Dur::as_nanos)
                        .sum();
                    let mv = migration_move(&view, &a.cfg, &busy_ns, waited, last_migration);
                    if let Some((i, target)) = mv {
                        servers[i].shared.request_migration(target);
                        last_migration = Some(now);
                    }
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
        let busy = gpu.busy_between(since, now).as_nanos();
        let util_bp = busy.saturating_mul(10_000).checked_div(window);
        if tel.is_enabled() {
            let [mem_used, util] = keys.gauges(tel);
            tel.gauge_set(mem_used, now, used as i64);
            if let Some(util_bp) = util_bp {
                tel.gauge_set(util, now, util_bp as i64);
            }
        }
        if let Some(obs) = &a.obs {
            let mem_permille = used.saturating_mul(1000) / gpu.total_mem().max(1);
            let util_permille = util_bp.unwrap_or(0) / 10;
            let score = 1000u64.saturating_sub(mem_permille.max(util_permille).min(1000));
            obs.record_health(now, &keys.health, score);
        }
    }
}

/// A function left server `s` (it finished, aborted, or the server's
/// lease expired): the server is idle from `now` on, and the function's
/// flow is charged its exact service time, which releases the flow's
/// provisional hold.
fn release(now: SimTime, a: &MonCtx, s: &mut SrvBook, queue: &mut MqfqQueues<FnRequest>) {
    s.idle_since = now;
    let Some(invocation) = s.busy.take() else {
        return;
    };
    let records = a.records.lock();
    let rec = records
        .get(invocation)
        .expect("a running invocation has a record");
    let assigned_at = rec.assigned_at.expect("a running invocation was assigned");
    let flow = flow_of(a.cfg.queue, &rec.tenant);
    queue.charge(flow, now.since(assigned_at).as_nanos());
}

/// Monitor-side lease: a busy API server whose last heartbeat is older than
/// this is declared dead, its memory commitment released and its invocation
/// failed over. Five of the API servers' heartbeat periods (1 s).
const LEASE_TIMEOUT: Dur = Dur(HEARTBEAT_PERIOD.0 * 5);

/// The last heartbeat of a server assigned at `assigned` and killed at
/// `killed`: the assignment counts as a beat, one follows every
/// [`HEARTBEAT_PERIOD`], and a beat due at the kill instant is not sent.
/// The assignment itself when the kill came at or before it.
fn last_heartbeat(assigned: SimTime, killed: SimTime) -> SimTime {
    let alive = killed.as_nanos().saturating_sub(assigned.as_nanos() + 1);
    assigned + Dur(alive - alive % HEARTBEAT_PERIOD.as_nanos())
}

/// Lease decision: the busy servers, as (list index, invocation) in list
/// order, killed with their last heartbeat ([`last_heartbeat`]) more than
/// [`LEASE_TIMEOUT`] before the view's instant. A server not killed keeps
/// beating, so its lease never lapses, and a lapsed one is never busy
/// again.
fn lapsed(view: &View) -> impl Iterator<Item = (usize, u64)> + '_ {
    view.servers.iter().enumerate().filter_map(|(i, s)| {
        let (b, killed) = (s.busy?, s.killed?);
        let lapsed = view.now.since(last_heartbeat(b.assigned_at, killed)) > LEASE_TIMEOUT;
        lapsed.then_some((i, b.invocation))
    })
}

/// Declare the [`lapsed`] servers dead: exclude each from placement,
/// release its memory commitment and fail its invocation over (the freed
/// capacity may unblock the queue — not for the failed server, but for
/// servers homed on its GPU; the caller drains the queue after every tick).
/// The dead server's service so far is charged to its tenant's fair-queue
/// flow, so a tenant whose functions keep dying still pays for the GPU time
/// they held.
fn expire_leases(
    p: &ProcCtx,
    a: &MonCtx,
    view: &mut View,
    servers: &mut [SrvBook],
    queue: &mut MqfqQueues<FnRequest>,
) {
    let now = view.now;
    let mut lapses = 0;
    for (i, invocation) in lapsed(view) {
        lapses += 1;
        let s = &mut servers[i];
        s.shared.expire_lease();
        release(now, a, s, queue);
        let tel = p.telemetry();
        if tel.is_enabled() {
            tel.counter_add(lit!("monitor.lease_expirations"), 1);
            tel.instant(
                p.track(),
                lit!("lease-expired"),
                now,
                &[
                    (lit!("server"), s.shared.id.into()),
                    (lit!("invocation"), invocation.into()),
                ],
            );
        }
        a.records.lock().mark_failed(now, invocation, tel);
    }
    if lapses > 0 {
        view.read(now, a, servers);
    }
}

/// Drain the queue under the configured discipline, one pure decision
/// ([`MqfqQueues::decide`]) and its [`MqfqQueues::take`] at a time: strict
/// FCFS offers its one flow's head (head-of-line blocking, the paper's
/// policy); smallest-first offers its one flow's smallest request and waits
/// while it does not place; MQFQ offers each tenant's head and serves the
/// lowest virtual time among those that place (work conservation). Each
/// request is placed by [`pick_server`]. Every queued request is live:
/// [`run_monitor`] dropped the abandoned ones at this wake, and none can
/// give up before the monitor waits again. The view is read before each
/// decision, except the first when the caller's view is `fresh` (nothing
/// acted since it was read). Only an idle live server places a request, so
/// without one the drain stops before reading the view.
fn drain_queue(
    p: &ProcCtx,
    a: &MonCtx,
    view: &mut View,
    servers: &mut [SrvBook],
    queue: &mut MqfqQueues<FnRequest>,
    tenant_keys: &mut TenantKeys,
    mut fresh: bool,
) {
    let (policy, now) = (a.cfg.policy, p.now());
    let smallest = a.cfg.queue == QueuePolicy::SmallestFirst;
    while !queue.is_empty() {
        if !servers.iter().any(SrvBook::idle) {
            return;
        }
        if !fresh {
            view.read(now, a, servers);
        }
        fresh = false;
        let records = a.records.lock();
        let mem = |r: &FnRequest| r.record(&records).mem;
        let rank = |r: &FnRequest| if smallest { mem(r) } else { 0 };
        let picked = queue.decide(rank, |r| pick_server(view, policy, mem(r), r.pin_server));
        drop(records); // assignment updates the record
        let Some((pick, srv_idx)) = picked else {
            return;
        };
        let req = queue.take(pick);
        // Connect the RPC client, mark the server busy, update the record,
        // emit telemetry (with the per-tenant queue delay) and assign.
        let (mut client, inbox) = RpcClient::connect(&a.env.h, Arc::clone(&a.env.link));
        client.set_timeout(a.cfg.rpc_timeout);
        client.set_trace(req.trace.clone());
        let s = &mut servers[srv_idx];
        s.busy = Some(req.invocation);
        let mut records = a.records.lock();
        let (mem, requested_at) = records
            .update(req.invocation, |rec| {
                rec.assigned_at = Some(now);
                rec.server = Some(s.shared.id);
                rec.gpu = Some(s.shared.home_gpu);
                (rec.mem, rec.requested_at)
            })
            .expect("a queued request has a record");
        drop(records);
        let tel = p.telemetry();
        tel.counter_add(lit!("monitor.assignments"), 1);
        if let Some(t) = req.tenant().filter(|t| tel.is_enabled() && !t.is_empty()) {
            let (dispatches, delay) = match tenant_keys.get(&**t) {
                Some(&keys) => keys,
                None => {
                    let dispatches = tel.id(&format!("monitor.tenant.{t}.dispatches"));
                    let delay = tel.id(&format!("monitor.tenant.{t}.queue_delay_us"));
                    *tenant_keys
                        .entry(Arc::clone(t))
                        .or_insert((dispatches, delay))
                }
            };
            tel.counter_add(dispatches, 1);
            let delay_us = now.since(requested_at).as_nanos() / 1_000;
            tel.gauge_set(delay, now, delay_us as i64);
        }
        let assignment = Assignment {
            inbox,
            registry: req.registry,
            mem_limit: mem,
            invocation: req.invocation,
            trace: req.trace.clone(),
        };
        s.assign_tx.send(p, ServerCmd::Assign(assignment));
        req.reply.send(p, client);
    }
}

/// Placement decision: the idle, live server (list index) whose home GPU
/// fits `mem`, by policy — best fit takes the least declared free memory,
/// worst fit the most, ties to the lowest index. A pinned request considers
/// only its pinned server — `None` while that server is busy means the
/// request waits for it, and a pin on a failed (lease-expired) or retired
/// server never places, leaving the requester's queue timeout to fail the
/// invocation over.
fn pick_server(view: &View, policy: PlacementPolicy, mem: u64, pin: Option<u32>) -> Option<usize> {
    let fits = view
        .servers
        .iter()
        .enumerate()
        .filter(|(_, s)| s.live && s.busy.is_none() && pin.is_none_or(|id| s.id == id))
        .map(|(i, s)| (i, view.gpus[s.home.0 as usize].free))
        .filter(|&(_, free)| free >= mem as i64);
    let best = match policy {
        PlacementPolicy::BestFit => fits.min_by_key(|&(_, free)| free),
        PlacementPolicy::WorstFit => fits.min_by_key(|&(_, free)| Reverse(free)),
    };
    best.map(|(i, _)| i)
}

/// Scale-up decision: the GPU with the most declared free memory among
/// those under the per-GPU ceiling that still fit the idle footprint (ties:
/// lowest GPU id).
fn scale_up_gpu(view: &View, max_per_gpu: u32, idle_footprint: u64) -> Option<GpuId> {
    view.gpus
        .iter()
        .enumerate()
        .filter(|(_, g)| g.homed < max_per_gpu && g.free >= idle_footprint as i64)
        .min_by_key(|(_, g)| Reverse(g.free))
        .map(|(i, _)| GpuId(i as u32))
}

/// Scale-down decision: the live, idle server (list index) not migrating
/// whose idle period passed the TTL, idle longest (ties:
/// lowest server id), as long as its GPU keeps more live servers than the
/// floor.
fn scale_down_victim(view: &View, scaler: &Autoscaler) -> Option<usize> {
    let min = scaler.config().min_per_gpu;
    view.servers
        .iter()
        .enumerate()
        .filter(|(_, s)| s.live && s.busy.is_none() && !s.migrating)
        .filter(|(_, s)| view.gpus[s.home.0 as usize].homed > min)
        .filter(|(_, s)| scaler.scale_down_due(view.now, s.idle_since))
        .min_by_key(|(_, s)| (s.idle_since, s.id))
        .map(|(i, _)| i)
}

/// The autoscaler's tick input: feed it the queue-delay signal (and, in
/// predictive mode, the obs plane's), and say whether a reactive scale-up
/// and a pre-warm are due.
fn autoscale_due(
    a: &MonCtx,
    scaler: &mut Autoscaler,
    queue: &MqfqQueues<FnRequest>,
    now: SimTime,
) -> (bool, bool) {
    let oldest_wait = waits(queue, &a.records.lock(), now).max();
    // Predictive mode reads the obs plane's streamed signals: the
    // arrival-rate ramp (pre-warm trigger) and the queue-attributed share
    // of tail latency (reactive-growth gate).
    if let Some(obs) = &a.obs {
        scaler.observe_signals(obs.rate_ramp(now), obs.tail_queue_share_permille(now));
    }
    scaler.observe_queue(oldest_wait);
    (scaler.scale_up_due(now), scaler.prewarm_due(now))
}

/// One autoscaler action, at most, on the view: a scale-up when one is
/// `due` (reactive, pre-warm; see [`autoscale_due`]), which wins over a
/// scale-down. A spawned server pays the same 755 MB idle footprint as a
/// provisioned one (no spawn when the GPU cannot actually fit it); a
/// retired one leaves the list with its declared memory, and `Retire`
/// makes its process release its real reservations and exit. Whether it
/// acted.
fn autoscale_tick(
    p: &ProcCtx,
    a: &MonCtx,
    scaler: &mut Autoscaler,
    view: &View,
    servers: &mut Vec<SrvBook>,
    next_server_id: &mut u32,
    (reactive_up, prewarm): (bool, bool),
) -> bool {
    let now = view.now;
    if reactive_up || prewarm {
        let (id, idle_fp) = (*next_server_id, a.cfg.costs.idle_worker_mem());
        let started = scale_up_gpu(view, scaler.config().max_per_gpu, idle_fp)
            .and_then(|gpu| Some((gpu, start_api_server(p, &a.env, id, gpu)?)));
        if let Some((gpu, started)) = started {
            *next_server_id += 1;
            servers.push(SrvBook::new(started, now));
            scaled(p, servers, "autoscale.scale_ups", "scale-up", id, gpu);
            scaler.record_action(now);
            let tel = p.telemetry();
            if prewarm && !reactive_up && tel.is_enabled() {
                // Capacity added purely on the rate-ramp forecast,
                // before any queue-delay breach.
                tel.counter_add(lit!("autoscale.prewarms"), 1);
                let args = [(lit!("gpu"), gpu.0.into())];
                tel.instant(p.track(), lit!("prewarm"), now, &args);
            }
            return true; // one action per tick
        }
    }
    let Some(i) = scale_down_victim(view, scaler) else {
        return false;
    };
    let s = servers.remove(i);
    s.assign_tx.send(p, ServerCmd::Retire);
    let (id, gpu) = (s.shared.id, s.shared.home_gpu);
    scaled(p, servers, "autoscale.scale_downs", "scale-down", id, gpu);
    scaler.record_action(now);
    true
}

/// Telemetry of one scaling action on server `id`, homed on `gpu`: the
/// action's `counter`, the live pool-size gauge and an `event` instant.
/// Scaling is rare, so the names are looked up by their bytes.
fn scaled(p: &ProcCtx, servers: &[SrvBook], counter: &str, event: &str, id: u32, gpu: GpuId) {
    let tel = p.telemetry();
    if !tel.is_enabled() {
        return;
    }
    let live = servers.iter().filter(|s| !s.shared.lease_expired()).count();
    tel.counter_add(counter, 1);
    tel.gauge_set(lit!("monitor.pool_size"), p.now(), live as i64);
    tel.instant(
        p.track(),
        event,
        p.now(),
        &[(lit!("server"), id.into()), (lit!("gpu"), gpu.0.into())],
    );
}

/// Execution share of the load signal on GPU `g`, in integer per mille:
/// how long the functions running there have executed, against
/// `queue_wait_ns`, how long everything queued has waited. A high share
/// means an *exec*-caused tail (co-located functions slowing each other
/// down), which migration can fix; a low one a queue-saturated fleet, where
/// moving servers would only churn. An empty system scores 1000.
fn exec_share_permille(view: &View, g: usize, queue_wait_ns: u64) -> u64 {
    let exec_ns: u64 = view
        .servers
        .iter()
        .filter(|s| s.current.0 as usize == g)
        .filter_map(|s| s.busy)
        .map(|b| view.now.since(b.assigned_at).as_nanos())
        .sum();
    let total = exec_ns as u128 + queue_wait_ns as u128;
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

/// Migration's compute gate: a GPU busy for `busy_ns` of the last
/// `window_ns` (non-zero) is loaded enough to migrate off at 80 %
/// utilization or more. Integer per mille, so no float reaches the
/// decision.
fn saturated(busy_ns: u64, window_ns: u64) -> bool {
    busy_ns * 1000 / window_ns >= 800
}

/// Migration decision: which server (list index) to move to which GPU to
/// fix a load imbalance, the §VIII-E scenario. Nothing moves while a
/// migration is in flight, before `cfg`'s cooldown since the `last`
/// request has passed (never requested: always cooled, even at t = 0), or
/// before one full [`MIGRATION_WINDOW`] has been observed. The target is
/// the first GPU running no busy server; the source the first GPU running
/// ≥2 busy servers, busy for ≥80 % of the window (`busy_ns`, by GPU) and
/// with an execution-attributed tail ([`exec_share_permille`]). The server
/// moved runs the source's smallest function that fits the target,
/// counting the extra context when the target is not the server's home.
fn migration_move(
    view: &View,
    cfg: &GpuServerConfig,
    busy_ns: &[u64],
    queue_wait_ns: u64,
    last: Option<SimTime>,
) -> Option<(usize, GpuId)> {
    let cooldown = MONITOR_PERIOD
        .0
        .saturating_mul(cfg.migration_cooldown_ticks as u64);
    let cooled = last.is_none_or(|t| view.now.since(t).as_nanos() >= cooldown);
    let in_flight = view.servers.iter().filter(|s| s.migrating).count();
    if in_flight >= MAX_CONCURRENT_MIGRATIONS || !cooled || view.now.0 < MIGRATION_WINDOW.0 {
        return None;
    }
    let target = view.gpus.iter().position(|g| g.busy == 0)?;
    let target_free = view.gpus[target].free;
    let target = GpuId(target as u32);
    let mut loaded = (0..view.gpus.len()).filter(|&g| {
        view.gpus[g].busy >= 2
            && saturated(busy_ns[g], MIGRATION_WINDOW.0)
            && exec_share_permille(view, g, queue_wait_ns) >= MIGRATION_MIN_EXEC_SHARE_PERMILLE
    });
    loaded.find_map(|g| {
        let movable = view.servers.iter().enumerate().filter_map(|(i, s)| {
            let b = s
                .busy
                .filter(|_| s.current.0 as usize == g && !s.migrating)?;
            let extra_ctx = if s.home == target {
                0
            } else {
                cfg.costs.cuda_ctx_mem
            };
            (target_free >= (b.mem + extra_ctx) as i64).then_some((i, b.mem))
        });
        movable
            .min_by_key(|&(_, mem)| mem)
            .map(|(i, _)| (i, target))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::AutoscaleConfig;
    use dgsf_cuda::CostTable;
    use dgsf_gpu::{GB, MB};

    fn ms(m: u64) -> SimTime {
        SimTime::ZERO + Dur::from_millis(m)
    }

    /// A GPU with `free` bytes of declared free memory.
    fn gpu(free: u64, homed: u32, busy: u32) -> GpuView {
        GpuView {
            free: free as i64,
            homed,
            busy,
        }
    }

    /// Live, idle server `id` at home on GPU `home`, idle since t = 0.
    fn srv(id: u32, home: u32) -> SrvView {
        SrvView {
            id,
            home: GpuId(home),
            current: GpuId(home),
            live: true,
            killed: None,
            migrating: false,
            idle_since: SimTime::ZERO,
            busy: None,
        }
    }

    /// `s` running invocation `id` of `mem` bytes, assigned at `at`.
    fn running(s: SrvView, id: u64, mem: u64, at: SimTime) -> SrvView {
        SrvView {
            busy: Some(Running {
                invocation: id,
                mem,
                assigned_at: at,
            }),
            ..s
        }
    }

    fn view(now: SimTime, gpus: Vec<GpuView>, servers: Vec<SrvView>) -> View {
        View { now, gpus, servers }
    }

    #[test]
    fn best_fit_packs_and_worst_fit_spreads_with_ties_to_the_lowest_index() {
        use PlacementPolicy::{BestFit, WorstFit};
        let gpus = vec![
            gpu(8 * GB, 1, 0),
            gpu(3 * GB, 1, 0),
            gpu(12 * GB, 1, 0),
            gpu(3 * GB, 1, 0),
        ];
        let v = view(SimTime::ZERO, gpus, (0..4).map(|i| srv(i, i)).collect());
        // The least free GPU that fits: 3 GB on GPUs 1 and 3, so index 1.
        assert_eq!(pick_server(&v, BestFit, 2 * GB, None), Some(1));
        assert_eq!(pick_server(&v, BestFit, 3 * GB, None), Some(1));
        assert_eq!(pick_server(&v, BestFit, 3 * GB + 1, None), Some(0));
        assert_eq!(pick_server(&v, WorstFit, 2 * GB, None), Some(2));
        assert_eq!(pick_server(&v, BestFit, 12 * GB + 1, None), None);
        // Worst fit ties go to the lowest index too.
        let even = view(
            SimTime::ZERO,
            vec![gpu(5 * GB, 1, 0); 2],
            vec![srv(0, 0), srv(1, 1)],
        );
        assert_eq!(pick_server(&even, WorstFit, GB, None), Some(0));
        assert_eq!(pick_server(&even, BestFit, GB, None), Some(0));
        // A busy server is skipped, whatever its GPU offers.
        let mut v = v;
        v.servers[1] = running(v.servers[1], 7, GB, SimTime::ZERO);
        assert_eq!(pick_server(&v, BestFit, 2 * GB, None), Some(3));
    }

    #[test]
    fn a_pinned_request_waits_for_its_server_and_a_lapsed_server_never_places() {
        use PlacementPolicy::BestFit;
        let gpus = vec![gpu(10 * GB, 2, 1), gpu(10 * GB, 1, 0)];
        let servers = vec![
            running(srv(0, 0), 1, GB, SimTime::ZERO),
            srv(1, 0),
            srv(2, 1),
        ];
        let mut v = view(SimTime::ZERO, gpus, servers);
        // Pinned to the busy server 0: waits, though 1 and 2 are idle.
        assert_eq!(pick_server(&v, BestFit, GB, Some(0)), None);
        assert_eq!(pick_server(&v, BestFit, GB, Some(2)), Some(2));
        // A pin on a server not in the list (retired) never places.
        assert_eq!(pick_server(&v, BestFit, GB, Some(9)), None);
        // A lease-expired server never places, pinned or not.
        v.servers[1].live = false;
        v.servers[2].live = false;
        assert_eq!(pick_server(&v, BestFit, GB, Some(2)), None);
        assert_eq!(pick_server(&v, BestFit, GB, None), None);
    }

    #[test]
    fn scale_up_respects_the_ceiling_and_the_idle_footprint() {
        let fp = CostTable::default().idle_worker_mem();
        assert_eq!(fp, 755 * MB);
        let gpus = vec![gpu(10 * GB, 2, 0), gpu(fp - 1, 1, 0), gpu(5 * GB, 1, 0)];
        let v = view(SimTime::ZERO, gpus, Vec::new());
        // GPU 0 is at the ceiling of 2 and GPU 1 cannot fit the footprint.
        assert_eq!(scale_up_gpu(&v, 2, fp), Some(GpuId(2)));
        assert_eq!(scale_up_gpu(&v, 3, fp), Some(GpuId(0)));
        assert_eq!(scale_up_gpu(&v, 1, fp), None);
        // Exactly the footprint fits; ties go to the lowest GPU id.
        let v = view(SimTime::ZERO, vec![gpu(fp, 1, 0); 2], Vec::new());
        assert_eq!(scale_up_gpu(&v, 2, fp), Some(GpuId(0)));
    }

    #[test]
    fn scale_down_retires_the_longest_idle_server_above_the_floor() {
        let scaler = Autoscaler::new(AutoscaleConfig::new(1, 4).with_idle_ttl(Dur::from_secs(5)));
        let idle = |s: SrvView, at: u64| SrvView {
            idle_since: ms(at),
            ..s
        };
        let now = ms(10_000);
        // GPU 0 holds five live servers, GPU 1 only its floor of one.
        let gpus = vec![gpu(0, 5, 1), gpu(0, 1, 0)];
        let servers = vec![
            idle(srv(7, 0), 2_000),
            idle(srv(3, 0), 2_000),
            idle(srv(4, 0), 4_000),
            running(srv(5, 0), 1, GB, ms(9_000)),
            idle(srv(6, 1), 0),
        ];
        let mut v = view(now, gpus, servers);
        // Servers 7 and 3 idled longest; the tie goes to the lower id, 3.
        // Server 6 idled longer still, but GPU 1 is at its floor.
        assert_eq!(scale_down_victim(&v, &scaler), Some(1));
        // Neither a failed nor a migrating server retires, nor one idle
        // for less than the TTL (server 4: 6 s pass it, 4.999 s do not).
        v.servers[1].live = false;
        v.servers[0].migrating = true;
        assert_eq!(scale_down_victim(&v, &scaler), Some(2));
        v.servers[2].idle_since = ms(5_001);
        assert_eq!(scale_down_victim(&v, &scaler), None);
        // A busy server never retires, however long it idled before.
        v.servers[3].idle_since = SimTime::ZERO;
        assert_eq!(scale_down_victim(&v, &scaler), None);
        // At the floor nothing retires.
        v.servers[2].idle_since = SimTime::ZERO;
        v.gpus[0].homed = 1;
        assert_eq!(scale_down_victim(&v, &scaler), None);
    }

    /// GPU 0 runs two functions on servers homed there (`small` and 4 GB,
    /// assigned at t = 0) and GPU 1 runs none; the last migration window
    /// saw GPU 0 busy for `busy_ns`.
    fn imbalance(now: SimTime, small: u64, target_free: u64) -> View {
        let gpus = vec![gpu(0, 2, 2), gpu(target_free, 0, 0)];
        let servers = vec![
            running(srv(0, 0), 1, 4 * GB, SimTime::ZERO),
            running(srv(1, 0), 2, small, SimTime::ZERO),
        ];
        view(now, gpus, servers)
    }

    #[test]
    fn migration_moves_the_smallest_function_that_fits_the_idle_gpu() {
        // The default cooldown: 15 ticks of 200 ms.
        let cfg = GpuServerConfig::paper_default();
        let ctx = cfg.costs.cuda_ctx_mem;
        let mv = |v: &View, busy_ns: u64, queue_ns: u64, last: Option<SimTime>| {
            migration_move(v, &cfg, &[busy_ns, 0], queue_ns, last)
        };
        let full = MIGRATION_WINDOW.as_nanos();
        let now = ms(1000);
        // The smallest footprint moves, counting the extra context the
        // target needs.
        let v = imbalance(now, 2 * GB, 2 * GB + ctx);
        assert_eq!(mv(&v, full, 0, None), Some((1, GpuId(1))));
        let v = imbalance(now, 2 * GB, 2 * GB + ctx - 1);
        assert_eq!(mv(&v, full, 0, None), None);
        // A server whose home is the target needs no extra context there.
        let mut v = imbalance(now, 2 * GB, 2 * GB);
        v.servers[1].home = GpuId(1);
        assert_eq!(mv(&v, full, 0, None), Some((1, GpuId(1))));
        // One migration at a time: a pending or in-flight one blocks all.
        let mut v = imbalance(now, 2 * GB, 8 * GB);
        v.servers[0].migrating = true;
        assert_eq!(mv(&v, full, 0, None), None);
        v.servers[0].migrating = false;
        assert_eq!(mv(&v, full, 0, None), Some((1, GpuId(1))));
        // Busy for 80 % of the window or more.
        assert_eq!(mv(&v, full * 8 / 10, 0, None), Some((1, GpuId(1))));
        assert_eq!(mv(&v, full * 8 / 10 - 1, 0, None), None);
        // An execution share of 500 ‰ or more: 2 s of execution on GPU 0
        // against up to 2 s of queue wait.
        let two_s = Dur::from_secs(2).as_nanos();
        assert_eq!(mv(&v, full, two_s, None), Some((1, GpuId(1))));
        assert_eq!(mv(&v, full, two_s + 1, None), None);
        // Not before one full window.
        let early = view(ms(599), v.gpus.clone(), v.servers.clone());
        assert_eq!(mv(&early, full, 0, None), None);
        // One busy server is no imbalance, and neither is a fleet with no
        // idle GPU.
        let mut one = imbalance(now, 2 * GB, 8 * GB);
        one.servers.remove(0);
        one.gpus[0].busy = 1;
        assert_eq!(mv(&one, full, 0, None), None);
        let mut none_idle = imbalance(now, 2 * GB, 8 * GB);
        none_idle.gpus[1].busy = 1;
        assert_eq!(mv(&none_idle, full, 0, None), None);
    }

    #[test]
    fn a_lease_lapses_exactly_one_timeout_after_the_last_heartbeat() {
        let ns = |n: u64| SimTime::ZERO + Dur(n);
        // Assigned at 0 and killed just after the 600 ms beat: the lease
        // lapses once more than 1 s has passed since that beat.
        let killed = |now: SimTime| {
            let mut s = running(srv(4, 0), 9, GB, SimTime::ZERO);
            s.killed = Some(ns(600_000_001));
            view(now, vec![gpu(0, 1, 1)], vec![srv(3, 0), s])
        };
        assert_eq!(lapsed(&killed(ms(1600))).count(), 0);
        assert_eq!(
            lapsed(&killed(ns(1_600_000_001))).collect::<Vec<_>>(),
            vec![(1, 9)]
        );
        // A server not killed keeps beating, and an idle one holds no lease.
        let mut v = killed(ms(5000));
        v.servers[1].killed = None;
        assert_eq!(lapsed(&v).count(), 0);
        v.servers[0].killed = Some(SimTime::ZERO);
        assert_eq!(lapsed(&v).count(), 0);
    }

    #[test]
    fn cooldown_distinguishes_never_from_a_request_at_t0() {
        // An imbalance the migration decision fixes once cooled, under the
        // default cooldown of 15 ticks of 200 ms.
        let cfg = GpuServerConfig::paper_default();
        let full = MIGRATION_WINDOW.as_nanos();
        let cooled = |now: u64, last: Option<SimTime>| {
            let v = imbalance(ms(now), GB, 8 * GB);
            migration_move(&v, &cfg, &[full, 0], 0, last).is_some()
        };
        // Never requested: always cooled, from the first full window on.
        assert!(cooled(600, None));
        // A genuine request at t=0 must hold the cooldown. A
        // `SimTime::ZERO` sentinel for "never" passed here, letting a
        // second migration fire right after one at the epoch.
        assert!(!cooled(600, Some(SimTime::ZERO)));
        assert!(!cooled(2999, Some(SimTime::ZERO)));
        assert!(cooled(3000, Some(SimTime::ZERO)));
        // And the ordinary case away from the epoch.
        assert!(!cooled(5000, Some(ms(4000))));
        assert!(cooled(7000, Some(ms(4000))));
    }

    #[test]
    fn the_last_heartbeat_is_the_last_beat_before_the_kill() {
        let ns = |n: u64| SimTime::ZERO + Dur(n);
        let ms = |m: u64| SimTime::ZERO + Dur::from_millis(m);
        // Assigned at 0: the assignment is a beat, a beat due at the kill
        // instant is not sent.
        for (killed, last) in [
            (ns(0), ms(0)),
            (ns(1), ms(0)),
            (ns(599_999_999), ms(400)),
            (ns(600_000_000), ms(400)),
            (ns(600_000_001), ms(600)),
            (ms(2000), ms(1800)),
        ] {
            assert_eq!(last_heartbeat(SimTime::ZERO, killed), last, "{killed:?}");
        }
        // The schedule counts from the assignment, and a kill at or before
        // it leaves the assignment as the only beat.
        assert_eq!(last_heartbeat(ms(150), ms(1000)), ms(950));
        assert_eq!(last_heartbeat(ms(150), ms(1150)), ms(950));
        assert_eq!(last_heartbeat(ms(150), ms(150)), ms(150));
        assert_eq!(last_heartbeat(ms(150), ms(100)), ms(150));
    }

    #[test]
    fn the_compute_gate_opens_at_exactly_eighty_percent() {
        // The gate's window: the last three 200 ms monitor ticks.
        let window = Dur(MONITOR_PERIOD.as_nanos() * 3).as_nanos();
        assert_eq!(window, 600_000_000);
        assert!(saturated(480_000_000, window));
        assert!(!saturated(479_999_999, window));
        assert!(saturated(window, window));
        assert!(!saturated(0, window));
        // The float test it replaced, `busy / window < 0.8` in seconds,
        // skipped the same side of the boundary.
        let float_skips = |busy: u64| Dur(busy).as_secs_f64() / Dur(window).as_secs_f64() < 0.8;
        for busy in [0, 479_999_999, 480_000_000, 480_000_001, window] {
            assert_eq!(
                float_skips(busy),
                !saturated(busy, window),
                "{busy} ns busy"
            );
        }
    }
}
