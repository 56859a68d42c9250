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
//! It is also the failure detector: busy API servers heartbeat the monitor
//! (beats it computes from the assignment and kill instants), and a server
//! silent past its lease is declared dead — its memory commitment is
//! released, its invocation marked failed (so the serverless layer can
//! retry elsewhere), and it is excluded from future placement.

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::ModuleRegistry;
use dgsf_gpu::GpuId;
use dgsf_remoting::RpcClient;
use dgsf_sim::{
    Dur, ObsPlane, ProcCtx, RecvError, SimCell, SimReceiver, SimSender, SimTime, Telemetry,
    TraceCtx,
};

use crate::api_server::{
    start_api_server, ApiServerEnv, ApiServerShared, Assignment, ServerCmd, HEARTBEAT_PERIOD,
};
use crate::autoscale::Autoscaler;
use crate::config::GpuServerConfig;
use crate::fairqueue::MqfqQueues;
use crate::policy::{PlacementPolicy, QueuePolicy};

/// A function's request for a virtual GPU. Its requester has given up
/// (queue timeout) exactly when its [`InvocationRecord`] has failed: nothing
/// else fails an invocation that was never assigned.
pub(crate) struct FnRequest {
    pub mem: u64,
    pub registry: Arc<ModuleRegistry>,
    pub reply: SimSender<RpcClient>,
    pub invocation: u64,
    /// When the requester asked (drives the autoscaler's queue-delay
    /// signal).
    pub requested_at: SimTime,
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
    /// Tenant this request belongs to, from its trace context (empty when
    /// the caller threaded none). Keys the MQFQ flow and the per-tenant
    /// queue-delay gauges.
    fn tenant(&self) -> &str {
        self.trace.as_ref().map_or("", |t| &t.tenant)
    }

    /// True once the requester gave up waiting: its record has failed.
    fn abandoned(&self, records: &RecordBook) -> bool {
        records
            .get(self.invocation)
            .is_some_and(InvocationRecord::failed)
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
            tel.counter_add("invocation.failures", 1);
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
    busy: Option<BusyInfo>,
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
}

/// The function a server runs. Its tenant and assignment time are in its
/// [`InvocationRecord`].
struct BusyInfo {
    invocation: u64,
    mem: u64,
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
                let tenant = req.trace.as_ref().map(|t| Arc::clone(&t.tenant));
                fq.push(tenant.as_deref().unwrap_or(""), req);
            }
        }
    }

    /// Drop requests whose requesters gave up (queue timeout).
    fn drop_abandoned(&mut self, records: &RecordBook) {
        let keep = |r: &FnRequest| !r.abandoned(records);
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

    /// How long each queued request has waited by `now`, in a
    /// deterministic (not dispatch) order.
    fn waits(&self, now: SimTime) -> impl Iterator<Item = Dur> + '_ {
        let (flat, fair) = match self {
            MonQueue::Flat(q) => (Some(q.iter()), None),
            MonQueue::Fair(fq) => (None, Some(fq.iter())),
        };
        let all = flat.into_iter().flatten().chain(fair.into_iter().flatten());
        all.map(move |r| now.since(r.requested_at))
    }
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
                health: obs_label.map_or_else(String::new, |label| format!("{label}.gpu{i}")),
            })
            .collect()
    }
}

/// Monitor tick: utilization sampling, lease and migration checks. The
/// paper samples NVML every 200 ms.
const MONITOR_PERIOD: Dur = Dur::from_millis(200);

/// Upper bound on migrations in flight (requested or mid-transfer) at
/// once. The paper migrates one server at a time.
const MAX_CONCURRENT_MIGRATIONS: usize = 1;

/// Body of the monitor process. Each wake (a message or a tick) first
/// drops the queued requests whose requesters gave up, then handles what
/// woke it with the server list borrowed; the borrow ends before the next
/// `recv`, so other processes can read the list while the monitor waits.
pub(crate) fn run_monitor(p: &ProcCtx, a: MonCtx, rx: SimReceiver<MonitorMsg>) {
    // Warm-pool autoscaling state: ids continue past the provisioned
    // fleet; the scaler is pure policy (hysteresis/TTL/cooldown).
    let mut next_server_id = a.servers.lock().len() as u32;
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
        // keep the tick armed. The deadline is absolute: message traffic
        // must not indefinitely re-arm the timeout and starve the tick.
        let servers = a.servers.lock();
        let work_in_flight = servers.iter().any(|s| s.busy.is_some()) || !queue.is_empty();
        let excess_live = scaler.as_ref().is_some_and(|sc| {
            (0..a.env.gpus.len())
                .any(|g| homed(&servers, GpuId(g as u32)) > sc.config().min_per_gpu)
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
        queue.drop_abandoned(&a.records.lock());
        let mut servers = a.servers.lock();
        match msg {
            Ok(MonitorMsg::Request(req)) => {
                // Under a zero queue timeout the requester has already
                // given up.
                if !req.abandoned(&a.records.lock()) {
                    queue.push(req);
                }
                drain_queue(p, &a, &mut servers, &mut queue);
            }
            Ok(MonitorMsg::FunctionEnded {
                server,
                invocation,
                failed,
            }) => {
                // An aborted function fails only its invocation: the server
                // stays in the placement pool.
                if let Some(s) = servers.iter_mut().find(|s| s.shared.id == server) {
                    release(p.now(), &a, s, &mut queue);
                }
                if failed {
                    a.records
                        .lock()
                        .mark_failed(p.now(), invocation, p.telemetry());
                } else {
                    a.records.lock().update(invocation, |rec| {
                        // A lease may already have failed this invocation
                        // over; the late completion loses.
                        if rec.failed_at.is_none() {
                            rec.done_at = Some(p.now());
                        }
                    });
                }
                // Both borrows of the records ended above: assignment
                // takes them again.
                drain_queue(p, &a, &mut servers, &mut queue);
            }
            Err(RecvError::Timeout) => {
                next_tick = p.now() + MONITOR_PERIOD;
                sample_gpus(p, &a, &mut last_gpu_sample);
                check_leases(p, &a, &mut servers, &mut queue);
                if let Some(sc) = scaler.as_mut() {
                    autoscale_tick(p, &a, sc, &mut servers, &mut next_server_id, &queue);
                }
                // Drain unconditionally: a lease expiry or scale-up may
                // have freed capacity, and a head-of-line request dropped
                // at this wake must not strand placeable requests behind
                // it until the next message arrives.
                drain_queue(p, &a, &mut servers, &mut queue);
                let in_flight = servers
                    .iter()
                    .filter(|s| s.shared.migration_pending() || s.shared.migration_in_flight())
                    .count();
                let cooled = migration_cooled(p.now(), last_migration_request, migration_cooldown);
                if a.cfg.migration
                    && in_flight < MAX_CONCURRENT_MIGRATIONS
                    && cooled
                    && migration_tick(p, &a, &servers, &queue)
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

/// A function left server `s` (it finished, aborted, or the server's
/// lease expired): the server is idle from `now` on, and the function's
/// tenant is charged its exact service time on the fair queue, which
/// releases the flow's provisional hold. Returns the invocation the server
/// ran, if any.
fn release(now: SimTime, a: &MonCtx, s: &mut SrvBook, queue: &mut MonQueue) -> Option<u64> {
    s.idle_since = now;
    let b = s.busy.take()?;
    if let MonQueue::Fair(fq) = queue {
        let records = a.records.lock();
        let rec = records
            .get(b.invocation)
            .expect("a running invocation has a record");
        let assigned_at = rec.assigned_at.expect("a running invocation was assigned");
        fq.charge(&rec.tenant, now.since(assigned_at).as_nanos());
    }
    Some(b.invocation)
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

/// Declare busy servers dead when their lease expires: their last
/// heartbeat ([`last_heartbeat`], from the invocation record's assignment
/// time and the kill) is older than [`LEASE_TIMEOUT`]. A server not killed
/// by now keeps beating, so its lease never lapses, and a lapsed one is
/// never busy again. Releases the memory commitment and fails the
/// invocation over (the freed capacity may unblock the queue — not for the
/// failed server, which is excluded from placement, but for servers homed
/// on its GPU; the caller drains the queue after every tick). The dead
/// server's service so far is charged to its tenant's fair-queue flow, so a
/// tenant whose functions keep dying still pays for the GPU time they held.
fn check_leases(p: &ProcCtx, a: &MonCtx, servers: &mut [SrvBook], queue: &mut MonQueue) {
    let now = p.now();
    for s in servers.iter_mut() {
        let (Some(b), Some(killed)) = (&s.busy, s.shared.killed_by(now)) else {
            continue;
        };
        let records = a.records.lock();
        let assigned = records.get(b.invocation).and_then(|r| r.assigned_at);
        drop(records); // `release` below takes the records again
        let assigned = assigned.expect("a running invocation was assigned");
        if now.since(last_heartbeat(assigned, killed)) > LEASE_TIMEOUT {
            s.shared.expire_lease();
            let invocation = release(now, a, s, queue).expect("checked busy");
            let tel = p.telemetry();
            if tel.is_enabled() {
                tel.counter_add("monitor.lease_expirations", 1);
                tel.instant(
                    p.name(),
                    "lease-expired",
                    now,
                    &[
                        ("server", s.shared.id.into()),
                        ("invocation", invocation.into()),
                    ],
                );
            }
            a.records.lock().mark_failed(now, invocation, tel);
        }
    }
}

/// Declared-memory availability of a GPU, as the monitor sees it: its
/// capacity less every server's declared memory there
/// ([`ApiServerShared::declared_mem`]) and the commitments of the functions
/// running on it.
fn avail(a: &MonCtx, servers: &[SrvBook], gpu: GpuId) -> i64 {
    let total = a.env.gpus[gpu.0 as usize].total_mem() as i64;
    let held: i64 = servers
        .iter()
        .map(|s| {
            let declared = s.shared.declared_mem(gpu, &a.env.costs);
            let committed = match &s.busy {
                Some(b) if s.shared.current_gpu() == gpu => b.mem,
                _ => 0,
            };
            (declared + committed) as i64
        })
        .sum();
    total - held
}

/// Drain the queue under the configured discipline: strict FCFS assigns
/// from the head only (head-of-line blocking, the paper's policy);
/// smallest-first scans for the smallest placeable request; MQFQ serves
/// the backlogged tenant with the lowest virtual time, falling back to
/// any backlogged tenant whose head fits (work conservation). Every queued
/// request is live: [`run_monitor`] dropped the abandoned ones at this
/// wake, and none can give up before the monitor waits again.
fn drain_queue(p: &ProcCtx, a: &MonCtx, servers: &mut [SrvBook], queue: &mut MonQueue) {
    loop {
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
                let Some(srv_idx) = pick_server(a, servers, q[pos].mem, q[pos].pin_server) else {
                    return;
                };
                (q.remove(pos).expect("index in bounds"), srv_idx)
            }
            MonQueue::Fair(fq) => {
                let Some(picked) = fq.pop_next(|r| pick_server(a, servers, r.mem, r.pin_server))
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
    });
    a.records.lock().update(req.invocation, |rec| {
        rec.assigned_at = Some(now);
        rec.server = Some(s.shared.id);
        rec.gpu = Some(s.shared.home_gpu);
    });
    let tel = p.telemetry();
    tel.counter_add("monitor.assignments", 1);
    if tel.is_enabled() && !req.tenant().is_empty() {
        tel.counter_add(&format!("monitor.tenant.{}.dispatches", req.tenant()), 1);
        let delay_us = now.since(req.requested_at).as_nanos() / 1_000;
        tel.gauge_set(
            &format!("monitor.tenant.{}.queue_delay_us", req.tenant()),
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
fn pick_server(a: &MonCtx, servers: &[SrvBook], mem: u64, pin: Option<u32>) -> Option<usize> {
    let mut best: Option<(usize, i64)> = None;
    for (i, s) in servers.iter().enumerate() {
        if s.busy.is_some() || s.shared.lease_expired() {
            continue;
        }
        if pin.is_some_and(|id| s.shared.id != id) {
            continue;
        }
        let gpu = s.shared.home_gpu;
        let free = avail(a, servers, gpu);
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
fn autoscale_tick(
    p: &ProcCtx,
    a: &MonCtx,
    scaler: &mut Autoscaler,
    servers: &mut Vec<SrvBook>,
    next_server_id: &mut u32,
    queue: &MonQueue,
) {
    let now = p.now();
    let oldest_wait = queue.waits(now).max();
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
            if homed(servers, gpu) >= max {
                continue;
            }
            let free = avail(a, servers, gpu);
            if free < idle_fp as i64 {
                continue;
            }
            if best.map(|(_, bf)| free > bf).unwrap_or(true) {
                best = Some((gpu, free));
            }
        }
        if let Some((gpu, _)) = best {
            if spawn_server(p, a, servers, next_server_id, gpu) {
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
        if s.shared.lease_expired() || s.busy.is_some() || s.shared.migration_pending() {
            continue;
        }
        if homed(servers, s.shared.home_gpu) <= min || !scaler.scale_down_due(now, s.idle_since) {
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
        retire_server(p, servers, i);
        scaler.record_action(now);
    }
}

/// Live (non-failed) servers homed on `gpu`.
fn homed(servers: &[SrvBook], gpu: GpuId) -> u32 {
    servers
        .iter()
        .filter(|s| !s.shared.lease_expired() && s.shared.home_gpu == gpu)
        .count() as u32
}

/// Telemetry of one scaling action on server `id`, homed on `gpu`: the
/// action's `counter`, the live pool-size gauge and an `event` instant.
fn scaled(p: &ProcCtx, servers: &[SrvBook], counter: &str, event: &str, id: u32, gpu: GpuId) {
    let tel = p.telemetry();
    if !tel.is_enabled() {
        return;
    }
    let live = servers.iter().filter(|s| !s.shared.lease_expired()).count();
    tel.counter_add(counter, 1);
    tel.gauge_set("monitor.pool_size", p.now(), live as i64);
    tel.instant(
        p.name(),
        event,
        p.now(),
        &[("server", id.into()), ("gpu", gpu.0.into())],
    );
}

/// Spawn one autoscaled API server homed on `gpu` (the same 755 MB idle
/// footprint a provisioned server pays), add it to the server list, and
/// start its process. Returns false if the GPU cannot actually fit the
/// footprint.
fn spawn_server(
    p: &ProcCtx,
    a: &MonCtx,
    servers: &mut Vec<SrvBook>,
    next_server_id: &mut u32,
    gpu: GpuId,
) -> bool {
    let id = *next_server_id;
    let Some(started) = start_api_server(p, &a.env, id, gpu) else {
        return false;
    };
    *next_server_id += 1;
    servers.push(SrvBook::new(started, p.now()));
    scaled(p, servers, "autoscale.scale_ups", "scale-up", id, gpu);
    true
}

/// Retire the idle server at `idx`: remove it from the server list (its
/// declared memory goes with it) and send `Retire` so the process releases
/// its real reservations and exits.
fn retire_server(p: &ProcCtx, servers: &mut Vec<SrvBook>, idx: usize) {
    let s = servers.remove(idx);
    let id = s.shared.id;
    s.assign_tx.send(p, ServerCmd::Retire);
    let gpu = s.shared.home_gpu;
    scaled(p, servers, "autoscale.scale_downs", "scale-down", id, gpu);
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
    let records = a.records.lock();
    let exec_ns: u64 = servers
        .iter()
        .filter(|s| s.shared.current_gpu() == gpu)
        .filter_map(|s| records.get(s.busy.as_ref()?.invocation)?.assigned_at)
        .map(|assigned_at| now.since(assigned_at).as_nanos())
        .sum();
    let queue_ns: u64 = queue.waits(now).map(Dur::as_nanos).sum();
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

/// Migration's compute gate: a GPU busy for `busy_ns` of the last
/// `window_ns` (non-zero) is loaded enough to migrate off at 80 %
/// utilization or more. Integer per mille, so no float reaches the
/// decision.
fn saturated(busy_ns: u64, window_ns: u64) -> bool {
    busy_ns * 1000 / window_ns >= 800
}

/// Detect load imbalance and request a migration: a GPU running ≥2 busy API
/// servers at high utilization while another GPU is idle (the §VIII-E
/// scenario), provided the tail there is execution-attributed.
fn migration_tick(p: &ProcCtx, a: &MonCtx, servers: &[SrvBook], queue: &MonQueue) -> bool {
    let now = p.now();
    // NVML-style utilization window: the last three monitor ticks.
    let window = Dur(MONITOR_PERIOD.as_nanos() * 3);
    if now.as_nanos() < window.as_nanos() {
        return false; // too early to judge: less than one full window observed
    }
    let since = SimTime(now.as_nanos() - window.as_nanos());
    let num_gpus = a.env.gpus.len();
    let busy_on = |g: usize| {
        servers
            .iter()
            .filter(|s| s.busy.is_some() && s.shared.current_gpu().0 as usize == g)
            .count()
    };
    let Some(idle_gpu) = (0..num_gpus).find(|&g| busy_on(g) == 0) else {
        return false;
    };
    for g in 0..num_gpus {
        if busy_on(g) < 2 {
            continue;
        }
        if !saturated(
            a.env.gpus[g].busy_between(since, now).as_nanos(),
            window.as_nanos(),
        ) {
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
            if avail(a, servers, target) < (b.mem + extra_ctx) as i64 {
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
