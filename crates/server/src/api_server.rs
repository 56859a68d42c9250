//! The API server process: "a process that handles exclusively one
//! serverless function at a time and executes them on an actual physical
//! GPU" (§V-A).
//!
//! Each API server is provisioned with a pre-initialized CUDA context on its
//! *home* GPU plus pre-created cuDNN/cuBLAS handle pools (the 755 MB idle
//! footprint). While serving a function it may be live-migrated to another
//! GPU; migration happens at API-call boundaries, and when the function
//! finishes the server reverts to its home GPU.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::{CostTable, CudaContext, GpuSession, MigrationReport, ModuleRegistry};
use dgsf_gpu::{Gpu, GpuId, ReservationId};
use dgsf_remoting::{Delivery, Dispatcher, NetLink, RpcInbox};
use dgsf_sim::{
    ArgValue, Dur, ProcCtx, RecvError, SimCell, SimHandle, SimReceiver, SimSender, SimTime,
    TraceCtx,
};

use crate::monitor::MonitorMsg;

/// A function assignment handed to an API server by the monitor.
pub(crate) struct Assignment {
    pub inbox: RpcInbox,
    pub registry: Arc<ModuleRegistry>,
    pub mem_limit: u64,
    pub invocation: u64,
    /// Causal trace context of the guest invocation, carried through the
    /// monitor queue so server-side spans share the guest's trace id.
    pub trace: Option<TraceCtx>,
}

/// What the monitor can tell an API server over its command channel.
pub(crate) enum ServerCmd {
    /// Serve one function.
    Assign(Assignment),
    /// Tear down (autoscaler scale-down): release every CUDA context and
    /// the pooled-handle reservation, then exit. Only ever sent to an idle
    /// server.
    Retire,
}

/// One completed migration, for the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationRecord {
    /// API server that moved.
    pub server: u32,
    /// Source GPU.
    pub from: GpuId,
    /// Destination GPU.
    pub to: GpuId,
    /// Detailed timing.
    pub report: MigrationReport,
    /// When the migration began (state transfer start).
    pub begun_at: SimTime,
    /// When the migration completed.
    pub at: SimTime,
}

struct ApiSrvState {
    current_gpu: GpuId,
    contexts: HashMap<GpuId, Rc<CudaContext>>,
    /// Set by the monitor (or a forced-migration experiment); consumed at
    /// the next API-call boundary.
    migration_request: Option<GpuId>,
}

/// State shared between an API server process, the monitor and the
/// experiment harness.
pub struct ApiServerShared {
    /// Server id (unique within the GPU server).
    pub id: u32,
    /// The GPU this server is provisioned on.
    pub home_gpu: GpuId,
    state: SimCell<ApiSrvState>,
    /// Set by the fault injector: a killed server stops responding,
    /// heartbeating and serving — permanently.
    killed: Cell<bool>,
    /// True while a migration is mid-flight (state transfer + re-bind).
    migrating: Cell<bool>,
    /// Migrations this server has *begun* (whether or not they committed);
    /// indexes the fault plan's kill-on-migration schedule.
    migrations_begun: Cell<u64>,
    /// The pre-created cuDNN/cuBLAS handle-pool reservation (452 MB) on the
    /// home GPU, released when the autoscaler retires this server.
    pool_reservation: SimCell<Option<ReservationId>>,
}

impl ApiServerShared {
    pub(crate) fn new(
        h: &SimHandle,
        id: u32,
        home_gpu: GpuId,
        home_ctx: Rc<CudaContext>,
        pool_reservation: Option<ReservationId>,
    ) -> ApiServerShared {
        let mut contexts = HashMap::new();
        contexts.insert(home_gpu, home_ctx);
        ApiServerShared {
            id,
            home_gpu,
            state: SimCell::new(
                h,
                ApiSrvState {
                    current_gpu: home_gpu,
                    contexts,
                    migration_request: None,
                },
            ),
            killed: Cell::new(false),
            migrating: Cell::new(false),
            migrations_begun: Cell::new(0),
            pool_reservation: SimCell::new(h, pool_reservation),
        }
    }

    /// Kill the server: it silently discards everything from now on. The
    /// crash is detected by the monitor's lease check, not announced.
    pub fn kill(&self) {
        self.killed.set(true);
    }

    /// True once [`kill`](Self::kill) has been called.
    pub fn is_killed(&self) -> bool {
        self.killed.get()
    }

    /// GPU the server is currently executing on.
    pub fn current_gpu(&self) -> GpuId {
        self.state.lock().current_gpu
    }

    /// Ask the server to migrate to `target` at its next API-call boundary.
    pub fn request_migration(&self, target: GpuId) {
        self.state.lock().migration_request = Some(target);
    }

    /// True if a migration request is pending (not yet executed).
    pub fn migration_pending(&self) -> bool {
        self.state.lock().migration_request.is_some()
    }

    /// True while the server is mid-migration (state transfer started, not
    /// yet committed or aborted).
    pub fn migration_in_flight(&self) -> bool {
        self.migrating.get()
    }

    /// GPUs this server holds a CUDA context on (home + lazily created
    /// migration contexts). Used by the invariant checker to balance the
    /// fleet's memory books after migrations.
    pub fn context_gpus(&self) -> Vec<GpuId> {
        self.state.lock().contexts.keys().copied().collect()
    }

    /// All CUDA contexts this server currently holds, ordered by GPU id
    /// (deterministic — the state map is a `HashMap`).
    pub(crate) fn contexts(&self) -> Vec<Rc<CudaContext>> {
        let state = self.state.lock();
        let mut by_gpu: Vec<(GpuId, Rc<CudaContext>)> = state
            .contexts
            .iter()
            .map(|(g, c)| (*g, Rc::clone(c)))
            .collect();
        by_gpu.sort_by_key(|(g, _)| g.0);
        by_gpu.into_iter().map(|(_, c)| c).collect()
    }

    fn take_migration_request(&self, p: &ProcCtx) -> Option<GpuId> {
        self.state.borrow_in(p).migration_request.take()
    }

    fn context(&self, gpu: GpuId) -> Option<Rc<CudaContext>> {
        self.state.lock().contexts.get(&gpu).cloned()
    }

    fn set_current(&self, gpu: GpuId) {
        self.state.lock().current_gpu = gpu;
    }

    fn insert_context(&self, gpu: GpuId, ctx: Rc<CudaContext>) {
        self.state.lock().contexts.insert(gpu, ctx);
    }

    /// Release every GPU resource this server holds: all lazily created
    /// CUDA contexts (303 MB each) plus the pooled-handle reservation
    /// (452 MB). Called by the server process when it is retired.
    fn release_resources(&self, gpus: &[Rc<Gpu>]) {
        let contexts: Vec<Rc<CudaContext>> = {
            let mut st = self.state.lock();
            st.migration_request = None;
            st.contexts.drain().map(|(_, c)| c).collect()
        };
        for ctx in contexts {
            ctx.release();
        }
        if let Some(r) = self.pool_reservation.lock().take() {
            gpus[self.home_gpu.0 as usize].release(r);
        }
    }
}

/// How often a busy API server heartbeats the monitor. The monitor's lease
/// (`monitor::LEASE_TIMEOUT`) is defined as a multiple of it.
pub(crate) const HEARTBEAT_PERIOD: Dur = Dur::from_millis(200);

/// Control-plane bytes moved over the NIC per migration: the serialized
/// context descriptor plus handle-pool table. The bulk GPU allocations move
/// device-to-device inside the box (charged by the session's migration
/// report); only this metadata crosses the network.
const MIGRATION_STATE_BYTES: u64 = 8 * 1024 * 1024;

/// What every API server of one GPU server shares with its siblings and
/// the monitor.
#[derive(Clone)]
pub(crate) struct ApiServerEnv {
    pub h: SimHandle,
    pub gpus: Vec<Rc<Gpu>>,
    pub costs: Arc<CostTable>,
    pub link: Arc<NetLink>,
    pub monitor_tx: SimSender<MonitorMsg>,
    pub migration_log: Rc<SimCell<Vec<MigrationRecord>>>,
    /// How long an assigned function may stay silent before it is aborted.
    pub idle_timeout: Option<Dur>,
}

/// Everything an API server process needs.
struct ApiServerArgs {
    env: ApiServerEnv,
    shared: Rc<ApiServerShared>,
    assign_rx: SimReceiver<ServerCmd>,
}

/// Start API server `id` homed on `gpu`: pre-initialize its CUDA context
/// and cuDNN/cuBLAS handle pools (the 755 MB idle footprint, charged but
/// off any function's critical path, so no init latency is slept), then
/// spawn its process. Returns the server's shared state and command
/// channel, or `None` — releasing the context again — when the GPU cannot
/// fit the footprint.
pub(crate) fn start_api_server(
    p: &ProcCtx,
    env: &ApiServerEnv,
    id: u32,
    gpu: GpuId,
) -> Option<(Rc<ApiServerShared>, SimSender<ServerCmd>)> {
    let home_gpu = &env.gpus[gpu.0 as usize];
    // Pre-initialized context (303 MB).
    let ctx = CudaContext::create(
        p,
        &env.h,
        Rc::clone(home_gpu),
        Arc::clone(&env.costs),
        false,
    )
    .ok()?;
    // Pre-created cuDNN + cuBLAS pool footprint (452 MB), held for the
    // server's lifetime (released if the autoscaler retires it).
    let Ok(pool_res) = home_gpu.reserve(env.costs.cudnn_mem + env.costs.cublas_mem) else {
        ctx.release();
        return None;
    };
    let shared = Rc::new(ApiServerShared::new(&env.h, id, gpu, ctx, Some(pool_res)));
    let (assign_tx, assign_rx) = env.h.channel::<ServerCmd>();
    let args = ApiServerArgs {
        env: env.clone(),
        shared: Rc::clone(&shared),
        assign_rx,
    };
    env.h.spawn(&format!("api-server-{id}"), move |pp| {
        run_api_server(pp, args)
    });
    Some((shared, assign_tx))
}

/// Body of the API server process. Returns when the simulation shuts
/// down, the monitor retires the server, or the fault injector kills it.
fn run_api_server(p: &ProcCtx, a: ApiServerArgs) {
    while let Some(cmd) = a.assign_rx.recv(p) {
        let asg = match cmd {
            ServerCmd::Assign(asg) => asg,
            ServerCmd::Retire => {
                // A killed process frees nothing — the crash leaks its GPU
                // footprint exactly as a real dead worker would.
                if !a.shared.is_killed() {
                    a.shared.release_resources(&a.env.gpus);
                }
                return;
            }
        };
        if a.shared.is_killed() {
            // Crashed while idle: the assignment is silently swallowed; the
            // monitor's lease check will notice and fail the invocation over.
            return;
        }
        let home_ctx = a
            .shared
            .context(a.shared.home_gpu)
            .expect("home context provisioned");
        let serve_start = p.now();
        let session = GpuSession::new(&a.env.h, home_ctx, Some(asg.mem_limit));
        let mut d = Dispatcher::new(session, asg.registry);
        d.set_trace(asg.trace.clone());
        // Heartbeat the monitor while serving, so the lease check can tell
        // "slow function" from "dead server".
        let stop_hb = Rc::new(Cell::new(false));
        {
            let stop = Rc::clone(&stop_hb);
            let shared = Rc::clone(&a.shared);
            let tx = a.env.monitor_tx.clone();
            let name = format!("hb-{}-{}", a.shared.id, asg.invocation);
            a.env.h.spawn(&name, move |pp| {
                while !stop.get() && !shared.is_killed() {
                    tx.send(pp, MonitorMsg::Heartbeat { server: shared.id });
                    pp.sleep(HEARTBEAT_PERIOD);
                }
            });
        }
        let mut aborted = false;
        loop {
            let env = match a.env.idle_timeout {
                Some(t) => match asg.inbox.next_timeout(p, t) {
                    Ok(env) => env,
                    Err(RecvError::Timeout) => {
                        // Guest stopped talking (gave up / lost its reply):
                        // abort the function and free the server.
                        aborted = true;
                        break;
                    }
                    Err(RecvError::Shutdown) => {
                        stop_hb.set(true);
                        return;
                    }
                },
                None => match asg.inbox.next(p) {
                    Some(env) => env,
                    None => {
                        stop_hb.set(true);
                        return; // simulation shutting down
                    }
                },
            };
            if a.shared.is_killed() {
                return; // crashed: swallow the request, never respond
            }
            // Migration happens at API-call boundaries (§V-A).
            maybe_migrate(p, &a, &mut d);
            if a.shared.is_killed() {
                return; // killed mid-migration: the request dies with us
            }
            let resp = match RpcInbox::decode(&env) {
                Ok(req) => d.handle(p, req, env.repeat),
                Err(e) => dgsf_remoting::wire::Response::Err {
                    class: dgsf_remoting::wire::err_class::TRANSPORT,
                    msg: e.to_string(),
                },
            };
            if a.shared.is_killed() {
                return; // crashed mid-call: the reply is never sent
            }
            asg.inbox.respond(p, &a.env.link, &env, &resp);
            if d.finished() {
                break;
            }
        }
        stop_hb.set(true);
        let tel = p.telemetry();
        if tel.is_enabled() {
            let serve_name = format!("serve:inv{}", asg.invocation);
            match &asg.trace {
                Some(t) => tel.span_args(
                    p.name(),
                    &serve_name,
                    "serve",
                    serve_start,
                    p.now(),
                    &t.span_args(),
                ),
                None => tel.span(p.name(), &serve_name, "serve", serve_start, p.now()),
            }
            if aborted {
                tel.counter_add("server.aborts", 1);
            }
        }
        // "When the current serverless function finishes, the API server
        // changes its current GPU to the originally assigned one" — with
        // nothing left to copy, since the session was released.
        a.shared.set_current(a.shared.home_gpu);
        let msg = if aborted {
            MonitorMsg::FunctionFailed {
                server: a.shared.id,
                invocation: asg.invocation,
            }
        } else {
            MonitorMsg::FunctionDone {
                server: a.shared.id,
                invocation: asg.invocation,
            }
        };
        a.env.monitor_tx.send(p, msg);
    }
}

fn maybe_migrate(p: &ProcCtx, a: &ApiServerArgs, d: &mut Dispatcher) {
    let Some(target) = a.shared.take_migration_request(p) else {
        return;
    };
    let skip = |reason: &str| {
        let tel = p.telemetry();
        if tel.is_enabled() {
            tel.instant(
                p.name(),
                "migration-skipped",
                p.now(),
                &[
                    ("server", a.shared.id.into()),
                    ("to", target.0.into()),
                    ("reason", reason.into()),
                ],
            );
        }
    };
    if target == a.shared.current_gpu() {
        skip("same-target");
        return;
    }
    // Lazily create this server's context on the target GPU. The creation
    // latency is assumed amortized by the pool (the context persists for
    // future migrations); only the footprint is charged.
    let ctx = match a.shared.context(target) {
        Some(c) => c,
        None => {
            let gpu = a.env.gpus[target.0 as usize].clone();
            match CudaContext::create(p, &a.env.h, gpu, Arc::clone(&a.env.costs), false) {
                Ok(c) => {
                    a.shared.insert_context(target, Rc::clone(&c));
                    c
                }
                Err(_) => {
                    skip("no-context"); // target can't even fit a context
                    return;
                }
            }
        }
    };
    let from = a.shared.current_gpu();

    // ---- begin: the migration state machine is now mid-flight ----
    let nth = a
        .shared
        .migrations_begun
        .replace(a.shared.migrations_begun.get() + 1);
    a.shared.migrating.set(true);
    let begun_at = p.now();
    let tel = p.telemetry();
    let id_args = |extra: &[(&'static str, ArgValue<'static>)]| {
        let mut args: Vec<(&'static str, ArgValue)> = vec![
            ("server", a.shared.id.into()),
            ("from", from.0.into()),
            ("to", target.0.into()),
        ];
        args.extend_from_slice(extra);
        args
    };
    if tel.is_enabled() {
        tel.counter_add("migration.begins", 1);
        tel.instant(p.name(), "migration-begin", begun_at, &id_args(&[]));
    }

    // Ship the control-plane state (context descriptor + handle-pool table)
    // over the NIC; the bulk allocations move device-to-device inside
    // `d.migrate`. The transfer is where chaos bites: it can be dropped or
    // delayed, and the fault plan may kill this very server mid-flight.
    let delivery = a.env.link.transfer_state(p, MIGRATION_STATE_BYTES);
    if a.env
        .link
        .faults()
        .is_some_and(|f| f.migration_kill_due(a.shared.id, nth))
    {
        a.shared.kill();
    }
    if a.shared.is_killed() {
        // Died mid-migration: no commit, no abort event — the crash is
        // silent and the monitor's lease check must discover it.
        a.shared.migrating.set(false);
        return;
    }
    if delivery == Delivery::Dropped {
        abort_migration(
            p,
            a,
            &id_args(&[("reason", "state-transfer-dropped".into())]),
        );
        return;
    }

    match d.migrate(p, &ctx) {
        Ok(report) => {
            a.shared.set_current(target);
            a.shared.migrating.set(false);
            let at = p.now();
            if tel.is_enabled() {
                tel.counter_add("migrations", 1);
                let mut args = id_args(&[
                    ("bytes_moved", report.bytes_moved.into()),
                    ("allocs_moved", report.allocs_moved.into()),
                ]);
                if let Some(t) = d.trace() {
                    args.push(("inv", t.id.into()));
                }
                tel.instant(p.name(), "migration", at, &args);
            }
            a.env.migration_log.lock().push(MigrationRecord {
                server: a.shared.id,
                from,
                to: target,
                report,
                begun_at,
                at,
            });
            a.env.monitor_tx.send(
                p,
                MonitorMsg::Migrated {
                    server: a.shared.id,
                    from,
                    to: target,
                },
            );
        }
        Err(_) => {
            // Target ran out of memory between decision and execution; the
            // session stays where it was.
            abort_migration(p, a, &id_args(&[("reason", "target-capacity".into())]));
        }
    }
}

fn abort_migration(p: &ProcCtx, a: &ApiServerArgs, args: &[(&'static str, ArgValue)]) {
    a.shared.migrating.set(false);
    let tel = p.telemetry();
    if tel.is_enabled() {
        tel.counter_add("migration.aborts", 1);
        tel.instant(p.name(), "migration-aborted", p.now(), args);
    }
}
