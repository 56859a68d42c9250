//! Server-side request execution: decode a [`Request`], run it against the
//! function's [`GpuSession`], produce a [`Response`].
//!
//! This is the inner loop of a DGSF API server. The surrounding process
//! management (pools, the monitor protocol, migration policy) lives in
//! `dgsf-server`; this module is only the faithful API semantics, including
//! the restricted/simulated calls: `cudaGetDeviceCount` always answers 1 and
//! device properties always describe the currently active GPU (§V-B).

use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::{
    CublasHandle, CudaContext, CudaError, CudaResult, CudnnHandle, DevPtr, EventHandle, GpuSession,
    KernelId, LaunchConfig, MigrationReport, ModuleRegistry, StreamHandle,
};
use dgsf_sim::{lit, Dur, ProcCtx, TraceCtx};

use crate::wire::{descriptor_kind_from_u8, error_to_wire, Request, Response, WireArgs};

/// Counters an API server keeps about the function it is serving.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests executed (batch entries counted individually).
    pub requests: u64,
    /// Create-calls served from a pre-created pool.
    pub pool_hits: u64,
    /// Create-calls that had to pay full creation latency.
    pub cold_creates: u64,
}

/// Executes requests for one function on one [`GpuSession`].
pub struct Dispatcher {
    session: GpuSession,
    registry: Arc<ModuleRegistry>,
    /// Client-visible function pointer → kernel, sorted by pointer and
    /// resolved once at module registration. The translation that keeps
    /// launches correct after migration.
    fptr_kernels: Vec<(u64, KernelId)>,
    /// Configuration pushed by an unoptimized `__cudaPushCallConfiguration`.
    pending_cfg: Option<LaunchConfig>,
    per_call_cpu: Dur,
    finished: bool,
    /// Causal context of the invocation being served (threaded down from
    /// the monitor's queue entry); stamps the recorded `server` spans.
    trace: Option<TraceCtx>,
    /// Execution counters.
    pub stats: ServerStats,
}

impl Dispatcher {
    /// Serve a function on `session`, with the function's deployed kernels
    /// in `registry` (the fatbin shipped at deploy time).
    pub fn new(session: GpuSession, registry: Arc<ModuleRegistry>) -> Dispatcher {
        let per_call_cpu = session.active_context().costs().native_call_overhead;
        Dispatcher {
            session,
            registry,
            fptr_kernels: Vec::new(),
            pending_cfg: None,
            per_call_cpu,
            finished: true, // idle until an Init arrives
            trace: None,
            stats: ServerStats::default(),
        }
    }

    /// Attach the causal context of the invocation this dispatcher serves.
    pub fn set_trace(&mut self, trace: Option<TraceCtx>) {
        self.trace = trace;
    }

    /// The attached trace context, if any.
    pub fn trace(&self) -> Option<&TraceCtx> {
        self.trace.as_ref()
    }

    /// The underlying session (monitor reads memory usage from here).
    pub fn session(&self) -> &GpuSession {
        &self.session
    }

    /// True once `EndFunction` has been processed (or before any `Init`).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Live-migrate the served session to another context.
    pub fn migrate(
        &mut self,
        p: &ProcCtx,
        target: &Rc<CudaContext>,
    ) -> Result<MigrationReport, CudaError> {
        self.session.migrate(p, target)
    }

    /// Execute one (possibly aggregate) request. `repeat` is the number of
    /// identical client round trips it stands for; server CPU is charged per
    /// represented call. A failed request is answered with its error, the
    /// one place a session error becomes a wire reply.
    pub fn handle(&mut self, p: &ProcCtx, req: Request, repeat: u32) -> Response {
        self.stats.requests += repeat.max(1) as u64;
        p.sleep(Dur(self
            .per_call_cpu
            .as_nanos()
            .saturating_mul(repeat.max(1) as u64)));
        let tel = p.telemetry();
        let traced = tel.is_enabled().then(|| (req.class_keys(), p.now()));
        let result = self.execute(p, req);
        if let Some((keys, t0)) = traced {
            let (track, server) = (p.track(), lit!("server"));
            tel.span_args(track, &keys.class, server, t0, p.now(), self.trace.as_ref());
            tel.counter_add(&keys.server_requests, repeat.max(1) as u64);
            if result.is_err() {
                tel.counter_add(lit!("server.errors"), 1);
            }
        }
        result.unwrap_or_else(|e| error_to_wire(&e))
    }

    /// Count one create-call: served from a pre-created pool (`pooled`) or
    /// paying full creation latency. The telemetry counter is bumped here,
    /// where the create happens, so batch entries count once each.
    fn count_create(&mut self, p: &ProcCtx, pooled: bool) {
        let (n, name) = if pooled {
            (&mut self.stats.pool_hits, lit!("server.pool_hits"))
        } else {
            (&mut self.stats.cold_creates, lit!("server.cold_creates"))
        };
        *n += 1;
        p.telemetry().counter_add(name, 1);
    }

    fn execute(&mut self, p: &ProcCtx, req: Request) -> CudaResult<Response> {
        use Request::*;
        Ok(match req {
            Init { pooled_context } => {
                self.finished = false;
                if !pooled_context {
                    // On-demand context creation (the unoptimized baseline).
                    let init = self.session.active_context().costs().cuda_init;
                    p.sleep(init);
                }
                self.count_create(p, pooled_context);
                Response::Ok
            }
            RegisterModule { kernels } => {
                self.session.register_module(Arc::clone(&self.registry));
                let mut fptrs = Vec::with_capacity(kernels.len());
                for name in kernels {
                    let kernel = self.registry.id(&name).ok_or_else(|| {
                        CudaError::InvalidValue(format!("unknown kernel {name:?}"))
                    })?;
                    let fptr = self.session.active_context().fptr_for(&name);
                    if let Err(i) = self.fptr_kernels.binary_search_by_key(&fptr, |e| e.0) {
                        self.fptr_kernels.insert(i, (fptr, kernel));
                    }
                    fptrs.push((name, fptr));
                }
                Response::Fptrs(fptrs)
            }
            GetDeviceCount => Response::Count(1), // the GPU server's real
            // inventory is never revealed to a function
            GetDeviceProps { dev } => {
                check_device(dev)?;
                Response::Props(self.session.active_context().gpu().props().clone())
            }
            SetDevice { dev } => check_device(dev).map(done)?,
            Malloc { bytes } => Response::Ptr(self.session.malloc(p, bytes)?.0),
            Free { ptr } => self.session.free(p, DevPtr(ptr)).map(done)?,
            Memset { ptr, value, bytes } => self
                .session
                .memset(p, DevPtr(ptr), value, bytes)
                .map(done)?,
            MemcpyH2D { dst, data } => self.session.memcpy_h2d(p, DevPtr(dst), &data).map(done)?,
            MemcpyD2H {
                src,
                bytes,
                want_data,
            } => Response::Data(self.session.memcpy_d2h(p, DevPtr(src), bytes, want_data)?),
            PushCallConfiguration { cfg } => {
                self.pending_cfg = Some(cfg);
                Response::Ok
            }
            Launch { fptr, args } => {
                let cfg = self.pending_cfg.take().ok_or_else(|| {
                    CudaError::InvalidValue("launch without pushed call configuration".into())
                })?;
                self.do_launch_on(p, fptr, 0, cfg, args)?
            }
            LaunchConfigured {
                fptr,
                stream,
                cfg,
                args,
            } => self.do_launch_on(p, fptr, stream, cfg, args)?,
            Sync => {
                self.session.synchronize(p);
                Response::Ok
            }
            StreamCreate => Response::Handle(self.session.stream_create(p).0),
            StreamDestroy { h } => self.session.stream_destroy(p, StreamHandle(h)).map(done)?,
            StreamSync { h } => self
                .session
                .stream_synchronize(p, StreamHandle(h))
                .map(done)?,
            EventCreate => Response::Handle(self.session.event_create(p).0),
            EventRecord { h } => self.session.event_record(p, EventHandle(h)).map(done)?,
            EventSync { h } => self
                .session
                .event_synchronize(p, EventHandle(h))
                .map(done)?,
            PointerGetAttributes { ptr } => {
                let a = self.session.pointer_attributes(DevPtr(ptr));
                Response::Attrs {
                    is_device: a.is_device,
                    alloc_size: a.alloc_size,
                    device: a.device,
                }
            }
            MallocHost { bytes: _ } => Response::Ok,
            CudnnCreate { pooled } => {
                self.count_create(p, pooled);
                Response::Handle(self.session.cudnn_create(p, pooled)?.0)
            }
            CudnnDestroy { h } => self.session.cudnn_destroy(p, CudnnHandle(h)).map(done)?,
            CudnnCreateDescriptors { kind, n } => {
                descriptor_kind_from_u8(kind).map_err(|e| CudaError::InvalidValue(e.0))?;
                // Host-side opaque structs on the server; hand out ids.
                let base = 0x4000_0000_0000_0000u64 + self.stats.requests;
                Response::Handles((0..n).map(|i| base + i).collect())
            }
            CudnnSetDescriptors { n: _ } => Response::Ok,
            CudnnDestroyDescriptors { n: _ } => Response::Ok,
            CudnnOp {
                h: _,
                work,
                bytes: _,
                api_calls: _,
            } => {
                self.session.lib_op(p, work);
                Response::Ok
            }
            CublasCreate { pooled } => {
                self.count_create(p, pooled);
                Response::Handle(self.session.cublas_create(p, pooled)?.0)
            }
            CublasDestroy { h } => self.session.cublas_destroy(p, CublasHandle(h)).map(done)?,
            CublasOp {
                h: _,
                work,
                bytes: _,
                api_calls: _,
            } => {
                self.session.lib_op(p, work);
                Response::Ok
            }
            Batch(reqs) => {
                for r in reqs {
                    self.stats.requests += 1;
                    // The first failure aborts the batch.
                    self.execute(p, r)?;
                }
                Response::Ok
            }
            EndFunction => {
                self.session.release(p);
                self.fptr_kernels.clear();
                self.pending_cfg = None;
                self.finished = true;
                Response::Ok
            }
            PublishBuffer { key, ptr } => {
                self.session.publish_buffer(p, key, DevPtr(ptr)).map(done)?
            }
            AdoptBuffer { key } => Response::Ptr(self.session.adopt_buffer(p, key)?.0),
        })
    }

    fn do_launch_on(
        &mut self,
        p: &ProcCtx,
        fptr: u64,
        stream: u64,
        cfg: LaunchConfig,
        args: WireArgs,
    ) -> CudaResult<Response> {
        let i = self
            .fptr_kernels
            .binary_search_by_key(&fptr, |e| e.0)
            .map_err(|_| CudaError::InvalidValue(format!("unknown function pointer {fptr:#x}")))?;
        let kernel = self.fptr_kernels[i].1;
        let stream = if stream == 0 {
            None
        } else {
            Some(StreamHandle(stream))
        };
        self.session
            .launch_on(p, stream, kernel, cfg, args.into())?;
        Ok(Response::Ok)
    }
}

/// The reply to a request that succeeds with nothing to return.
fn done((): ()) -> Response {
    Response::Ok
}

/// The API server is pinned to one GPU, device 0.
fn check_device(dev: u32) -> CudaResult<()> {
    if dev == 0 {
        Ok(())
    } else {
        Err(CudaError::InvalidDevice { requested: dev })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::err_class;
    use dgsf_cuda::HostBuf;
    use dgsf_cuda::{CostTable, KernelCost, KernelDef};
    use dgsf_gpu::{Gpu, GpuId, MB};
    use dgsf_sim::Sim;

    fn mk_dispatcher(p: &ProcCtx, h: &dgsf_sim::SimHandle) -> Dispatcher {
        let gpu = Gpu::v100(h, GpuId(0));
        let costs = Arc::new(CostTable::default());
        let ctx = CudaContext::create(p, h, gpu, costs, false).unwrap();
        let session = GpuSession::new(h, ctx, None);
        let registry = Arc::new(ModuleRegistry::new().with(KernelDef::functional(
            "fill7",
            KernelCost::Fixed(0.001),
            |view, _c, args| view.fill(args.ptrs[0], args.bytes, 7),
        )));
        Dispatcher::new(session, registry)
    }

    #[test]
    fn device_count_is_always_one() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.spawn("srv", move |p| {
            let mut d = mk_dispatcher(p, &h);
            assert_eq!(d.handle(p, Request::GetDeviceCount, 1), Response::Count(1));
            // asking for device 1 is an error, as the paper specifies
            match d.handle(p, Request::GetDeviceProps { dev: 1 }, 1) {
                Response::Err { class, .. } => assert_eq!(class, err_class::INVALID_DEVICE),
                other => panic!("expected error, got {other:?}"),
            }
        });
        sim.run();
    }

    #[test]
    fn unknown_descriptor_kind_is_an_invalid_value() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.spawn("srv", move |p| {
            let mut d = mk_dispatcher(p, &h);
            let init = Request::Init {
                pooled_context: true,
            };
            d.handle(p, init, 1);
            match d.handle(p, Request::CudnnCreateDescriptors { kind: 200, n: 2 }, 1) {
                Response::Err { class, msg } => {
                    assert_eq!(class, err_class::INVALID_VALUE);
                    assert!(msg.contains("200"), "{msg}");
                }
                other => panic!("expected an error, got {other:?}"),
            }
            let known = Request::CudnnCreateDescriptors { kind: 4, n: 2 };
            assert!(matches!(d.handle(p, known, 1), Response::Handles(ids) if ids.len() == 2));
        });
        sim.run();
    }

    #[test]
    fn full_request_flow_with_launch_translation() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.spawn("srv", move |p| {
            let mut d = mk_dispatcher(p, &h);
            assert_eq!(
                d.handle(
                    p,
                    Request::Init {
                        pooled_context: true
                    },
                    1
                ),
                Response::Ok
            );
            let fptrs = match d.handle(
                p,
                Request::RegisterModule {
                    kernels: vec!["fill7".into()],
                },
                1,
            ) {
                Response::Fptrs(f) => f,
                other => panic!("{other:?}"),
            };
            let fptr = fptrs[0].1;
            let ptr = match d.handle(p, Request::Malloc { bytes: MB }, 1) {
                Response::Ptr(ptr) => ptr,
                other => panic!("{other:?}"),
            };
            let r = d.handle(
                p,
                Request::LaunchConfigured {
                    fptr,
                    stream: 0,
                    cfg: LaunchConfig {
                        grid: (1, 1, 1),
                        block: (32, 1, 1),
                    },
                    args: WireArgs {
                        ptrs: vec![ptr],
                        scalars: vec![],
                        bytes: 16,
                        work_hint: None,
                    },
                },
                1,
            );
            assert_eq!(r, Response::Ok);
            d.handle(p, Request::Sync, 1);
            match d.handle(
                p,
                Request::MemcpyD2H {
                    src: ptr,
                    bytes: 4,
                    want_data: true,
                },
                1,
            ) {
                Response::Data(HostBuf::Bytes(b)) => assert_eq!(b, vec![7, 7, 7, 7]),
                other => panic!("{other:?}"),
            }
            assert_eq!(d.handle(p, Request::EndFunction, 1), Response::Ok);
            assert!(d.finished());
            assert_eq!(d.session().alloc_count(), 0);
        });
        sim.run();
    }

    #[test]
    fn unoptimized_launch_requires_pushed_configuration() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.spawn("srv", move |p| {
            let mut d = mk_dispatcher(p, &h);
            d.handle(
                p,
                Request::Init {
                    pooled_context: true,
                },
                1,
            );
            let fptr = match d.handle(
                p,
                Request::RegisterModule {
                    kernels: vec!["fill7".into()],
                },
                1,
            ) {
                Response::Fptrs(f) => f[0].1,
                _ => unreachable!(),
            };
            let ptr = match d.handle(p, Request::Malloc { bytes: MB }, 1) {
                Response::Ptr(x) => x,
                _ => unreachable!(),
            };
            let args = WireArgs {
                ptrs: vec![ptr],
                scalars: vec![],
                bytes: 0,
                work_hint: Some(0.0),
            };
            // Launch without a pushed config fails...
            match d.handle(
                p,
                Request::Launch {
                    fptr,
                    args: args.clone(),
                },
                1,
            ) {
                Response::Err { class, .. } => assert_eq!(class, err_class::INVALID_VALUE),
                other => panic!("{other:?}"),
            }
            // ...and succeeds with one.
            d.handle(
                p,
                Request::PushCallConfiguration {
                    cfg: LaunchConfig {
                        grid: (1, 1, 1),
                        block: (1, 1, 1),
                    },
                },
                1,
            );
            assert_eq!(d.handle(p, Request::Launch { fptr, args }, 1), Response::Ok);
        });
        sim.run();
    }

    #[test]
    fn launch_with_unknown_or_foreign_fptr_is_invalid_value() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.spawn("srv", move |p| {
            let register = |d: &mut Dispatcher| {
                d.handle(
                    p,
                    Request::Init {
                        pooled_context: true,
                    },
                    1,
                );
                let fptr = match d.handle(
                    p,
                    Request::RegisterModule {
                        kernels: vec!["fill7".into()],
                    },
                    1,
                ) {
                    Response::Fptrs(f) => f[0].1,
                    other => panic!("{other:?}"),
                };
                match d.handle(p, Request::Malloc { bytes: MB }, 1) {
                    Response::Ptr(ptr) => (fptr, ptr),
                    other => panic!("{other:?}"),
                }
            };
            let mut a = mk_dispatcher(p, &h);
            let mut b = mk_dispatcher(p, &h);
            let (fa, pa) = register(&mut a);
            let (fb, pb) = register(&mut b);
            assert_ne!(fa, fb, "each context hands out its own pointers");
            let cfg = LaunchConfig {
                grid: (1, 1, 1),
                block: (1, 1, 1),
            };
            let args = |ptr| WireArgs {
                ptrs: vec![ptr],
                scalars: vec![],
                bytes: 16,
                work_hint: Some(0.0),
            };
            let configured = |fptr, ptr| Request::LaunchConfigured {
                fptr,
                stream: 0,
                cfg,
                args: args(ptr),
            };
            assert_eq!(a.handle(p, configured(fa, pa), 1), Response::Ok);
            // An unregistered pointer and another context's pointer are
            // rejected on both launch paths.
            for fptr in [fa ^ 0xdead_0000, fb] {
                match a.handle(p, configured(fptr, pa), 1) {
                    Response::Err { class, .. } => assert_eq!(class, err_class::INVALID_VALUE),
                    other => panic!("{fptr:#x}: {other:?}"),
                }
                a.handle(p, Request::PushCallConfiguration { cfg }, 1);
                let launch = Request::Launch {
                    fptr,
                    args: args(pa),
                };
                match a.handle(p, launch, 1) {
                    Response::Err { class, .. } => assert_eq!(class, err_class::INVALID_VALUE),
                    other => panic!("{fptr:#x}: {other:?}"),
                }
            }
            assert_eq!(b.handle(p, configured(fb, pb), 1), Response::Ok);
        });
        sim.run();
    }

    #[test]
    fn publish_adopt_hands_buffer_between_functions() {
        // Two functions served back-to-back on the same context (the API
        // server's home GPU): the first parks its output, the second
        // adopts it and reads the bytes the first wrote.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.spawn("srv", move |p| {
            let gpu = Gpu::v100(&h, GpuId(0));
            let costs = Arc::new(CostTable::default());
            let ctx = CudaContext::create(p, &h, gpu, costs, false).unwrap();
            let registry = Arc::new(ModuleRegistry::new());

            let mut d1 = Dispatcher::new(GpuSession::new(&h, ctx.clone(), None), registry.clone());
            d1.handle(
                p,
                Request::Init {
                    pooled_context: true,
                },
                1,
            );
            let ptr = match d1.handle(p, Request::Malloc { bytes: MB }, 1) {
                Response::Ptr(x) => x,
                _ => unreachable!(),
            };
            d1.handle(
                p,
                Request::MemcpyH2D {
                    dst: ptr,
                    data: HostBuf::Bytes(vec![5, 6, 7, 8].into()),
                },
                1,
            );
            assert_eq!(
                d1.handle(p, Request::PublishBuffer { key: 0xA1, ptr }, 1),
                Response::Ok
            );
            // Publishing twice under the same key is rejected.
            let ptr2 = match d1.handle(p, Request::Malloc { bytes: MB }, 1) {
                Response::Ptr(x) => x,
                _ => unreachable!(),
            };
            match d1.handle(
                p,
                Request::PublishBuffer {
                    key: 0xA1,
                    ptr: ptr2,
                },
                1,
            ) {
                Response::Err { class, .. } => assert_eq!(class, err_class::INVALID_HANDLE),
                other => panic!("{other:?}"),
            }
            assert_eq!(d1.handle(p, Request::EndFunction, 1), Response::Ok);

            let mut d2 = Dispatcher::new(GpuSession::new(&h, ctx.clone(), None), registry);
            d2.handle(
                p,
                Request::Init {
                    pooled_context: true,
                },
                1,
            );
            let adopted = match d2.handle(p, Request::AdoptBuffer { key: 0xA1 }, 1) {
                Response::Ptr(x) => x,
                other => panic!("{other:?}"),
            };
            match d2.handle(
                p,
                Request::MemcpyD2H {
                    src: adopted,
                    bytes: 4,
                    want_data: true,
                },
                1,
            ) {
                Response::Data(HostBuf::Bytes(b)) => assert_eq!(b, vec![5, 6, 7, 8]),
                other => panic!("{other:?}"),
            }
            // A second adopt of the same key fails: handoff is exactly-once.
            match d2.handle(p, Request::AdoptBuffer { key: 0xA1 }, 1) {
                Response::Err { class, .. } => assert_eq!(class, err_class::INVALID_HANDLE),
                other => panic!("{other:?}"),
            }
            assert_eq!(d2.handle(p, Request::EndFunction, 1), Response::Ok);
            assert_eq!(ctx.resident_count(), 0);
        });
        sim.run();
    }

    #[test]
    fn unpooled_init_pays_cuda_initialization() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.spawn("srv", move |p| {
            let mut d = mk_dispatcher(p, &h);
            let t0 = p.now();
            d.handle(
                p,
                Request::Init {
                    pooled_context: false,
                },
                1,
            );
            assert!(p.now().since(t0).as_secs_f64() >= 3.2);
            assert_eq!(d.stats.cold_creates, 1);
        });
        sim.run();
    }

    #[test]
    fn batch_executes_in_order_and_stops_on_error() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.spawn("srv", move |p| {
            let mut d = mk_dispatcher(p, &h);
            d.handle(
                p,
                Request::Init {
                    pooled_context: true,
                },
                1,
            );
            let ptr = match d.handle(p, Request::Malloc { bytes: MB }, 1) {
                Response::Ptr(x) => x,
                _ => unreachable!(),
            };
            let r = d.handle(
                p,
                Request::Batch(vec![
                    Request::Memset {
                        ptr,
                        value: 9,
                        bytes: 8,
                    },
                    Request::Memset {
                        ptr: 0xdead,
                        value: 0,
                        bytes: 8,
                    }, // bad pointer: stops here
                    Request::Memset {
                        ptr,
                        value: 1,
                        bytes: 8,
                    },
                ]),
                1,
            );
            assert!(matches!(r, Response::Err { .. }));
            d.handle(p, Request::Sync, 1);
            match d.handle(
                p,
                Request::MemcpyD2H {
                    src: ptr,
                    bytes: 8,
                    want_data: true,
                },
                1,
            ) {
                Response::Data(HostBuf::Bytes(b)) => {
                    assert_eq!(b, vec![9; 8], "first entry ran, third did not")
                }
                other => panic!("{other:?}"),
            }
        });
        sim.run();
    }
}
