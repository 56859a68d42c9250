//! Cross-crate integration tests: a full function execution through every
//! layer (platform → guest library → wire protocol → network → API server →
//! virtual CUDA → simulated GPU) in both native and DGSF modes.

use std::rc::Rc;
use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::serverless::{invoke_native, phase, ObjectStore};
use dgsf::sim::SimCell;
use dgsf::workloads::{self, paper_suite};

#[test]
fn dgsf_beats_native_for_every_dnn_workload() {
    // The headline transparency+performance claim: remoting overheads are
    // outweighed by hiding CUDA/cuDNN initialization.
    let cfg = PlatformConfig::paper_default();
    let one = Schedule {
        entries: vec![(SimTime::ZERO, 0)],
    };
    for w in paper_suite() {
        let dynw: Arc<dyn Workload> = w.clone() as Arc<dyn Workload>;
        let native = Testbed::run_native_once(1, &cfg.server.costs, dynw.clone());
        let out = Testbed::run_platform_schedule(&cfg, &[dynw], &one);
        // Every GPU of the single server reports a timeline, and the run
        // kept them busy for some but not more than all of its span.
        assert_eq!(out.gpu_timelines.len(), cfg.server.num_gpus as usize);
        let util = out.mean_utilization(out.first_launch, out.all_done);
        assert!(util > 0.0 && util <= 1.0, "{}: utilization {util}", w.name);
        let dgsf_run = &out.results[0];
        assert!(
            dgsf_run.e2e() < native.e2e(),
            "{}: DGSF {:.1}s should beat native {:.1}s",
            w.name,
            dgsf_run.e2e().as_secs_f64(),
            native.e2e().as_secs_f64()
        );
    }
}

#[test]
fn native_pays_init_dgsf_does_not() {
    let cfg = PlatformConfig::paper_default();
    let w: Arc<dyn Workload> = Arc::new(workloads::kmeans());
    // The native run, traced: its own simulation with telemetry on.
    let mut sim = Sim::new(1);
    let native_tel = sim.telemetry();
    native_tel.enable();
    let out = Rc::new(SimCell::new(&sim.handle(), None));
    let (o, w2, costs) = (
        Rc::clone(&out),
        w.clone(),
        Arc::new(cfg.server.costs.clone()),
    );
    sim.spawn("native-root", move |p| {
        let store = ObjectStore::new(NetProfile::datacenter().s3_bw);
        *o.borrow_in(p) = Some(invoke_native(p, &p.handle(), &store, w2.as_ref(), costs));
    });
    sim.run();
    let native = out.lock().take().expect("the native run returned");
    // The DGSF run, traced: a one-function schedule on the platform.
    let one = Schedule {
        entries: vec![(SimTime::ZERO, 0)],
    };
    let (out, dgsf_tel) = Testbed::run_platform_schedule_traced(&cfg, &[w], &one);
    let dgsf_run = &out.results[0];
    let native_init = native.phases.get(phase::INIT).as_secs_f64();
    let dgsf_init = dgsf_run.phases.get(phase::INIT).as_secs_f64();
    assert!(
        native_init >= 3.2,
        "native init on critical path: {native_init}"
    );
    assert!(dgsf_init < 0.1, "DGSF init hidden by pooling: {dgsf_init}");

    // Trace oracle: the recorded phase spans tell the same story as the
    // phase recorder — native pays init in the trace, DGSF's init span
    // time is (near) zero because the pool absorbed it.
    let init_span_secs = |tel: &dgsf::sim::Telemetry| -> f64 {
        tel.spans()
            .iter()
            .filter(|s| s.cat == "phase" && s.name == phase::INIT.as_str())
            .map(|s| s.dur().as_secs_f64())
            .sum()
    };
    let native_span = init_span_secs(&native_tel);
    let dgsf_span = init_span_secs(&dgsf_tel);
    assert!(
        (native_span - native_init).abs() < 1e-9,
        "native init span must equal the recorded phase: {native_span} vs {native_init}"
    );
    assert!(
        dgsf_span < 0.1,
        "DGSF trace must show ~zero init span time: {dgsf_span}"
    );
    // The DGSF trace carries exactly one invocation span enclosing every
    // phase span on the function's track.
    let spans = dgsf_tel.spans();
    let invocations: Vec<_> = spans.iter().filter(|s| s.cat == "invocation").collect();
    assert_eq!(invocations.len(), 1);
    for ph in spans
        .iter()
        .filter(|s| s.cat == "phase" && s.track == invocations[0].track)
    {
        assert!(
            invocations[0].start <= ph.start && ph.end <= invocations[0].end,
            "phase span {} must nest inside the invocation span",
            ph.name
        );
    }
}

#[test]
fn cpu_baseline_is_far_slower_than_gpu() {
    let cfg = PlatformConfig::paper_default();
    for w in paper_suite() {
        let dynw: Arc<dyn Workload> = w.clone() as Arc<dyn Workload>;
        let cpu = Testbed::run_cpu_once(1, dynw.clone());
        let dgsf_run = Testbed::run_dgsf_once(&cfg, dynw);
        assert!(
            cpu.e2e().as_secs_f64() > 1.4 * dgsf_run.e2e().as_secs_f64(),
            "{}: CPU {:.1}s must be well above GPU {:.1}s",
            w.name,
            cpu.e2e().as_secs_f64(),
            dgsf_run.e2e().as_secs_f64()
        );
    }
}

#[test]
fn lambda_profile_penalizes_transfer_heavy_workloads_most() {
    let cfg = PlatformConfig::paper_default();
    let mut lambda_cfg = cfg.clone();
    lambda_cfg.server = lambda_cfg.server.with_net(NetProfile::lambda());

    let penalty = |w: Arc<dyn Workload>| {
        let d = Testbed::run_dgsf_once(&cfg, w.clone()).e2e().as_secs_f64();
        let l = Testbed::run_dgsf_once(&lambda_cfg, w).e2e().as_secs_f64();
        l - d
    };
    let nlp_penalty = penalty(Arc::new(workloads::nlp()));
    let kmeans_penalty = penalty(Arc::new(workloads::kmeans()));
    // NLP moves ~1.26 GB across the remoting link; K-means ~235 MB.
    assert!(
        nlp_penalty > 3.0 * kmeans_penalty.max(0.1),
        "NLP penalty {nlp_penalty:.1}s should dwarf kmeans {kmeans_penalty:.1}s"
    );
    assert!(nlp_penalty > 15.0, "paper shows ~28s: {nlp_penalty:.1}");
}

#[test]
fn optimization_levels_are_monotonic_for_faceid() {
    // Figure 4's ladder: each added optimization must not slow the workload.
    let w: Arc<dyn Workload> = Arc::new(workloads::face_identification());
    let mut prev = f64::INFINITY;
    for opts in [
        OptConfig::none(),
        OptConfig::handle_pools(),
        OptConfig::descriptor_pools(),
        OptConfig::full(),
    ] {
        let cfg = PlatformConfig::paper_default().with_opts(opts);
        let t = Testbed::run_dgsf_once(&cfg, w.clone()).e2e().as_secs_f64();
        assert!(
            t <= prev + 0.05,
            "optimization level must not regress: {t:.2} after {prev:.2}"
        );
        prev = t;
    }
}

#[test]
fn forwarded_call_reduction_matches_paper_claims() {
    // §V-C: "reduce the number of forwarded CUDA APIs ... by up to 48% for
    // ONNX runtime and up to 96% for TensorFlow".
    let cfg = PlatformConfig::paper_default();
    let noopt = cfg.clone().with_opts(OptConfig::none());
    // TensorFlow workload (CovidCTNet)
    let w: Arc<dyn Workload> = Arc::new(workloads::covidctnet());
    let a = Testbed::run_dgsf_once(&noopt, w.clone()).api_stats;
    let b = Testbed::run_dgsf_once(&cfg, w).api_stats;
    let tf_reduction = 1.0 - b.remoted_calls as f64 / a.remoted_calls as f64;
    assert!(
        tf_reduction > 0.85,
        "TF forwarded-call reduction ~96%, got {:.0}%",
        tf_reduction * 100.0
    );
    // ONNX workload (face detection)
    let w: Arc<dyn Workload> = Arc::new(workloads::face_detection());
    let a = Testbed::run_dgsf_once(&noopt, w.clone()).api_stats;
    let b = Testbed::run_dgsf_once(&cfg, w).api_stats;
    let onnx_reduction = 1.0 - b.remoted_calls as f64 / a.remoted_calls as f64;
    assert!(
        (0.30..0.75).contains(&onnx_reduction),
        "ONNX forwarded-call reduction ~48%, got {:.0}%",
        onnx_reduction * 100.0
    );
}

#[test]
fn functional_workload_identical_results_native_and_remote() {
    use dgsf::cuda::{CostTable, CudaApi, NativeCuda};
    use dgsf::gpu::{Gpu, GpuId};
    use dgsf::remoting::RemoteCuda;
    use dgsf::server::GpuServer;
    use dgsf::sim::{Sim, SimCell};
    use dgsf::workloads::{max_abs_diff, KMeansProblem};

    let prob = KMeansProblem::synthetic(1200, 6, 4, 6, 99);
    let cpu = prob.run_cpu(6);

    // native
    let native = {
        let mut sim = Sim::new(3);
        let h = sim.handle();
        let out = Rc::new(SimCell::new(&h, None));
        let o = out.clone();
        let prob = prob.clone();
        sim.spawn("app", move |p| {
            let gpu = Gpu::v100(&h, GpuId(0));
            let mut api = NativeCuda::new(&h, gpu, Arc::new(CostTable::default()));
            api.runtime_init(p).unwrap();
            api.register_module(p, prob.registry()).unwrap();
            *o.lock() = Some(prob.run_gpu(p, &mut api));
        });
        sim.run();
        let r = out.lock().take().unwrap();
        r
    };

    // remoted
    let remoted = {
        let mut sim = Sim::new(3);
        let h = sim.handle();
        let out = Rc::new(SimCell::new(&h, None));
        let o = out.clone();
        let prob = prob.clone();
        let h2 = h.clone();
        sim.spawn("root", move |p| {
            let server = GpuServer::provision(p, &h2, GpuServerConfig::paper_default().gpus(1));
            let (client, _) = server.request_gpu(p, "km", 256 << 20, prob.registry());
            let mut api = RemoteCuda::new(client, OptConfig::full());
            api.runtime_init(p).unwrap();
            api.register_module(p, prob.registry()).unwrap();
            *o.lock() = Some(prob.run_gpu(p, &mut api));
            api.finish(p).unwrap();
        });
        sim.run();
        let r = out.lock().take().unwrap();
        r
    };

    assert!(max_abs_diff(&native, &cpu) < 1e-3);
    assert_eq!(native, remoted, "bit-identical across native and remoted");
}

#[test]
fn errors_propagate_across_the_wire_with_their_class() {
    use dgsf::cuda::CudaError;
    use dgsf::cuda::{KernelDef, ModuleRegistry};
    use dgsf::remoting::RemoteCuda;
    use dgsf::server::GpuServer;
    use dgsf::sim::Sim;

    let mut sim = Sim::new(11);
    let h = sim.handle();
    sim.spawn("root", move |p| {
        let server = GpuServer::provision(p, &h, GpuServerConfig::paper_default().gpus(1));
        let registry = Arc::new(ModuleRegistry::new().with(KernelDef::timed("k")));
        let (client, _) = server.request_gpu(p, "err", 2 << 30, registry.clone());
        let mut api = RemoteCuda::new(client, OptConfig::full());
        api.runtime_init(p).unwrap();
        api.register_module(p, registry).unwrap();

        // Declared limit is 2 GB: a 4 GB malloc violates the function's own
        // declaration and must come back as MemoryLimitExceeded.
        match api.malloc(p, 4 << 30) {
            Err(CudaError::MemoryLimitExceeded { .. }) => {}
            other => panic!("expected limit violation over the wire, got {other:?}"),
        }
        // Freeing a bogus pointer is InvalidValue.
        match api.free(p, dgsf::cuda::DevPtr(0x1234)) {
            Err(CudaError::InvalidValue(_)) => {}
            other => panic!("expected invalid value, got {other:?}"),
        }
        // Device ordinal 1 does not exist for a function.
        match api.get_device_properties(p, 1) {
            Err(CudaError::InvalidDevice { .. }) => {}
            other => panic!("expected invalid device, got {other:?}"),
        }
        // The session is still healthy after all those errors.
        let buf = api.malloc(p, 64 << 20).unwrap();
        api.free(p, buf).unwrap();
        api.finish(p).unwrap();
    });
    sim.run();
}

#[test]
fn backend_routes_functions_across_gpu_servers() {
    use dgsf::server::GpuServer;
    use dgsf::serverless::{Backend, FleetPolicy, ObjectStore};
    use dgsf::sim::{Sim, SimCell};
    use dgsf::workloads;

    let mut sim = Sim::new(12);
    let h = sim.handle();
    let counts = Rc::new(SimCell::new(&h, (0usize, 0usize)));
    let c2 = counts.clone();
    sim.spawn("root", move |p| {
        let cfg = GpuServerConfig::paper_default().gpus(1);
        let s1 = GpuServer::provision(p, &h, cfg.clone());
        let s2 = GpuServer::provision(p, &h, cfg);
        let backend = Rc::new(Backend::new(&h, vec![s1, s2], FleetPolicy::RoundRobin));
        let store = Arc::new(ObjectStore::new(NetProfile::datacenter().s3_bw));
        let done = Rc::new(SimCell::new(&h, 0usize));
        for i in 0..4 {
            let backend = Rc::clone(&backend);
            let store = Arc::clone(&store);
            let done = Rc::clone(&done);
            h.spawn(&format!("fn{i}"), move |p| {
                let w = workloads::kmeans();
                let r = backend.invoke(p, &store, &w, OptConfig::full());
                assert!(r.e2e().as_secs_f64() > 1.0);
                *done.lock() += 1;
            });
        }
        let backend2 = Rc::clone(&backend);
        let c3 = c2.clone();
        h.spawn("wait", move |p| {
            loop {
                p.sleep(Dur::from_secs(5));
                if *done.lock() == 4 {
                    break;
                }
            }
            *c3.lock() = (
                backend2.servers()[0].records().len(),
                backend2.servers()[1].records().len(),
            );
        });
    });
    sim.run();
    let (a, b) = *counts.lock();
    assert_eq!(a + b, 4);
    assert_eq!(a, 2, "round robin splits 2/2: {a}/{b}");
}

#[test]
#[should_panic(expected = "invalid PlatformConfig")]
fn run_dgsf_once_validates_the_platform_config() {
    // Single-function runs go through the same platform runner as
    // schedules, so they reject an inconsistent config up front instead
    // of stalling: a zero-length obs window is inconsistent.
    let cfg =
        PlatformConfig::paper_default().with_obs(ObsConfig::paper_default().with_window(Dur::ZERO));
    Testbed::run_dgsf_once(&cfg, Arc::new(workloads::kmeans()));
}
