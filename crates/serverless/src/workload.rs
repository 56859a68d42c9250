//! The workload abstraction: a serverless function body written against the
//! interposable CUDA API.

use std::sync::Arc;

use dgsf_cuda::{CudaApi, CudaResult, KernelArgs, KernelDef, LaunchConfig, ModuleRegistry};
use dgsf_gpu::GB;
use dgsf_sim::{Dur, ProcCtx};

use crate::phases::{phase, PhaseRecorder};

/// A GPU-accelerated serverless function.
///
/// Implementations issue the same CUDA/cuDNN/cuBLAS call sequence whether
/// the `api` is [`dgsf_cuda::NativeCuda`] or the DGSF guest library — that
/// transparency is challenge **C1** of the paper.
pub trait Workload: Send + Sync {
    /// Function name (as deployed).
    fn name(&self) -> &str;

    /// Tenant (customer account) that deployed the function. Admission
    /// control's fair shedding budgets by this label; wrap a workload in
    /// [`Tenanted`] to set it. Defaults to a single shared tenant.
    fn tenant(&self) -> &str {
        "default"
    }

    /// Kernels this function ships (registered at deploy time).
    fn registry(&self) -> Arc<ModuleRegistry>;

    /// Declared GPU memory requirement — what the developer specifies at
    /// deployment, and what the monitor uses for placement.
    fn required_gpu_mem(&self) -> u64;

    /// Bytes of models + inputs downloaded from the object store per run.
    fn download_bytes(&self) -> u64;

    /// Execute the function body against `api`, recording phases.
    ///
    /// Errors propagate instead of panicking: over a faulted link any call
    /// can come back [`dgsf_cuda::CudaError::Transport`], and the platform
    /// (not the workload) decides whether to retry the whole function.
    fn run(&self, p: &ProcCtx, api: &mut dyn CudaApi, rec: &mut PhaseRecorder) -> CudaResult<()>;

    /// Calibrated CPU execution time (6 threads), for the CPU baseline row.
    fn cpu_secs(&self) -> f64;
}

/// Wrap a workload with a tenant label (and an optional distinct name), so
/// multi-tenant schedules can reuse one workload body.
pub struct Tenanted<W> {
    inner: W,
    tenant: String,
    name: String,
}

impl<W: Workload> Tenanted<W> {
    /// `inner` deployed by `tenant`; the function keeps its own name.
    pub fn new(tenant: &str, inner: W) -> Tenanted<W> {
        let name = inner.name().to_string();
        Tenanted {
            inner,
            tenant: tenant.to_string(),
            name,
        }
    }

    /// `inner` deployed by `tenant` under an explicit function name.
    pub fn named(tenant: &str, name: &str, inner: W) -> Tenanted<W> {
        Tenanted {
            inner,
            tenant: tenant.to_string(),
            name: name.to_string(),
        }
    }
}

impl<W: Workload> Workload for Tenanted<W> {
    fn name(&self) -> &str {
        &self.name
    }
    fn tenant(&self) -> &str {
        &self.tenant
    }
    fn registry(&self) -> Arc<ModuleRegistry> {
        self.inner.registry()
    }
    fn required_gpu_mem(&self) -> u64 {
        self.inner.required_gpu_mem()
    }
    fn download_bytes(&self) -> u64 {
        self.inner.download_bytes()
    }
    fn run(&self, p: &ProcCtx, api: &mut dyn CudaApi, rec: &mut PhaseRecorder) -> CudaResult<()> {
        self.inner.run(p, api, rec)
    }
    fn cpu_secs(&self) -> f64 {
        self.inner.cpu_secs()
    }
}

/// The synthetic function the load experiments and tests drive: `host` of
/// host-side pre-processing (the API server busy, the GPU free), then
/// `chunks` timed kernels of `gpu_secs` each, with a device sync after
/// every kernel — each sync an API boundary where a live migration can
/// land. No download. Build one with struct update syntax:
/// `Spin { gpu_secs: 0.3, ..Spin::default() }`.
#[derive(Debug, Clone)]
pub struct Spin {
    /// Function name (as deployed).
    pub name: &'static str,
    /// GPU seconds of each kernel.
    pub gpu_secs: f64,
    /// Kernels per invocation.
    pub chunks: usize,
    /// Host time before the first kernel. Zero means no sleep at all.
    pub host: Dur,
    /// Declared GPU memory requirement.
    pub mem: u64,
}

impl Default for Spin {
    /// `"spin"`: one 0.5 s kernel, 1 GB, no host time.
    fn default() -> Spin {
        Spin {
            name: "spin",
            gpu_secs: 0.5,
            chunks: 1,
            host: Dur::ZERO,
            mem: GB,
        }
    }
}

impl Workload for Spin {
    fn name(&self) -> &str {
        self.name
    }
    fn registry(&self) -> Arc<ModuleRegistry> {
        Arc::new(ModuleRegistry::new().with(KernelDef::timed("k")))
    }
    fn required_gpu_mem(&self) -> u64 {
        self.mem
    }
    fn download_bytes(&self) -> u64 {
        0
    }
    fn run(&self, p: &ProcCtx, api: &mut dyn CudaApi, rec: &mut PhaseRecorder) -> CudaResult<()> {
        rec.enter(p, phase::PROCESSING);
        if self.host > Dur::ZERO {
            p.sleep(self.host);
        }
        for _ in 0..self.chunks {
            api.launch_kernel(
                p,
                "k",
                LaunchConfig::linear(1, 32),
                KernelArgs::timed(self.gpu_secs, 0),
            )?;
            api.device_synchronize(p)?;
        }
        rec.close(p);
        Ok(())
    }
    /// A fixed 30 s: no load experiment runs the CPU baseline.
    fn cpu_secs(&self) -> f64 {
        30.0
    }
}
