//! Trace-modeled workloads.
//!
//! Each of the paper's six evaluation workloads (§VII) is expressed as a
//! [`TraceSpec`]: a calibrated CUDA/cuDNN/cuBLAS call sequence with explicit
//! phase structure (model load, batched processing), API-call counts (which
//! drive the remoting/batching cost), device work (which drives GPU
//! contention), and host-side preprocessing. The *same* trace runs natively,
//! over DGSF, and under the Lambda profile — only the `CudaApi`
//! implementation changes, exactly as in the paper's evaluation.

use std::sync::Arc;

use dgsf_cuda::{
    CudaApi, CudaResult, DescriptorKind, DevPtr, HostBuf, KernelArgs, KernelDef, LaunchConfig,
    LibOp, ModuleRegistry,
};
use dgsf_gpu::MB;
use dgsf_serverless::{phase, PhaseRecorder, Workload};
use dgsf_sim::{Dur, ProcCtx};

/// Model-loading phase parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// GPU-seconds of device work while building the model.
    pub work: f64,
    /// cuDNN descriptors created+configured+destroyed during loading.
    pub descriptors: u64,
    /// cuDNN API calls the load aggregate stands for.
    pub api_calls: u64,
    /// Of those, asynchronous/elidable calls.
    pub elidable: u64,
}

/// Batched-processing phase parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcSpec {
    /// Number of batches (or iterations, for K-means).
    pub batches: u32,
    /// GPU-seconds of device work per batch.
    pub work_per_batch: f64,
    /// Input bytes uploaded per batch.
    pub input_per_batch: u64,
    /// Output bytes read back per batch.
    pub output_per_batch: u64,
    /// cuDNN descriptors per batch (created+set+destroyed).
    pub descriptors: u64,
    /// cuDNN API calls per batch.
    pub api_calls: u64,
    /// Of those, elidable calls.
    pub elidable: u64,
    /// Raw kernel launches per batch (non-cuDNN workloads).
    pub launches: u32,
    /// Read results back every `d2h_every` batches.
    pub d2h_every: u32,
}

/// A calibrated workload trace.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Function name.
    pub name: String,
    /// Declared GPU memory requirement (what the scheduler sees).
    pub required_mem: u64,
    /// Device allocations the trace makes, in order.
    pub alloc_split: Vec<u64>,
    /// Bytes downloaded from the object store (model + inputs).
    pub download: u64,
    /// Model weights uploaded to the device during loading.
    pub weights: u64,
    /// Whether the workload uses cuDNN/cuBLAS.
    pub uses_dnn: bool,
    /// Host-side preprocessing time, spread across batches.
    pub host_secs: f64,
    /// Model-loading parameters.
    pub load: LoadSpec,
    /// Processing parameters.
    pub proc: ProcSpec,
    /// Calibrated 6-thread CPU runtime (Table II's CPU row, minus
    /// download).
    pub cpu_secs: f64,
}

impl TraceSpec {
    /// GPU-seconds of device work one run retires (for utilization
    /// predictions).
    pub fn total_gpu_work(&self) -> f64 {
        self.load.work + self.proc.batches as f64 * self.proc.work_per_batch
    }

    fn kernel_registry() -> Arc<ModuleRegistry> {
        Arc::new(
            ModuleRegistry::new()
                .with(KernelDef::timed("trace_kernel"))
                .with(KernelDef::timed("trace_load")),
        )
    }
}

impl Workload for TraceSpec {
    fn name(&self) -> &str {
        &self.name
    }

    fn registry(&self) -> Arc<ModuleRegistry> {
        Self::kernel_registry()
    }

    fn required_gpu_mem(&self) -> u64 {
        self.required_mem
    }

    fn download_bytes(&self) -> u64 {
        self.download
    }

    fn cpu_secs(&self) -> f64 {
        self.cpu_secs
    }

    fn run(&self, p: &ProcCtx, api: &mut dyn CudaApi, rec: &mut PhaseRecorder) -> CudaResult<()> {
        // ---- model load ----
        rec.enter(p, phase::MODEL_LOAD);
        let mut bufs: Vec<DevPtr> = Vec::with_capacity(self.alloc_split.len());
        for sz in &self.alloc_split {
            bufs.push(api.malloc(p, *sz)?);
        }
        let data_buf = *bufs.first().expect("at least one allocation");
        let (dnn, blas) = if self.uses_dnn {
            (Some(api.cudnn_create(p)?), Some(api.cublas_create(p)?))
        } else {
            (None, None)
        };
        if self.load.descriptors > 0 {
            let d =
                api.cudnn_create_descriptors(p, DescriptorKind::Tensor, self.load.descriptors)?;
            api.cudnn_set_descriptors(p, &d)?;
            api.cudnn_destroy_descriptors(p, d)?;
        }
        if self.weights > 0 {
            api.memcpy_h2d(p, data_buf, HostBuf::Logical(self.weights))?;
        }
        if let Some(dnn) = dnn {
            if self.load.api_calls > 0 || self.load.work > 0.0 {
                api.cudnn_op(
                    p,
                    dnn,
                    LibOp {
                        work: self.load.work,
                        bytes: self.weights,
                        api_calls: self.load.api_calls.max(1),
                        elidable_calls: self.load.elidable,
                    },
                )?;
            }
        } else if self.load.work > 0.0 {
            api.launch_kernel(
                p,
                "trace_load",
                LaunchConfig::linear(1 << 20, 256),
                KernelArgs::timed(self.load.work, self.weights),
            )?;
        }
        api.device_synchronize(p)?;

        // ---- processing ----
        rec.enter(p, phase::PROCESSING);
        let host_per_batch = Dur::from_secs_f64(self.host_secs / self.proc.batches.max(1) as f64);
        for b in 0..self.proc.batches {
            p.sleep(host_per_batch); // CPU-side preprocessing
            if self.proc.input_per_batch > 0 {
                api.memcpy_h2d(p, data_buf, HostBuf::Logical(self.proc.input_per_batch))?;
            }
            if self.proc.descriptors > 0 {
                let d =
                    api.cudnn_create_descriptors(p, DescriptorKind::Tensor, self.proc.descriptors)?;
                api.cudnn_set_descriptors(p, &d)?;
                api.cudnn_destroy_descriptors(p, d)?;
            }
            if let Some(dnn) = dnn {
                api.cudnn_op(
                    p,
                    dnn,
                    LibOp {
                        work: self.proc.work_per_batch,
                        bytes: self.proc.input_per_batch,
                        api_calls: self.proc.api_calls.max(1),
                        elidable_calls: self.proc.elidable,
                    },
                )?;
            } else {
                let per_launch = self.proc.work_per_batch / self.proc.launches.max(1) as f64;
                for _ in 0..self.proc.launches.max(1) {
                    api.launch_kernel(
                        p,
                        "trace_kernel",
                        LaunchConfig::linear(1 << 20, 256),
                        KernelArgs::timed(per_launch, self.proc.input_per_batch),
                    )?;
                }
            }
            if self.proc.output_per_batch > 0 && (b + 1) % self.proc.d2h_every.max(1) == 0 {
                api.memcpy_d2h(p, data_buf, self.proc.output_per_batch, false)?;
            }
        }
        api.device_synchronize(p)?;
        if let Some(b) = blas {
            // One aggregate gemm stands in for cuBLAS use across the run.
            api.cublas_op(p, b, LibOp::compute(0.0))?;
        }
        rec.close(p);
        Ok(())
    }
}

/// Convenience: megabytes (floats from the paper rounded to whole bytes).
pub fn mbf(mb: f64) -> u64 {
    (mb * MB as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_cuda::{CostTable, NativeCuda};
    use dgsf_gpu::{Gpu, GpuId};
    use dgsf_sim::{Sim, SimCell};
    use std::rc::Rc;
    use std::sync::Arc;

    fn tiny_spec() -> TraceSpec {
        TraceSpec {
            name: "tiny".into(),
            required_mem: 512 * MB,
            alloc_split: vec![64 * MB],
            download: 10 * MB,
            weights: 8 * MB,
            uses_dnn: true,
            host_secs: 0.1,
            load: LoadSpec {
                work: 0.2,
                descriptors: 10,
                api_calls: 20,
                elidable: 15,
            },
            proc: ProcSpec {
                batches: 4,
                work_per_batch: 0.05,
                input_per_batch: MB,
                output_per_batch: 1024,
                descriptors: 5,
                api_calls: 10,
                elidable: 8,
                launches: 0,
                d2h_every: 1,
            },
            cpu_secs: 3.0,
        }
    }

    #[test]
    fn trace_runs_natively_with_expected_phases() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let out = Rc::new(SimCell::new(&h, None));
        let o = out.clone();
        sim.spawn("f", move |p| {
            let gpu = Gpu::v100(&h, GpuId(0));
            let mut api = NativeCuda::new(&h, gpu, Arc::new(CostTable::default()));
            let spec = tiny_spec();
            api.runtime_init(p).unwrap();
            api.register_module(p, spec.registry()).unwrap();
            let mut rec = PhaseRecorder::new();
            spec.run(p, &mut api, &mut rec).unwrap();
            *o.lock() = Some((rec, api.stats()));
        });
        sim.run();
        let (rec, stats) = out.lock().take().unwrap();
        // load ≥ cudnn (1.2) + cublas (0.2) + work (0.2)
        assert!(rec.get(phase::MODEL_LOAD).as_secs_f64() > 1.55);
        // processing ≥ host 0.1 + 4 × 0.05 work
        assert!(rec.get(phase::PROCESSING).as_secs_f64() > 0.29);
        assert!(stats.issued_calls > 100);
    }

    #[test]
    fn gpu_work_accounting() {
        let s = tiny_spec();
        assert!((s.total_gpu_work() - 0.4).abs() < 1e-12);
    }
}
