//! A *functional* K-means: real Lloyd iterations running as a functional
//! kernel on the simulated GPU, plus a multi-threaded CPU reference.
//!
//! This is the motivation case study's workload (§III: a CUDA class
//! assignment) made executable: the same clustering runs natively, over
//! DGSF remoting, and on host CPUs, and all three produce the same
//! centroids — demonstrating that DGSF's transparency (challenge C1) holds
//! for real computations, not just for timed traces.

use std::sync::Arc;

use dgsf_cuda::{
    CudaApi, DevPtr, HostBuf, KernelArgs, KernelCost, KernelDef, LaunchConfig, ModuleRegistry,
};
use dgsf_sim::ProcCtx;

/// Problem definition: flattened row-major points, `dims` columns.
#[derive(Debug, Clone)]
pub struct KMeansProblem {
    /// Point coordinates, `n × dims` row-major.
    pub points: Vec<f32>,
    /// Dimensionality.
    pub dims: usize,
    /// Cluster count.
    pub k: usize,
    /// Lloyd iterations.
    pub iters: u32,
}

impl KMeansProblem {
    /// Deterministic synthetic problem: `n` points around `k` seeds.
    pub fn synthetic(n: usize, dims: usize, k: usize, iters: u32, seed: u64) -> KMeansProblem {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut points = Vec::with_capacity(n * dims);
        for i in 0..n {
            let c = i % k;
            for d in 0..dims {
                let center = (c * 7 + d) as f32;
                points.push(center + rng.gen_range(-0.5f32..0.5));
            }
        }
        KMeansProblem {
            points,
            dims,
            k,
            iters,
        }
    }

    /// Number of points.
    pub fn n(&self) -> usize {
        self.points.len() / self.dims
    }

    /// Initial centroids: the first `k` points.
    pub fn initial_centroids(&self) -> Vec<f32> {
        self.points[..self.k * self.dims].to_vec()
    }

    /// One Lloyd step: assign every point to its nearest centroid and
    /// return the new centroid means. Accumulates in `f64` in point order,
    /// so GPU and CPU paths agree to float tolerance.
    pub fn lloyd_step(points: &[f32], dims: usize, k: usize, centroids: &[f32]) -> Vec<f32> {
        let n = points.len() / dims;
        let mut sums = vec![0f64; k * dims];
        let mut counts = vec![0u64; k];
        for i in 0..n {
            let p = &points[i * dims..(i + 1) * dims];
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let q = &centroids[c * dims..(c + 1) * dims];
                let mut d2 = 0f64;
                for j in 0..dims {
                    let diff = (p[j] - q[j]) as f64;
                    d2 += diff * diff;
                }
                if d2 < best_d {
                    best_d = d2;
                    best = c;
                }
            }
            counts[best] += 1;
            for j in 0..dims {
                sums[best * dims + j] += p[j] as f64;
            }
        }
        let mut out = vec![0f32; k * dims];
        for c in 0..k {
            for j in 0..dims {
                out[c * dims + j] = if counts[c] > 0 {
                    (sums[c * dims + j] / counts[c] as f64) as f32
                } else {
                    centroids[c * dims + j]
                };
            }
        }
        out
    }

    /// The kernel module: `kmeans_step` reads (points, centroids) and
    /// writes the updated centroids in place.
    pub fn registry(&self) -> Arc<ModuleRegistry> {
        let dims = self.dims;
        let k = self.k;
        Arc::new(ModuleRegistry::new().with(KernelDef::functional(
            "kmeans_step",
            KernelCost::PerByte {
                base: 1e-4,
                per_byte: 5e-12,
            },
            move |view, _cfg, args| {
                let points_ptr = args.ptrs[0];
                let centroids_ptr = args.ptrs[1];
                let n = args.scalars[0] as usize;
                let points = view.read_f32s(points_ptr, n * dims);
                let centroids = view.read_f32s(centroids_ptr, k * dims);
                let updated = KMeansProblem::lloyd_step(&points, dims, k, &centroids);
                view.write_f32s(centroids_ptr, &updated);
            },
        )))
    }

    /// Run on a GPU through any `CudaApi` (native or remoted). Returns the
    /// final centroids, read back from device memory.
    pub fn run_gpu(&self, p: &ProcCtx, api: &mut dyn CudaApi) -> Vec<f32> {
        let n = self.n();
        let pbytes = (self.points.len() * 4) as u64;
        let cbytes = (self.k * self.dims * 4) as u64;
        let points_buf: DevPtr = api.malloc(p, pbytes).expect("points");
        let centroids_buf: DevPtr = api.malloc(p, cbytes).expect("centroids");
        api.memcpy_h2d(p, points_buf, HostBuf::from_f32s(&self.points))
            .expect("upload points");
        api.memcpy_h2d(
            p,
            centroids_buf,
            HostBuf::from_f32s(&self.initial_centroids()),
        )
        .expect("upload centroids");
        for _ in 0..self.iters {
            api.launch_kernel(
                p,
                "kmeans_step",
                LaunchConfig::linear(n as u64, 256),
                KernelArgs {
                    ptrs: vec![points_buf, centroids_buf],
                    scalars: vec![n as u64],
                    bytes: pbytes,
                    work_hint: None,
                },
            )
            .expect("launch");
        }
        api.device_synchronize(p).expect("sync");
        let out = api
            .memcpy_d2h(p, centroids_buf, cbytes, true)
            .expect("read centroids");
        api.free(p, points_buf).expect("free points");
        api.free(p, centroids_buf).expect("free centroids");
        out.to_f32s().expect("real bytes requested")
    }

    /// Multi-threaded CPU reference (the paper's hand-optimized pthreads
    /// baseline, 6 threads). Identical math, parallelized over points with
    /// per-thread `f64` partial sums.
    pub fn run_cpu(&self, threads: usize) -> Vec<f32> {
        let dims = self.dims;
        let k = self.k;
        let n = self.n();
        let mut centroids = self.initial_centroids();
        let chunk = n.div_ceil(threads.max(1));
        for _ in 0..self.iters {
            let mut partials: Vec<(Vec<f64>, Vec<u64>)> = Vec::with_capacity(threads);
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for t in 0..threads {
                    let lo = (t * chunk).min(n);
                    let hi = ((t + 1) * chunk).min(n);
                    let pts = &self.points[lo * dims..hi * dims];
                    let cents = &centroids;
                    handles.push(scope.spawn(move || {
                        let mut sums = vec![0f64; k * dims];
                        let mut counts = vec![0u64; k];
                        for i in 0..(hi - lo) {
                            let p = &pts[i * dims..(i + 1) * dims];
                            let mut best = 0usize;
                            let mut best_d = f64::INFINITY;
                            for c in 0..k {
                                let q = &cents[c * dims..(c + 1) * dims];
                                let mut d2 = 0f64;
                                for j in 0..dims {
                                    let diff = (p[j] - q[j]) as f64;
                                    d2 += diff * diff;
                                }
                                if d2 < best_d {
                                    best_d = d2;
                                    best = c;
                                }
                            }
                            counts[best] += 1;
                            for j in 0..dims {
                                sums[best * dims + j] += p[j] as f64;
                            }
                        }
                        (sums, counts)
                    }));
                }
                for h in handles {
                    partials.push(h.join().expect("worker"));
                }
            });
            let mut sums = vec![0f64; k * dims];
            let mut counts = vec![0u64; k];
            for (s, c) in partials {
                for (acc, v) in sums.iter_mut().zip(s) {
                    *acc += v;
                }
                for (acc, v) in counts.iter_mut().zip(c) {
                    *acc += v;
                }
            }
            for c in 0..k {
                for j in 0..dims {
                    if counts[c] > 0 {
                        centroids[c * dims + j] = (sums[c * dims + j] / counts[c] as f64) as f32;
                    }
                }
            }
        }
        centroids
    }
}

/// Maximum absolute difference between two centroid sets.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_cuda::{CostTable, NativeCuda};
    use dgsf_gpu::{Gpu, GpuId};
    use dgsf_sim::{Sim, SimCell};
    use std::rc::Rc;
    use std::sync::Arc as StdArc;

    #[test]
    fn gpu_and_cpu_agree() {
        let prob = KMeansProblem::synthetic(600, 4, 3, 8, 42);
        let cpu = prob.run_cpu(6);
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let out = Rc::new(SimCell::new(&h, None));
        let o = out.clone();
        let prob2 = prob.clone();
        sim.spawn("app", move |p| {
            let gpu = Gpu::v100(&h, GpuId(0));
            let mut api = NativeCuda::new(&h, gpu, StdArc::new(CostTable::default()));
            api.runtime_init(p).unwrap();
            api.register_module(p, prob2.registry()).unwrap();
            *o.lock() = Some(prob2.run_gpu(p, &mut api));
        });
        sim.run();
        let gpu_result = out.lock().take().unwrap();
        assert_eq!(gpu_result.len(), cpu.len());
        assert!(
            max_abs_diff(&gpu_result, &cpu) < 1e-3,
            "GPU and CPU K-means must agree"
        );
    }

    #[test]
    fn clustering_actually_converges_to_seeds() {
        // Synthetic points sit near (c·7+d); after a few iterations the
        // centroids must be close to those seeds.
        let prob = KMeansProblem::synthetic(900, 2, 3, 10, 7);
        let cents = prob.run_cpu(4);
        // cluster c should be near (7c, 7c+1)
        for c in 0..3 {
            // find the closest recovered centroid to the true seed
            let seed = [(c * 7) as f32, (c * 7 + 1) as f32];
            let best = (0..3)
                .map(|i| {
                    let dx = cents[i * 2] - seed[0];
                    let dy = cents[i * 2 + 1] - seed[1];
                    dx * dx + dy * dy
                })
                .fold(f32::INFINITY, f32::min);
            assert!(best < 0.1, "cluster {c} not recovered: {best}");
        }
    }

    #[test]
    fn single_thread_matches_multi_thread() {
        let prob = KMeansProblem::synthetic(500, 3, 4, 5, 9);
        let a = prob.run_cpu(1);
        let b = prob.run_cpu(6);
        assert!(max_abs_diff(&a, &b) < 1e-3);
    }
}
