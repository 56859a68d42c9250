//! Quickstart: run one GPU-accelerated serverless function over DGSF and
//! compare it with native execution.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! DGSF pre-initializes CUDA contexts and cuDNN/cuBLAS handles on the API
//! server, so the remoted function skips the ≈4.6 s of initialization a
//! native process pays — and ends up *faster* end-to-end despite crossing
//! the network for every CUDA call.

use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::workloads;

fn main() {
    let cfg = PlatformConfig::paper_default();

    println!("DGSF quickstart — face identification (ArcFace on ONNX Runtime)\n");
    let w: Arc<dyn Workload> = Arc::new(workloads::face_identification());

    let native = Testbed::run_native_once(1, &cfg.server.costs, w.clone());
    let dgsf_run = Testbed::run_dgsf_once(&cfg, w.clone());

    let show = |label: &str, r: &dgsf::serverless::FunctionResult| {
        println!("{label:<8} end-to-end {:>6.2}s", r.e2e().as_secs_f64());
        for (name, d) in r.phases.all() {
            println!("         {:<12} {:>6.2}s", name, d.as_secs_f64());
        }
        println!(
            "         API calls issued {}, forwarded {}, answered locally {}, batched {}",
            r.api_stats.issued_calls,
            r.api_stats.remoted_calls,
            r.api_stats.localized_calls,
            r.api_stats.batched_calls
        );
        println!();
    };
    show("native", &native);
    show("DGSF", &dgsf_run);

    let native_s = native.e2e().as_secs_f64();
    let dgsf_s = dgsf_run.e2e().as_secs_f64();
    println!(
        "DGSF is {:.0}% {} than native ({}).",
        ((native_s - dgsf_s) / native_s * 100.0).abs(),
        if dgsf_s < native_s {
            "faster"
        } else {
            "slower"
        },
        if dgsf_s < native_s {
            "remoting overhead is outweighed by hiding CUDA/cuDNN initialization"
        } else {
            "network overheads dominated this run"
        }
    );
}
