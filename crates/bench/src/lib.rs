//! # dgsf-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§VIII), each
//! returning structured results plus a paper-style text rendering:
//!
//! | paper artifact | function | binary subcommand |
//! |---|---|---|
//! | Table II  | [`single::table2`]     | `dgsf-expt table2` |
//! | Figure 3  | [`single::fig3`]       | `dgsf-expt fig3` |
//! | Figure 4  | [`single::fig4`]       | `dgsf-expt fig4` |
//! | Table III | [`mixed::heavy_load`]  | `dgsf-expt table3` |
//! | Figure 5  | [`mixed::heavy_load`]  | `dgsf-expt fig5` |
//! | Table IV  | [`mixed::light_load`]  | `dgsf-expt table4` |
//! | Figure 6  | [`mixed::light_load`]  | `dgsf-expt fig6` |
//! | Figure 7  | [`mixed::burst`]       | `dgsf-expt fig7` |
//! | Figure 8  | [`mixed::fig8`]        | `dgsf-expt fig8` |
//! | Table V   | [`single::table5`]     | `dgsf-expt table5` |
//! | §V-C API counts | [`single::apicounts`] | `dgsf-expt apicounts` |
//! | §VIII-D future work (SJF) | [`mixed::queue_policy`] | `dgsf-expt sjf` |
//! | telemetry trace | [`trace::trace`] | `dgsf-expt trace` |
//! | autoscaler load sweep | [`sweep::sweep`] | `dgsf-expt sweep` |
//! | million-invocation scale run | [`scale::scale`] | `dgsf-expt scale` |
//! | multi-tenant fleet sweep | [`fleet::fleet`] | `dgsf-expt fleet` |
//! | tail-latency attribution | [`attrib::attrib`] | `dgsf-expt attribute` |
//! | predictive vs reactive ramp | [`obs::obs`] | `dgsf-expt obs` |
//!
//! `dgsf-expt all` regenerates everything (this is what EXPERIMENTS.md
//! records). `dgsf-expt trace` instead writes telemetry artifacts
//! (`metrics.json` + Chrome `trace.json`) to `--out DIR`.

#![warn(missing_docs)]

pub mod attrib;
pub mod fleet;
pub mod mixed;
pub mod obs;
pub mod pipeline;
pub mod report;
pub mod scale;
pub mod single;
pub mod sweep;
pub mod trace;
