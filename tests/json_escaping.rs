//! Tenant names reach the JSON artifacts verbatim from the public API, so
//! every exporter must escape them: a tenant named `a"b\c` has to come out
//! as the JSON string `"a\"b\\c"` in the obs dashboard and in both
//! attribution artifacts.

use std::sync::Arc;

use dgsf::prelude::*;
use dgsf::sim::trace::{assemble, attribute, slo_burn, SloPolicy};
use dgsf_bench::attrib::{attrib_json, traces_json, AttribOutput};

const TENANT: &str = "a\"b\\c";
const ESCAPED: &str = r#""a\"b\\c""#;

/// The artifact carries the tenant escaped, and never as a raw literal.
fn assert_escaped(artifact: &str, json: &str) {
    assert!(
        json.contains(ESCAPED),
        "{artifact} must carry the tenant as {ESCAPED}:\n{json}"
    );
    assert!(
        !json.contains(&format!("\"{TENANT}\"")),
        "{artifact} leaks the raw tenant name:\n{json}"
    );
}

#[test]
fn tenant_names_are_escaped_in_every_artifact() {
    let cfg = PlatformConfig::paper_default()
        .with_seed(7)
        .with_server(GpuServerConfig::paper_default().gpus(1))
        .with_obs(ObsConfig::paper_default().with_window(Dur::from_millis(500)));
    let suite: Vec<Arc<dyn Workload>> = vec![Arc::new(Tenanted::new(
        TENANT,
        Spin {
            gpu_secs: 0.2,
            ..Spin::default()
        },
    ))];
    let schedule = Schedule::mixed(
        7,
        1,
        6,
        ArrivalPattern::Exponential {
            mean: Dur::from_millis(300),
        },
    );
    let (out, tel) = Testbed::run_platform_schedule_traced(&cfg, &suite, &schedule);

    let report = out.obs.expect("obs plane configured");
    assert!(
        report.tenants.iter().any(|t| t.tenant == TENANT),
        "the dashboard must have a row for the tenant"
    );
    assert_escaped("dashboard.json", &report.dashboard_json());

    let trees = assemble(&tel);
    let a = AttribOutput {
        seed: 7,
        window_secs: 2,
        launched: out.results.len() as u64,
        completed: 0,
        shed: 0,
        failed: 0,
        queue_depth_min: 0,
        queue_depth_peak: 0,
        queue_depth_mean: 0,
        groups: attribute(&trees, 2),
        slo: slo_burn(
            &trees,
            &SloPolicy {
                target_e2e: Dur::from_secs(1),
                error_budget_permille: 100,
            },
        ),
        trees,
    };
    assert_escaped("BENCH_attrib.json", &attrib_json(&a));
    assert_escaped("attrib_traces.json", &traces_json(&a));
}
