//! Fleet-sweep oracles: byte-determinism of `BENCH_fleet.json` against a
//! committed golden, plus the policy effects the experiment exists to
//! demonstrate — load-aware routing beats round-robin on p99 at and past
//! the saturation knee, per-tenant fair shedding (the `weighted_fair`
//! variant) raises Jain's fairness index over FIFO once both tenants are
//! backlogged, and MQFQ-Sticky fair queueing splits a backlogged fleet
//! evenly between its tenants while cutting the light tenant's
//! queue-delay tail at equal completed demand.

use dgsf_bench::fleet;

fn variant<'a>(
    f: &'a fleet::FleetOutput,
    fleet_policy: &str,
    shedding: &str,
) -> &'a fleet::FleetVariant {
    f.variants
        .iter()
        .find(|v| v.fleet_policy == fleet_policy && v.shedding == shedding)
        .unwrap_or_else(|| panic!("missing variant {fleet_policy}/{shedding}"))
}

#[test]
fn quick_fleet_json_is_byte_deterministic_and_matches_golden() {
    let a = fleet::fleet_json(&fleet::fleet(42, true));
    let b = fleet::fleet_json(&fleet::fleet(42, true));
    assert_eq!(a, b, "same seed must give byte-identical BENCH_fleet.json");
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/goldens/BENCH_fleet_quick.json"
    ))
    .expect("committed golden");
    assert_eq!(
        a, golden,
        "quick fleet sweep drifted from goldens/BENCH_fleet_quick.json; \
         if the change is intentional, regenerate it with \
         `cargo run --release --bin dgsf-expt -- fleet --quick --out goldens` \
         and rename the output"
    );
}

#[test]
fn load_aware_routing_beats_round_robin_p99_at_saturation() {
    let f = fleet::fleet(42, true);
    let rr = variant(&f, "round_robin", "fifo");
    let la = variant(&f, "load_aware", "fifo");
    // points[0] is light load where the routing choice is immaterial; the
    // knee (points[1]) and firm overload (points[2]) are where queue-blind
    // round-robin parks short functions behind the cold tenant's long ones.
    for i in [1, 2] {
        assert!(
            la.points[i].p99_e2e_us < rr.points[i].p99_e2e_us,
            "at {} rps load-aware p99 {}us must beat round-robin {}us",
            rr.points[i].hot_rps_milli as f64 / 1000.0,
            la.points[i].p99_e2e_us,
            rr.points[i].p99_e2e_us,
        );
    }
}

#[test]
fn migration_on_beats_migration_off_on_p99_at_equal_hardware() {
    let f = fleet::fleet(42, true);
    let off = f.migration.iter().find(|m| m.migration == "off").unwrap();
    let on = f.migration.iter().find(|m| m.migration == "on").unwrap();
    assert_eq!(off.migrations, 0, "the off arm must not move anything");
    assert!(
        on.migrations >= 1,
        "the monitor must migrate under the skewed mix"
    );
    assert_eq!(on.completed, off.completed, "same demand, equal hardware");
    assert!(
        on.batch_p99_e2e_us < off.batch_p99_e2e_us,
        "batch p99 must improve with migration: on {}us vs off {}us",
        on.batch_p99_e2e_us,
        off.batch_p99_e2e_us,
    );
    assert!(
        on.p99_e2e_us < off.p99_e2e_us,
        "overall p99 must improve with migration: on {}us vs off {}us",
        on.p99_e2e_us,
        off.p99_e2e_us,
    );
}

#[test]
fn mqfq_raises_jain_and_cuts_the_light_tenant_tail_over_fcfs() {
    let f = fleet::fleet(42, true);
    let arm = |name: &str| {
        f.queueing
            .iter()
            .find(|q| q.arm == name)
            .unwrap_or_else(|| panic!("missing queueing arm {name}"))
    };
    let fcfs = arm("fcfs");
    let mqfq = arm("mqfq");
    let sticky = arm("mqfq_sticky");
    // No admission cap, so every arm serves the identical demand — the
    // disciplines reorder service, they never shed it.
    assert_eq!(mqfq.completed, fcfs.completed, "equal completed demand");
    assert_eq!(sticky.completed, fcfs.completed, "equal completed demand");
    // With both tenants backlogged past their half share, FCFS serves in
    // proportion to offered load while MQFQ splits the horizon evenly.
    assert!(
        mqfq.jain_served_permille > fcfs.jain_served_permille,
        "MQFQ Jain {} must exceed FCFS {}",
        mqfq.jain_served_permille,
        fcfs.jain_served_permille,
    );
    assert!(
        sticky.jain_served_permille > fcfs.jain_served_permille,
        "MQFQ-Sticky Jain {} must exceed FCFS {}",
        sticky.jain_served_permille,
        fcfs.jain_served_permille,
    );
    // The light tenant's short functions no longer queue behind heavy
    // convoys, so its queue-delay tail collapses.
    assert!(
        mqfq.light.p99_queue_delay_us < fcfs.light.p99_queue_delay_us,
        "MQFQ light p99 queue delay {}us must beat FCFS {}us",
        mqfq.light.p99_queue_delay_us,
        fcfs.light.p99_queue_delay_us,
    );
    // Sticky placement bounds each tenant to max-share (half the 2-server
    // fleet); without it both tenants touch every server.
    assert_eq!(
        fcfs.heavy.servers_touched, 2,
        "FCFS spreads the heavy tenant"
    );
    assert!(
        sticky.heavy.servers_touched <= 1 && sticky.light.servers_touched <= 1,
        "sticky must confine each tenant to half the fleet: heavy {} light {}",
        sticky.heavy.servers_touched,
        sticky.light.servers_touched,
    );
}

#[test]
fn weighted_fair_shedding_raises_jain_index_over_fifo() {
    let f = fleet::fleet(42, true);
    for routing in ["round_robin", "load_aware"] {
        let fifo = variant(&f, routing, "fifo");
        let fair = variant(&f, routing, "weighted_fair");
        for i in [1, 2] {
            assert!(
                fair.points[i].jain_permille > fifo.points[i].jain_permille,
                "{routing} at {} rps: weighted-fair Jain {} must exceed FIFO {}",
                fifo.points[i].hot_rps_milli as f64 / 1000.0,
                fair.points[i].jain_permille,
                fifo.points[i].jain_permille,
            );
            // Fairness must never come at the cold tenant's expense: its
            // goodput holds or improves under fair shedding.
            assert!(
                fair.points[i].cold.goodput_rps_milli >= fifo.points[i].cold.goodput_rps_milli,
                "{routing}: weighted fair must not lower the cold tenant's goodput"
            );
        }
    }
}
