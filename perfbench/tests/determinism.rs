//! The virtual plane repeats exactly for a seed, traced or not, and the
//! seed really drives the schedules.

use perfbench::{
    fleet_chaos, run, serve_mix, Metric, Outcome, Plan, Workload, END_TO_END, PER_LAYER,
};

/// A short plan: two blocks of ops, one set-up.
fn short(workload: Workload, trace: bool) -> Plan {
    Plan {
        seconds: 0.0,
        ops: match workload {
            Workload::SsbFlight => 26,
            _ => 4,
        },
        setup_reps: 1,
        setup_seconds: 0.0,
        trace,
    }
}

/// The virtual metrics and per-layer counts, bit for bit.
fn fingerprint(outcome: &Outcome) -> Vec<(&'static str, u64)> {
    outcome
        .virt
        .iter()
        .chain(&outcome.counts)
        .map(|m: &Metric| (m.name, m.value.to_bits()))
        .collect()
}

#[test]
fn same_seed_repeats_counts_and_virtual_metrics_traced_or_not() {
    for workload in Workload::ALL {
        let first = run(workload, 7, short(workload, false)).expect("untraced run");
        let again = run(workload, 7, short(workload, false)).expect("second untraced run");
        let traced = run(workload, 7, short(workload, true)).expect("traced run");
        for outcome in [&first, &again, &traced] {
            assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        }
        let print = fingerprint(&first);
        assert!(
            print.iter().any(|&(_, bits)| bits != 0),
            "{} counted nothing",
            workload.name()
        );
        assert_eq!(
            print,
            fingerprint(&again),
            "{}: untraced runs differ",
            workload.name()
        );
        assert_eq!(
            print,
            fingerprint(&traced),
            "{}: tracing moved the virtual plane",
            workload.name()
        );
        assert!(traced.tracer.spans().len() > first.tracer.spans().len());
        assert!(first.tracer.spans().is_empty());
    }
}

#[test]
fn another_seed_changes_the_schedules() {
    let hz = 100.0;
    assert_eq!(
        serve_mix::epoch_plan(1, 3, hz),
        serve_mix::epoch_plan(1, 3, hz)
    );
    assert_ne!(
        serve_mix::epoch_plan(1, 3, hz).jobs(),
        serve_mix::epoch_plan(2, 3, hz).jobs()
    );
    assert_eq!(
        fleet_chaos::chaos_schedule(1, 3, 0.2),
        fleet_chaos::chaos_schedule(1, 3, 0.2)
    );
    assert_ne!(
        fleet_chaos::chaos_schedule(1, 3, 0.2),
        fleet_chaos::chaos_schedule(2, 3, 0.2)
    );
    assert_ne!(
        fleet_chaos::gray_config(1, 3, 0.2),
        fleet_chaos::gray_config(2, 3, 0.2)
    );
}

/// Every `"name"` and every `"unit"` of `BENCHMARK.json`, in file order.
fn listed(json: &str, key: &str) -> Vec<String> {
    let pattern = format!("\"{key}\":");
    json.split(&pattern)
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let metrics = END_TO_END.iter().chain(&PER_LAYER);
    let names: Vec<&str> = workloads
        .iter()
        .copied()
        .chain(metrics.clone().map(|&(name, _)| name))
        .collect();
    let units: Vec<&str> = metrics.map(|&(_, unit)| unit).collect();
    assert_eq!(listed(&json, "name"), names);
    assert_eq!(listed(&json, "unit"), units);
}
