//! The benchmark's checks must count a planted fault as a failed
//! operation, a clean run must fail none, every workload must report
//! exactly the metrics that `BENCHMARK.json` names, and the exact counts
//! must not depend on the seed.

use perfbench::report::Report;
use perfbench::suite::{self, Corruption};
use perfbench::{run_workload, RunConfig, SPEC};

use lsra_server::json_in::{self, JsonValue};

/// The shortest run: `--seconds 0`.
fn short(seed: u64, trace: bool) -> RunConfig {
    RunConfig::new(seed, 0.0, trace)
}

/// Each round plants the fault in one binpack operation; that operation,
/// and no other, must fail, and for the reason `check` names.
fn assert_caught(r: &Report, check: &str) {
    let rounds = r.attempted / 55;
    assert!(rounds >= 1 && r.attempted == rounds * 55, "{r:?}");
    assert_eq!(r.failed, rounds, "{:?}", r.failures);
    for why in &r.failures {
        assert!(
            why.contains("/binpack: ") && why.contains(check),
            "caught by another check: {why}"
        );
    }
}

#[test]
fn a_corrupted_register_operand_is_caught_by_the_symbolic_checker() {
    let r = suite::run(&SPEC, &short(1, false), Corruption::RegOperand).expect("run");
    assert_caught(&r, ": symbolic check: ");
}

#[test]
fn a_flipped_code_byte_is_caught_by_the_native_verifier() {
    let r = suite::run(&SPEC, &short(1, false), Corruption::CodeByte).expect("run");
    assert_caught(&r, ": native verifier: ");
}

fn names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let v = json_in::parse(&text).expect("BENCHMARK.json is JSON");
    v.get(section)
        .and_then(JsonValue::as_array)
        .expect("section")
        .iter()
        .map(|m| m.get("name").and_then(JsonValue::as_str).expect("name").to_string())
        .collect()
}

#[test]
fn short_runs_fail_nothing_and_report_exactly_the_named_metrics() {
    let sorted = |mut v: Vec<String>| {
        v.sort();
        v
    };
    let (e2e, layers) = (sorted(names("end_to_end")), sorted(names("per_layer")));
    for w in ["spec", "scale", "serve"] {
        let r = run_workload(w, &short(3, false)).expect("run");
        assert!(r.correct && r.attempted > 0 && r.failed == 0, "{w}: {r:?}");
        assert!(r.metrics.iter().all(|&(_, v, _)| v.is_finite() && v > 0.0), "{w}: {r:?}");
        assert_eq!(sorted(r.metrics.into_iter().map(|m| m.0).collect()), e2e, "{w}");
        let r = run_workload(w, &short(3, true)).expect("traced run");
        assert!(r.correct && r.failed == 0, "{w} traced: {r:?}");
        assert!(r.metrics.iter().all(|&(_, v, _)| v.is_finite()), "{w} traced: {r:?}");
        assert_eq!(sorted(r.metrics.into_iter().map(|m| m.0).collect()), layers, "{w} traced");
    }
}

#[test]
fn exact_counts_do_not_depend_on_the_seed_or_the_service() {
    // The seed orders the work and shapes the request mix; the programs,
    // and so every count, stay. The service allocates the same programs
    // with the same allocators, so what it returns counts the same too.
    let counts = |workload, seed| {
        let r = run_workload(workload, &short(seed, true)).expect("traced run");
        assert!(r.correct && r.failed == 0, "{workload}: {r:?}");
        let mut v: Vec<_> = r.metrics.into_iter().filter(|m| m.2 == "count").collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    };
    let a = counts("spec", 5);
    assert!(a.iter().any(|m| m.0 == "vm.dyn_insts.binpack"), "{a:?}");
    assert_eq!(a, counts("spec", 6));
    assert_eq!(a, counts("serve", 5));
    assert_eq!(a, counts("serve", 6));
}
