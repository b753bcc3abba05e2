//! Every workload, untraced and traced, at smoke scale: the output
//! checks pass, the cross-executor comparisons hold (engine vs sharded
//! replayer on the churn workload, socket plane vs `replay_parallel` on
//! the serve workload, which succeeds at this size), and the traced run
//! reports the whole per-layer block.

use starcdn_bench::Scale;
use starcdn_perfbench::workloads::{self, PER_LAYER, WORKLOADS};
use starcdn_perfbench::Opts;

fn opts(trace: bool) -> Opts {
    Opts { seed: 11, seconds: 0.0, trace, scale: Scale::Smoke, threads: 2 }
}

const END_TO_END: [&str; 7] = [
    "setup_s",
    "req_per_s",
    "peak_rss_mb",
    "hit_rate",
    "uplink_frac",
    "sim_latency_p50_ms",
    "sim_latency_p999_ms",
];

#[test]
fn every_workload_is_correct_and_complete() {
    for name in WORKLOADS {
        for trace in [false, true] {
            let out = workloads::run(name, &opts(trace)).expect("known workload");
            assert!(out.check_failures.is_empty(), "{name}: {:?}", out.check_failures);
            assert_eq!(out.failed, 0, "{name}: {:?}", out.notes);
            assert!(out.attempted > 0);
            let names: Vec<&str> = out.end_to_end.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END, "{name}");
            assert!(out.end_to_end.iter().all(|m| m.value.is_finite() && m.value > 0.0), "{name}");
            if trace {
                let layers: Vec<&str> = out.per_layer.iter().map(|m| m.name).collect();
                let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
                assert_eq!(layers, want, "{name}");
            } else {
                assert!(out.per_layer.is_empty());
            }
        }
    }
}

#[test]
fn unknown_workload_is_rejected() {
    assert!(workloads::run("nope", &opts(false)).is_none());
}

/// `BENCHMARK.json` at the repository root names exactly the metrics
/// this program reports, with the same units.
#[test]
fn benchmark_json_matches_the_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let entry = |name: &str, unit: &str| format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
    for (name, unit) in PER_LAYER {
        assert!(json.contains(&entry(name, unit)), "per-layer {name} ({unit}) missing");
    }
    for name in END_TO_END {
        assert!(json.contains(&format!("{{\"name\": \"{name}\"")), "end-to-end {name} missing");
    }
    let listed = json.matches("\"better\"").count();
    assert_eq!(listed, PER_LAYER.len() + END_TO_END.len(), "metrics the program does not report");
    let listed_workloads = json
        .split("{\"name\": \"")
        .filter_map(|rest| rest.split_once("\", \"why\"").map(|(name, _)| name));
    for name in listed_workloads {
        assert!(WORKLOADS.contains(&name), "workload {name} is not runnable");
    }
}
