//! `starcdn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its provenance and every metric by name
//! and unit, then, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end block, with `--trace 1` the per-layer one.
//! Exits 2 on a bad command line.

use starcdn_bench::Scale;
use starcdn_perfbench::workloads::{self, WORKLOADS};
use starcdn_perfbench::{Metric, Opts};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: starcdn-perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = Opts {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        scale: Scale::Default,
        threads,
    };
    let out = workloads::run(&workload, &opts)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload}")));

    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "workload={workload} seed={} hardware_threads={threads} requests={} trace={}",
        opts.seed, out.attempted, opts.trace as u8
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    for failure in &out.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    let failed = Metric { name: "failed_frac", value: failed_frac, unit: "frac" };
    let printed = out.end_to_end.iter().chain([&failed]);
    for m in printed.chain(if opts.trace { &out.per_layer[..] } else { &[] }) {
        println!("{:<32} {:>20} {}", m.name, fmt(m.value), m.unit);
    }
    let metrics = if opts.trace { &out.per_layer } else { &out.end_to_end };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check_failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.iter().map(json_metric).collect::<Vec<_>>().join(", ")
    );
}

/// A finite number with all its digits; non-finite values (a ratio over
/// an empty sample) print as 0 so the line stays valid JSON.
fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_metric(m: &Metric) -> String {
    format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, fmt(m.value), m.unit)
}
