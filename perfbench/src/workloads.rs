//! The three workloads. Each builds its inputs from the seed (set-up,
//! timed several times), warms up once, then times its pipeline — from
//! the generated trace to the final merged metrics — until the requested
//! seconds have been measured, checking every iteration's output. A
//! traced run then repeats the pipeline once inside spans and runs the
//! per-layer probes of [`crate::layers`].

use crate::layers::{self, Setup, EPOCH_SECS};
use crate::tracer::Tracer;
use crate::{
    median, metrics_heap_bytes, peak_rss_mb, process_cpu_secs, sim_metrics, Opts, Outcome,
};
use spacegen::classes::TrafficClass;
use starcdn::config::{DelayedHitConfig, StarCdnConfig};
use starcdn::metrics::SystemMetrics;
use starcdn::system::SpaceCdn;
use starcdn_bench::workload::cache_bytes_for_gb;
use starcdn_constellation::schedule::ChurnParams;
use starcdn_io::RealIo;
use starcdn_net::{serve_replay, NetError, RealNet, ServeConfig, MAX_FRAME_LEN};
use starcdn_sim::engine::SimConfig;
use starcdn_sim::scheduler::SchedulerConfig;
use starcdn_sim::{
    build_access_log_columns_parallel, list_checkpoint_files, metrics_digest, replay_parallel,
    replay_parallel_checkpointed_io, replay_parallel_overloaded, replay_parallel_with_faults,
    run_space_columns, run_space_overloaded, validate_checkpoint_bytes, CheckpointPolicy,
    OverloadConfig, ServePlan,
};
use starcdn_telemetry::{Counter, MemoryRecorder, Noop};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["paper_relay", "churn_overload_sharded", "serve_web_tcp"];

/// Set-up builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Consistent-hashing buckets of the paper's StarCDN configuration.
const BUCKETS: u32 = 9;
/// Ops per encoded shard batch on the sharded and socket paths.
const BATCH_OPS: usize = 64;
/// Checkpoints the fault workload writes per run: every 720 epochs (3 h)
/// of the default-scale 24 h trace.
const CHECKPOINTS_PER_RUN: u64 = 8;
/// Wall-clock bound on one socket serve. A successful default-scale
/// serve takes seconds; this bounds the run when the serve fails.
const SERVE_DEADLINE: Duration = Duration::from_secs(20);

/// Run the named workload, or `None` for an unknown name.
pub fn run(name: &str, opts: &Opts) -> Option<Outcome> {
    match name {
        "paper_relay" => Some(paper_relay(opts)),
        "churn_overload_sharded" => Some(churn_overload_sharded(opts)),
        "serve_web_tcp" => Some(serve_web_tcp(opts)),
        _ => None,
    }
}

fn scheduler_cfg(opts: &Opts) -> SchedulerConfig {
    SimConfig { seed: opts.seed, ..SimConfig::default() }.scheduler()
}

/// Build the set-up `SETUP_REPS` times and return the last build with
/// the median build time. The last build runs under the traced root.
fn timed_setup(
    class: TrafficClass,
    churn: Option<ChurnParams>,
    opts: &Opts,
    tr: &Tracer,
) -> (Setup, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let s = if rep + 1 == SETUP_REPS {
            tr.span("traced", || layers::setup(class, churn, opts, tr))
        } else {
            layers::setup(class, churn, opts, &Tracer::new(false))
        };
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Run `pipeline` once untimed (warm-up), then timed until
/// `opts.seconds` of timed runs have accumulated (at least one). A traced
/// run times one run only: it reports no end-to-end numbers, and its
/// per-layer probes already take longer than the timed runs would.
/// `each` checks every result, the warm-up's first. Returns the timed
/// walls, seconds.
fn timed_iterations<T>(
    opts: &Opts,
    mut pipeline: impl FnMut() -> T,
    mut each: impl FnMut(T),
) -> Vec<f64> {
    let seconds = if opts.trace { 0.0 } else { opts.seconds };
    each(pipeline());
    let mut times = Vec::new();
    while times.is_empty() || times.iter().sum::<f64>() < seconds {
        let t = Instant::now();
        let r = pipeline();
        times.push(t.elapsed().as_secs_f64());
        each(r);
    }
    times
}

/// The timed walls, for the provenance line.
fn walls(times: &[f64]) -> String {
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    format!("walls_s=[{}]", shown.join(","))
}

/// Tracks the first result's digest and flags any later result that
/// differs: the pipeline is deterministic for a fixed seed.
#[derive(Default)]
struct Repeat {
    first: Option<(u64, SystemMetrics)>,
    diverged: bool,
}

impl Repeat {
    fn see(&mut self, m: SystemMetrics) {
        let d = metrics_digest(&m);
        match &self.first {
            None => self.first = Some((d, m)),
            Some((d0, _)) => self.diverged |= d != *d0,
        }
    }
}

/// Every request is served exactly once: local + relay + ground equals
/// the requests accounted, which with the dropped ones equals the log.
fn check_conservation(out: &mut Outcome, m: &SystemMetrics, n: u64) {
    let served = m.served_local + m.served_relay_west + m.served_relay_east + m.served_ground;
    out.check(
        served == m.stats.requests,
        format!("served {served} != accounted requests {}", m.stats.requests),
    );
    out.check(
        m.stats.requests + m.dropped_requests == n,
        format!("accounted {} + dropped {} != log {n}", m.stats.requests, m.dropped_requests),
    );
    out.check(m.stats.hits <= m.stats.requests, "hits exceed requests");
    out.check(
        m.latencies_ms.len() as u64 == m.stats.requests,
        "one latency sample per accounted request",
    );
}

/// Engine and sharded replayer agree on the same log: counters exactly,
/// latency samples as a multiset of bit patterns (shards merge in shard
/// order, so sample order differs).
fn same_as_engine(engine: &SystemMetrics, sharded: &SystemMetrics) -> bool {
    let sorted_bits = |m: &SystemMetrics| {
        let mut b: Vec<u64> = m.latencies_ms.iter().map(|l| l.to_bits()).collect();
        b.sort_unstable();
        b
    };
    engine.stats == sharded.stats
        && engine.uplink_bytes == sharded.uplink_bytes
        && engine.per_satellite == sharded.per_satellite
        && engine.remapped_requests == sharded.remapped_requests
        && engine.cold_restart_misses == sharded.cold_restart_misses
        && engine.shed_requests == sharded.shed_requests
        && engine.retry_attempts == sharded.retry_attempts
        && engine.served_origin_fallback == sharded.served_origin_fallback
        && engine.dropped_requests == sharded.dropped_requests
        && engine.delayed_hits == sharded.delayed_hits
        && engine.coalesced_requests == sharded.coalesced_requests
        && engine.availability == sharded.availability
        && sorted_bits(engine) == sorted_bits(sharded)
}

/// The end-to-end block shared by every workload.
fn end_to_end(out: &mut Outcome, setup_s: f64, served: u64, times: &[f64], m: &SystemMetrics) {
    out.e2e("setup_s", setup_s, "s");
    out.e2e("req_per_s", served as f64 / median(times), "1/s");
    out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    sim_metrics(out, m);
}

/// Per-layer metrics read off the tracer, plus the tracing cost: the
/// traced pipeline against the median untraced one, and the traced
/// root's share no layer span covers.
fn traced_layers(out: &mut Outcome, tr: &Tracer, traced_wall: f64, untraced: &[f64]) {
    for (name, span) in [
        ("spacegen.model_build_s", "spacegen.model_build"),
        ("spacegen.trace_gen_s", "spacegen.trace_gen"),
        ("orbit.propagate_s", "orbit.propagate"),
        ("orbit.visibility_s", "orbit.visibility"),
        ("scheduler.schedule_s", "scheduler.schedule"),
        ("log.build_s", "log.build"),
        ("log.to_rows_s", "log.to_rows"),
        ("route.resolve_s", "route.resolve"),
        ("route.resolve_faulted_s", "route.resolve_faulted"),
        ("cache.access_s", "cache.access"),
        ("replayer.prepass_s", "replayer.prepass"),
        ("replayer.replay_s", "replayer.replay"),
        ("net.plan_build_s", "net.plan_build"),
        ("net.codec_s", "net.codec"),
        ("net.serve_s", "net.serve"),
    ] {
        out.layer(name, tr.self_secs(span), "s");
    }
    out.layer("trace.overhead_frac", traced_wall / median(untraced) - 1.0, "frac");
    out.layer("trace.unattributed_frac", tr.unattributed_frac("traced"), "frac");
}

/// Every per-layer metric the benchmark defines, with its unit. A layer
/// that does no work on a workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("spacegen.model_build_s", "s"),
    ("spacegen.trace_gen_s", "s"),
    ("orbit.propagate_s", "s"),
    ("orbit.visibility_s", "s"),
    ("scheduler.schedule_s", "s"),
    ("log.build_s", "s"),
    ("log.to_rows_s", "s"),
    ("route.resolve_s", "s"),
    ("route.resolve_faulted_s", "s"),
    ("route.remapped", "count"),
    ("route.partitioned", "count"),
    ("cache.access_s", "s"),
    ("cache.hit_ratio", "frac"),
    ("cache.coalesced", "count"),
    ("relay.served", "count"),
    ("relay.useful_frac", "frac"),
    ("relay.cost_s", "s"),
    ("engine.replay_s", "s"),
    ("engine.beyond_route_ns_per_req", "ns"),
    ("metrics.latency_samples", "count"),
    ("metrics.heap_bytes", "bytes"),
    ("overload.retries", "count"),
    ("overload.fallbacks", "count"),
    ("overload.shed", "count"),
    ("overload.dropped", "count"),
    ("overload.cost_s", "s"),
    ("replayer.prepass_s", "s"),
    ("replayer.replay_s", "s"),
    ("replayer.shard_skew", "ratio"),
    ("replayer.cpu_util", "ratio"),
    ("replayer.speedup_vs_engine", "ratio"),
    ("checkpoint.count", "count"),
    ("checkpoint.newest_bytes", "bytes"),
    ("checkpoint.cost_s", "s"),
    ("checkpoint.decode_s", "s"),
    ("net.plan_build_s", "s"),
    ("net.codec_s", "s"),
    ("net.frames", "count"),
    ("net.wire_bytes", "bytes"),
    ("net.serve_s", "s"),
    ("net.frames_resent", "count"),
    ("net.timeouts", "count"),
    ("net.reconnects", "count"),
    ("net.degraded_requests", "count"),
    ("net.drain_bytes_max", "bytes"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

/// Order the per-layer block as [`PER_LAYER`], adding 0 for every
/// metric whose layer the workload does not exercise.
fn complete_layers(out: &mut Outcome) {
    let reported = std::mem::take(&mut out.per_layer);
    for (name, unit) in PER_LAYER {
        let value = reported.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        out.layer(name, value, unit);
    }
}

/// Counters of a finished replay that the per-layer block reports.
fn metrics_layers(out: &mut Outcome, m: &SystemMetrics) {
    out.layer("cache.coalesced", m.coalesced_requests as f64, "count");
    out.layer("metrics.latency_samples", m.latencies_ms.len() as f64, "count");
    out.layer("metrics.heap_bytes", metrics_heap_bytes(m), "bytes");
}

/// The paper's published StarCDN configuration on the Video trace: nine
/// buckets, 50 GB caches, west and east relay, columnar log built with
/// every hardware thread, replayed by the engine.
pub fn paper_relay(opts: &Opts) -> Outcome {
    let tr = Tracer::new(opts.trace);
    let off = Tracer::new(false);
    let mut out = Outcome::default();
    let (s, setup_s) = timed_setup(TrafficClass::Video, None, opts, &tr);
    let n = s.trace.len() as u64;
    out.attempted = n;
    let cfg = StarCdnConfig::starcdn(BUCKETS, cache_bytes_for_gb(50, s.working_set));
    let sched = scheduler_cfg(opts);
    let pipeline = |tr: &Tracer| {
        let cols = tr.span("log.build", || {
            build_access_log_columns_parallel(&s.world, &s.trace, EPOCH_SECS, &sched, opts.threads)
        });
        let mut cdn = SpaceCdn::new(cfg.clone());
        let m = tr.span("engine.replay", || run_space_columns(&mut cdn, &cols));
        (cols, m)
    };
    let mut repeat = Repeat::default();
    let times = timed_iterations(opts, || pipeline(&off), |(_, m)| repeat.see(m));
    out.check(!repeat.diverged, "paper_relay: a repeated pipeline changed the metrics digest");
    let (digest, m) = repeat.first.take().expect("warm-up result");
    check_conservation(&mut out, &m, n);
    out.check(m.served_relay_west + m.served_relay_east > 0, "relay served nothing");
    end_to_end(&mut out, setup_s, m.stats.requests, &times, &m);
    out.notes.push(format!("iterations={} digest={digest:016x} {}", times.len(), walls(&times)));

    if opts.trace {
        let t = Instant::now();
        let (cols, traced) = tr.span("traced", || pipeline(&tr));
        let traced_wall = t.elapsed().as_secs_f64();
        out.check(metrics_digest(&traced) == digest, "tracing changed the metrics");
        drop(traced);
        layers::orbit_and_schedule(&s.world, &s.trace, &sched, &tr);
        let routes = layers::resolve_routes(&cfg, &cols, None, "route.resolve", &tr);
        let (hits, accesses) = layers::cache_access(&cfg, &cols, &routes.owners, &tr);
        drop(routes);
        let no_relay = StarCdnConfig::starcdn_no_relay(BUCKETS, cfg.cache_capacity_bytes);
        tr.span("relay.off", || run_space_columns(&mut SpaceCdn::new(no_relay), &cols));
        traced_layers(&mut out, &tr, traced_wall, &times);
        let replay = tr.total_secs("engine.replay");
        let route = tr.total_secs("route.resolve");
        let relay_served = m.served_relay_west + m.served_relay_east;
        let local_misses = m.stats.requests - m.served_local;
        out.layer("engine.replay_s", replay, "s");
        out.layer("engine.beyond_route_ns_per_req", (replay - route) / n as f64 * 1e9, "ns");
        out.layer("cache.hit_ratio", hits as f64 / accesses.max(1) as f64, "frac");
        out.layer("relay.served", relay_served as f64, "count");
        out.layer("relay.useful_frac", relay_served as f64 / local_misses.max(1) as f64, "frac");
        out.layer("relay.cost_s", replay - tr.total_secs("relay.off"), "s");
        metrics_layers(&mut out, &m);
        complete_layers(&mut out);
    }
    out
}

/// A fresh directory for one checkpointed replay, inside the working
/// directory (the benchmark writes nowhere else).
fn checkpoint_dir(iteration: usize) -> PathBuf {
    PathBuf::from(".bench_tmp").join(format!("ckpt-{}-{iteration}", std::process::id()))
}

/// Seeded satellite churn, capacity overload and delayed hits on the
/// Video trace, no relay, 10 GB caches: the sharded checkpointed
/// replayer with every hardware thread.
pub fn churn_overload_sharded(opts: &Opts) -> Outcome {
    let tr = Tracer::new(opts.trace);
    let off = Tracer::new(false);
    let mut out = Outcome::default();
    let (s, setup_s) =
        timed_setup(TrafficClass::Video, Some(layers::churn_params(opts)), opts, &tr);
    let n = s.trace.len() as u64;
    out.attempted = n;
    let cfg = StarCdnConfig::starcdn_no_relay(BUCKETS, cache_bytes_for_gb(10, s.working_set))
        .with_delayed_hits(DelayedHitConfig::with_latency(2, 20.0).with_origin_tiers(3));
    let overload = OverloadConfig::with_headroom(0.5);
    let schedule = &s.world.schedule;
    let failures = &s.world.failures;
    let sched = scheduler_cfg(opts);
    let every_n_epochs =
        (opts.scale.trace_hours() * 3600 / EPOCH_SECS / CHECKPOINTS_PER_RUN).max(1);
    let mut iteration = 0usize;
    // One pipeline run: log build, row conversion (the sharded API takes
    // rows), checkpointed sharded replay into a fresh directory. Returns
    // the row log, the replay's result, its directory and CPU share.
    let mut pipeline = |tr: &Tracer| {
        iteration += 1;
        let dir = checkpoint_dir(iteration);
        let cols = tr.span("log.build", || {
            build_access_log_columns_parallel(&s.world, &s.trace, EPOCH_SECS, &sched, opts.threads)
        });
        let log = tr.span("log.to_rows", || cols.to_log());
        drop(cols);
        let policy = CheckpointPolicy { every_n_epochs, dir: dir.clone(), keep_last: 3 };
        let (cpu0, t0) = (process_cpu_secs(), Instant::now());
        let m = tr.span("replayer.replay", || {
            replay_parallel_checkpointed_io(
                cfg.clone(),
                failures.clone(),
                &log,
                schedule,
                opts.threads,
                &overload,
                &policy,
                &Noop,
                &RealIo,
            )
        });
        let cpu_util = (process_cpu_secs() - cpu0) / t0.elapsed().as_secs_f64();
        (log, m, dir, cpu_util)
    };
    let mut repeat = Repeat::default();
    let mut errors = Vec::new();
    let mut checkpoint_ok = true;
    let mut parity = None;
    let times = timed_iterations(
        opts,
        || pipeline(&off),
        |(log, m, dir, _)| {
            checkpoint_ok &= newest_checkpoint(&dir)
                .is_some_and(|(_, bytes)| validate_checkpoint_bytes(&bytes).is_ok());
            let _ = std::fs::remove_dir_all(&dir);
            match m {
                Ok(m) => {
                    // The traced run replays the first log through the
                    // engine once: the cross-executor check and the
                    // `engine.replay` span. Untraced runs skip it (it
                    // costs more than a pipeline run); the smoke tests
                    // run it too.
                    if opts.trace && parity.is_none() {
                        let engine = tr.span("engine.replay", || {
                            let mut cdn = SpaceCdn::new(cfg.clone());
                            run_space_overloaded(&mut cdn, &log, schedule, &overload)
                        });
                        parity = Some(same_as_engine(&engine, &m));
                    }
                    repeat.see(m)
                }
                Err(e) => errors.push(format!("{e:?}")),
            }
        },
    );
    out.check(parity != Some(false), "sharded replayer diverged from the engine on the same log");
    out.check(!repeat.diverged, "churn: a repeated pipeline changed the metrics digest");
    out.check(checkpoint_ok, "churn: newest checkpoint missing or invalid");
    if !errors.is_empty() {
        out.failed = n;
        out.notes.push(format!("replay errors: {}", errors.join("; ")));
    }
    let (digest, m) = repeat.first.take().unwrap_or_default();
    if out.failed == 0 {
        check_conservation(&mut out, &m, n);
        out.check(!m.utilization.is_empty(), "capacity ledger never ran");
        out.check(m.cold_restart_misses > 0, "churn never restarted a cache");
    }
    end_to_end(&mut out, setup_s, m.stats.requests, &times, &m);
    out.notes.push(format!("iterations={} digest={digest:016x} {}", times.len(), walls(&times)));

    if opts.trace {
        let t = Instant::now();
        let (log, traced, dir, cpu_util) = tr.span("traced", || pipeline(&tr));
        let traced_wall = t.elapsed().as_secs_f64();
        let traced = traced.unwrap_or_default();
        out.check(metrics_digest(&traced) == digest, "tracing changed the metrics");
        drop(traced);
        let files = list_checkpoint_files(&dir);
        let newest = newest_checkpoint(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        if let Some((len, bytes)) = newest {
            out.check(
                tr.span("checkpoint.decode", || validate_checkpoint_bytes(&bytes)).is_ok(),
                "newest checkpoint does not decode",
            );
            out.layer("checkpoint.newest_bytes", len as f64, "bytes");
        }
        out.layer("checkpoint.count", files.len() as f64, "count");

        layers::orbit_and_schedule(&s.world, &s.trace, &sched, &tr);
        let cols = starcdn_sim::AccessLogColumns::from_log(&log);
        let routes =
            layers::resolve_routes(&cfg, &cols, Some(schedule), "route.resolve_faulted", &tr);
        let (hits, accesses) = layers::cache_access(&cfg, &cols, &routes.owners, &tr);
        drop(cols);
        tr.span("replayer.plain", || {
            replay_parallel_overloaded(
                cfg.clone(),
                failures.clone(),
                &log,
                schedule,
                opts.threads,
                &overload,
            )
        });
        tr.span("replayer.no_overload", || {
            replay_parallel_with_faults(cfg.clone(), failures.clone(), &log, schedule, opts.threads)
        });
        let plan = tr.span("replayer.prepass", || {
            ServePlan::build(
                &cfg,
                failures,
                &log,
                Some(schedule),
                Some(&overload),
                opts.threads,
                BATCH_OPS,
                &Noop,
            )
        });
        if let Ok(plan) = &plan {
            let ops: Vec<f64> = (0..plan.num_shards()).map(|k| plan.op_count(k) as f64).collect();
            let mean = ops.iter().sum::<f64>() / ops.len() as f64;
            out.layer(
                "replayer.shard_skew",
                ops.iter().cloned().fold(0.0, f64::max) / mean,
                "ratio",
            );
        }
        traced_layers(&mut out, &tr, traced_wall, &times);
        let plain = tr.total_secs("replayer.plain");
        let engine_s = tr.total_secs("engine.replay");
        out.layer("engine.replay_s", engine_s, "s");
        out.layer(
            "engine.beyond_route_ns_per_req",
            (engine_s - tr.total_secs("route.resolve_faulted")) / n as f64 * 1e9,
            "ns",
        );
        out.layer("route.remapped", routes.remapped as f64, "count");
        out.layer("route.partitioned", routes.partitioned as f64, "count");
        out.layer("cache.hit_ratio", hits as f64 / accesses.max(1) as f64, "frac");
        out.layer("overload.retries", m.retry_attempts as f64, "count");
        out.layer("overload.fallbacks", m.served_origin_fallback as f64, "count");
        out.layer("overload.shed", m.shed_requests as f64, "count");
        out.layer("overload.dropped", m.dropped_requests as f64, "count");
        out.layer("overload.cost_s", plain - tr.total_secs("replayer.no_overload"), "s");
        out.layer("replayer.cpu_util", cpu_util, "ratio");
        out.layer("replayer.speedup_vs_engine", engine_s / plain, "ratio");
        out.layer("checkpoint.cost_s", tr.total_secs("replayer.replay") - plain, "s");
        out.layer("checkpoint.decode_s", tr.total_secs("checkpoint.decode"), "s");
        metrics_layers(&mut out, &m);
        complete_layers(&mut out);
    }
    out
}

/// Size and bytes of the newest checkpoint file in `dir`.
fn newest_checkpoint(dir: &std::path::Path) -> Option<(u64, Vec<u8>)> {
    let (_, path) = list_checkpoint_files(dir).pop()?;
    let bytes = std::fs::read(path).ok()?;
    Some((bytes.len() as u64, bytes))
}

/// What one socket serve left behind.
struct Served {
    log: starcdn_sim::AccessLog,
    plan: Option<ServePlan>,
    result: Result<starcdn_net::ServeReport, String>,
    rec: MemoryRecorder,
}

/// The Web trace over the socket serving plane: no relay, 50 GB caches,
/// `threads - 1` shard servers plus the router over loopback TCP.
pub fn serve_web_tcp(opts: &Opts) -> Outcome {
    let tr = Tracer::new(opts.trace);
    let off = Tracer::new(false);
    let mut out = Outcome::default();
    let (s, setup_s) = timed_setup(TrafficClass::Web, None, opts, &tr);
    let n = s.trace.len() as u64;
    out.attempted = n;
    let cfg = StarCdnConfig::starcdn_no_relay(BUCKETS, cache_bytes_for_gb(50, s.working_set));
    let shards = opts.threads.saturating_sub(1).max(1);
    let scfg = ServeConfig { overall_deadline: SERVE_DEADLINE, ..ServeConfig::default() };
    let sched = scheduler_cfg(opts);
    let failures = &s.world.failures;
    let pipeline = |tr: &Tracer| {
        let cols = tr.span("log.build", || {
            build_access_log_columns_parallel(&s.world, &s.trace, EPOCH_SECS, &sched, opts.threads)
        });
        let log = tr.span("log.to_rows", || cols.to_log());
        drop(cols);
        let rec = MemoryRecorder::new();
        let plan = tr.span("net.plan_build", || {
            ServePlan::build(&cfg, failures, &log, None, None, shards, BATCH_OPS, &Noop)
        });
        let (plan, result) = match plan {
            Ok(plan) => {
                let r = tr.span("net.serve", || serve_replay(&RealNet, &plan, &scfg, &rec));
                (Some(plan), r.map_err(|e: NetError| e.to_string()))
            }
            Err(e) => (None, Err(e.to_string())),
        };
        Served { log, plan, result, rec }
    };
    let mut repeat = Repeat::default();
    let mut errors: Vec<String> = Vec::new();
    let mut reference: Option<u64> = None;
    let mut diverged = false;
    let mut degraded = 0u64;
    let times = timed_iterations(
        opts,
        || pipeline(&off),
        |r| match r.result {
            Ok(report) => {
                // The socket plane must reproduce the in-process sharded
                // replayer bit for bit at the same shard count.
                let want = *reference.get_or_insert_with(|| {
                    metrics_digest(&replay_parallel(cfg.clone(), failures.clone(), &r.log, shards))
                });
                diverged |= metrics_digest(&report.metrics) != want;
                degraded = degraded.max(report.stats.degraded_requests);
                repeat.see(report.metrics);
            }
            Err(e) => errors.push(e),
        },
    );
    out.check(!repeat.diverged, "serve: a repeated pipeline changed the metrics digest");
    out.check(!diverged, "serve: socket plane diverged from replay_parallel");
    let (digest, m) = repeat.first.take().unwrap_or_default();
    out.failed = if errors.is_empty() { degraded } else { n };
    if !errors.is_empty() {
        errors.dedup();
        out.notes.push(format!("serve errors: {}", errors.join("; ")));
    } else {
        check_conservation(&mut out, &m, n);
    }
    let served = if errors.is_empty() { m.stats.requests } else { 0 };
    end_to_end(&mut out, setup_s, served, &times, &m);
    out.notes.push(format!(
        "iterations={} shards={shards} digest={digest:016x} {}",
        times.len(),
        walls(&times)
    ));

    if opts.trace {
        let t = Instant::now();
        let r = tr.span("traced", || pipeline(&tr));
        let traced_wall = t.elapsed().as_secs_f64();
        let c = |k: Counter| r.rec.counter(k) as f64;
        out.layer("net.frames_resent", c(Counter::NetFramesResent), "count");
        out.layer("net.timeouts", c(Counter::NetTimeouts), "count");
        out.layer("net.reconnects", c(Counter::NetReconnects), "count");
        out.layer("net.degraded_requests", c(Counter::NetRequestsDegraded), "count");
        if let Some(plan) = &r.plan {
            let (frames, wire, corrupt) = layers::frame_codec(plan, &tr);
            out.check(corrupt == 0, "frame codec lost an Ops payload");
            out.layer("net.frames", frames as f64, "count");
            out.layer("net.wire_bytes", wire as f64, "bytes");
            let drains = layers::shard_drains(plan);
            out.check(drains.is_some(), "a shard rejected its own plan's batch");
            let (drain, shard_metrics) = drains.unwrap_or_default();
            out.layer("net.drain_bytes_max", drain as f64, "bytes");
            // The metrics the serve holds, whether or not it delivered them.
            metrics_layers(&mut out, &shard_metrics);
            out.notes.push(format!(
                "largest DrainAck payload {drain} B vs MAX_FRAME_LEN {MAX_FRAME_LEN} B ({})",
                if drain > MAX_FRAME_LEN as u64 { "over the cap" } else { "fits" }
            ));
        }
        let Served { log, plan, .. } = r;
        drop(plan);
        layers::orbit_and_schedule(&s.world, &s.trace, &sched, &tr);
        let cols = starcdn_sim::AccessLogColumns::from_log(&log);
        drop(log);
        let routes = layers::resolve_routes(&cfg, &cols, None, "route.resolve", &tr);
        let (hits, accesses) = layers::cache_access(&cfg, &cols, &routes.owners, &tr);
        traced_layers(&mut out, &tr, traced_wall, &times);
        out.layer("cache.hit_ratio", hits as f64 / accesses.max(1) as f64, "frac");
        out.layer("route.remapped", routes.remapped as f64, "count");
        complete_layers(&mut out);
    }
    out
}
