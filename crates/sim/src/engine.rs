//! The deterministic simulation engine.
//!
//! Drives an access log through a system: the StarCDN fleet (any
//! variant), the Static Cache ideal, the no-cache bent pipe, or the
//! terrestrial-CDN latency reference. Single-threaded and bit-for-bit
//! reproducible; the throughput-oriented sharded path lives in
//! [`crate::replayer`].
//!
//! Every fleet replay — plain, fault-scheduled, overload-aware,
//! warm-up-measured, or checkpointed ([`crate::checkpoint`]) — runs
//! through one private driver, `Drive::run`, generic over the entry
//! stream (row [`AccessLog`] or [`AccessLogColumns`]) and holding each
//! mode as an optional part. The public `run_space*` runners only pick
//! the parts, always through the one rule of `active_modes`.

use crate::access_log::{record_fault_delta, AccessLog, AccessLogEntry};
use crate::checkpoint::{CheckpointError, EngineWriter};
use crate::columns::AccessLogColumns;
use crate::overload::{Decision, OverloadConfig};
use starcdn::baselines::{NoCacheBaseline, StaticCacheBaseline, TerrestrialCdnBaseline};
use starcdn::metrics::SystemMetrics;
use starcdn::system::{ServeOutcome, SpaceCdn};
use starcdn_constellation::capacity::CapacityLedger;
use starcdn_constellation::schedule::{FaultSchedule, ScheduleCursor};
use starcdn_telemetry::{Counter, Event, Histo, Noop, Recorder, SpanTimer, Stage};

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Scheduler epoch, seconds (Starlink reconfigures every 15 s).
    pub epoch_secs: u64,
    /// Virtual users per location.
    pub users_per_location: usize,
    /// Minimum elevation mask, degrees.
    pub min_elevation_deg: f64,
    /// Users are spread over the best `top_k` visible satellites; fault
    /// experiments widen this to keep coverage under heavy churn.
    pub top_k: usize,
    /// Seed for scheduling decisions.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            epoch_secs: 15,
            users_per_location: 8,
            min_elevation_deg: 25.0,
            top_k: 4,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// The scheduler view of this configuration.
    pub fn scheduler(&self) -> crate::scheduler::SchedulerConfig {
        crate::scheduler::SchedulerConfig {
            users_per_location: self.users_per_location,
            min_elevation_deg: self.min_elevation_deg,
            top_k: self.top_k,
            seed: self.seed,
        }
    }
}

/// Replay the log through a satellite fleet; returns the run's metrics
/// (also left in `cdn.metrics`). When the fleet is configured with
/// proactive prefetch, a prefetch round runs at every scheduler-epoch
/// boundary.
pub fn run_space(cdn: &mut SpaceCdn, log: &AccessLog) -> SystemMetrics {
    run_space_entries(cdn, &log.entries, log.epoch_secs)
}

/// [`run_space`] over a borrowed slice of entries — lets callers replay
/// part of a log (e.g. the post-warmup tail) without copying it into a
/// fresh [`AccessLog`].
pub fn run_space_entries(
    cdn: &mut SpaceCdn,
    entries: &[AccessLogEntry],
    epoch_secs: u64,
) -> SystemMetrics {
    replay(
        cdn,
        entries.iter().copied(),
        epoch_secs,
        &FaultSchedule::empty(),
        &OverloadConfig::disabled(),
        None,
        &Noop,
    )
}

/// [`run_space`] over a columnar log: entries are materialized lane by
/// lane from the column buffers as the loop consumes them, never
/// collected into a row vector. Bit-for-bit [`run_space`] on the
/// equivalent row log.
pub fn run_space_columns(cdn: &mut SpaceCdn, cols: &AccessLogColumns) -> SystemMetrics {
    replay(
        cdn,
        cols.iter(),
        cols.epoch_secs(),
        &FaultSchedule::empty(),
        &OverloadConfig::disabled(),
        None,
        &Noop,
    )
}

/// Record one served request into `rec`. Shared by the engine driver and
/// the replayer workers so hit/miss classification stays consistent.
pub(crate) fn record_outcome(rec: &dyn Recorder, out: &ServeOutcome, size: u64) {
    use starcdn::system::ServedFrom;
    rec.add(Counter::RequestsRouted, 1);
    rec.observe(Histo::LatencyUs, (out.latency_ms * 1000.0) as u64);
    rec.observe(Histo::IslHops, out.route_hops as u64);
    rec.observe(Histo::ObjectBytes, size);
    if out.served_from.is_space_hit() {
        rec.add(Counter::CacheHits, 1);
        if matches!(out.served_from, ServedFrom::RelayWest | ServedFrom::RelayEast) {
            rec.add(Counter::RelayHits, 1);
        }
    } else {
        rec.add(Counter::CacheMisses, 1);
    }
    if out.residual_epochs > 0 {
        rec.add(Counter::DelayedHits, 1);
        rec.observe(Histo::ResidualWaitEpochs, out.residual_epochs);
    }
    if out.fetch_retired {
        rec.add(Counter::FetchesRetired, 1);
        rec.add(Counter::CoalescedRequests, out.coalesced);
    }
}

/// Replay the log under a time-varying fault schedule. At every scheduler
/// epoch boundary encountered in the log the live failure view advances:
/// satellites that went down lose their cache contents, recovered ones
/// come back cold (their warm-up is tracked in
/// `metrics.cold_restart_misses`), and an availability sample is
/// recorded. With an empty schedule this is exactly [`run_space`] —
/// bit-for-bit, including the absence of an availability timeline.
pub fn run_space_with_faults(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    schedule: &FaultSchedule,
) -> SystemMetrics {
    run_space_with_faults_recorded(cdn, log, schedule, &Noop)
}

/// [`run_space_with_faults`] with telemetry: per-request latency, hop
/// and size histograms and hit/miss counters, a [`Stage::CacheAccess`]
/// span per scheduler epoch, and epoch-stamped [`Event`]s for the churn
/// applied at each boundary (`SatDown`/`SatUp`/`LinkDown`/`LinkUp`) and
/// the per-epoch growth of the degraded-mode counters
/// (`Remap`/`Reroute`/`ColdMiss`). Recording never changes the metrics.
pub fn run_space_with_faults_recorded(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    schedule: &FaultSchedule,
    rec: &dyn Recorder,
) -> SystemMetrics {
    replay(
        cdn,
        log.entries.iter().copied(),
        log.epoch_secs,
        schedule,
        &OverloadConfig::disabled(),
        None,
        rec,
    )
}

/// [`run_space_with_faults`] over a columnar log — bit-for-bit the row
/// path on the equivalent log, including the empty-schedule fast path.
pub fn run_space_with_faults_columns(
    cdn: &mut SpaceCdn,
    cols: &AccessLogColumns,
    schedule: &FaultSchedule,
) -> SystemMetrics {
    replay(cdn, cols.iter(), cols.epoch_secs(), schedule, &OverloadConfig::disabled(), None, &Noop)
}

/// [`run_space_with_faults`] with metrics reset at the first entry at or
/// after `measure_from_secs` — measures the steady state after a fault
/// transient (e.g. hit-rate recovery after a mass restart) while the
/// caches and cold flags carry the full history.
pub fn run_space_with_faults_measured(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    schedule: &FaultSchedule,
    measure_from_secs: u64,
) -> SystemMetrics {
    let entries = log.entries.iter().copied();
    replay(
        cdn,
        entries,
        log.epoch_secs,
        schedule,
        &OverloadConfig::disabled(),
        Some(measure_from_secs),
        &Noop,
    )
}

/// Replay the log under a fault schedule *and* capacity enforcement:
/// the full overload-aware request lifecycle of [`crate::overload`].
/// With `overload` disabled (infinite headroom) this is exactly
/// [`run_space_with_faults`] — bit-for-bit, with no ledger built, no
/// utilization timeline, and every new counter left at zero. The
/// schedule may be empty (pure overload, no churn).
pub fn run_space_overloaded(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    schedule: &FaultSchedule,
    overload: &OverloadConfig,
) -> SystemMetrics {
    run_space_overloaded_recorded(cdn, log, schedule, overload, &Noop)
}

/// [`run_space_overloaded`] with telemetry: shed/retry/fallback/drop
/// counters and the per-request retry-count histogram on top of the
/// fault-path instrumentation.
pub fn run_space_overloaded_recorded(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    schedule: &FaultSchedule,
    overload: &OverloadConfig,
    rec: &dyn Recorder,
) -> SystemMetrics {
    replay(cdn, log.entries.iter().copied(), log.epoch_secs, schedule, overload, None, rec)
}

/// [`run_space_overloaded`] over a columnar log — bit-for-bit the row
/// path on the equivalent log, including the disabled-overload fast
/// path.
pub fn run_space_overloaded_columns(
    cdn: &mut SpaceCdn,
    cols: &AccessLogColumns,
    schedule: &FaultSchedule,
    overload: &OverloadConfig,
) -> SystemMetrics {
    replay(cdn, cols.iter(), cols.epoch_secs(), schedule, overload, None, &Noop)
}

/// A non-checkpointed replay: [`Drive::new`]'s mode selection, then the
/// driver.
fn replay(
    cdn: &mut SpaceCdn,
    entries: impl Iterator<Item = AccessLogEntry>,
    epoch_secs: u64,
    schedule: &FaultSchedule,
    overload: &OverloadConfig,
    measure_from_secs: Option<u64>,
    rec: &dyn Recorder,
) -> SystemMetrics {
    let drive = Drive { measure_from_secs, ..Drive::new(cdn, epoch_secs, schedule, overload) };
    drive
        .run(cdn, entries, epoch_secs, rec)
        .expect("a drive without a checkpoint writer does no I/O")
}

/// The one mode-selection rule shared by every engine, sharded and
/// checkpointed runner: an empty schedule runs without a fault cursor,
/// a disabled overload config without a capacity ledger.
pub(crate) fn active_modes<'a>(
    schedule: &'a FaultSchedule,
    overload: &'a OverloadConfig,
) -> (Option<&'a FaultSchedule>, Option<&'a OverloadConfig>) {
    ((!schedule.is_empty()).then_some(schedule), overload.is_enabled().then_some(overload))
}

/// Degraded-mode counter levels at the last epoch boundary; the deltas
/// become epoch-stamped `Remap`/`Reroute`/`ColdMiss` events. Checkpoints
/// persist the levels so a resumed run emits the same per-epoch deltas
/// as the uninterrupted one.
#[derive(Default, Clone, Copy)]
pub(crate) struct FaultEventWatermark {
    pub(crate) remapped: u64,
    pub(crate) extra_hops: u64,
    pub(crate) cold_misses: u64,
}

impl FaultEventWatermark {
    pub(crate) fn of(m: &SystemMetrics) -> Self {
        FaultEventWatermark {
            remapped: m.remapped_requests,
            extra_hops: m.reroute_extra_hops,
            cold_misses: m.cold_restart_misses,
        }
    }

    /// Emit this epoch's growth and advance the watermark.
    pub(crate) fn flush(&mut self, rec: &dyn Recorder, epoch: u64, m: &SystemMetrics) {
        let now = Self::of(m);
        rec.event(Event::Remap, epoch, now.remapped.saturating_sub(self.remapped));
        rec.event(Event::Reroute, epoch, now.extra_hops.saturating_sub(self.extra_hops));
        rec.event(Event::ColdMiss, epoch, now.cold_misses.saturating_sub(self.cold_misses));
        *self = now;
    }
}

/// Where a resumed drive re-enters the log (restored from a checkpoint).
#[derive(Clone, Copy)]
pub(crate) struct ResumePoint {
    /// Index of the first unprocessed entry; the caller passes the log
    /// from here on.
    pub(crate) entry_index: usize,
    /// The epoch before the checkpointed boundary, so that boundary
    /// re-executes exactly as in the uninterrupted run.
    pub(crate) prev_epoch: u64,
    pub(crate) watermark: FaultEventWatermark,
}

/// One engine replay: each mode is an optional part, and all `None` is
/// the plain replay.
#[derive(Default)]
pub(crate) struct Drive<'a> {
    /// Fault-schedule cursor, advanced at each epoch boundary (churn).
    pub(crate) cursor: Option<ScheduleCursor<'a>>,
    /// Capacity ledger and the lifecycle it enforces (overload).
    pub(crate) ledger: Option<(CapacityLedger, &'a OverloadConfig)>,
    /// Reset the metrics at the first entry at or after this time.
    pub(crate) measure_from_secs: Option<u64>,
    /// Writes a checkpoint at every `every_n_epochs` boundary.
    pub(crate) writer: Option<EngineWriter<'a>>,
    /// Start mid-log, as restored from a checkpoint.
    pub(crate) resume: Option<ResumePoint>,
}

impl<'a> Drive<'a> {
    /// The cursor and ledger [`active_modes`] selects for `cdn`.
    pub(crate) fn new(
        cdn: &SpaceCdn,
        epoch_secs: u64,
        schedule: &'a FaultSchedule,
        overload: &'a OverloadConfig,
    ) -> Self {
        let (schedule, overload) = active_modes(schedule, overload);
        let cfg = cdn.config();
        Drive {
            cursor: schedule.map(|s| ScheduleCursor::new(s, cdn.failures().clone())),
            ledger: overload.map(|o| {
                let ledger =
                    CapacityLedger::new(&cfg.grid, &cfg.link_model, epoch_secs.max(1), o.headroom);
                (ledger, o)
            }),
            ..Drive::default()
        }
    }

    /// Replay `entries` through `cdn`. At each scheduler-epoch boundary,
    /// in order: checkpoint, fault-event flush, churn and availability
    /// sample, ledger advance, prefetch round. The per-request epoch
    /// division runs only when one of those (or the delayed-hit clock,
    /// or a live recorder) needs it.
    pub(crate) fn run(
        self,
        cdn: &mut SpaceCdn,
        entries: impl Iterator<Item = AccessLogEntry>,
        epoch_secs: u64,
        rec: &dyn Recorder,
    ) -> Result<SystemMetrics, CheckpointError> {
        let Drive { mut cursor, mut ledger, measure_from_secs, mut writer, resume } = self;
        let prefetching = cdn.config().prefetch_top_k.is_some();
        let enabled = rec.is_enabled();
        let faulty = cursor.is_some() || ledger.is_some();
        let boundaries = faulty
            || writer.is_some()
            || prefetching
            || enabled
            || cdn.config().delayed.is_enabled();
        let epoch_secs = epoch_secs.max(1);
        let epoch_ms = epoch_secs as f64 * 1000.0;
        let span_planes = cdn.config().relay_span_planes();
        let (first_index, mut current_epoch, mut watermark) = match resume {
            Some(r) => (r.entry_index, r.prev_epoch, r.watermark),
            None => (0, u64::MAX, FaultEventWatermark::default()),
        };
        let mut measure_from = measure_from_secs;
        let mut epoch_span: Option<SpanTimer> = None;
        for (i, e) in (first_index..).zip(entries) {
            let epoch = if boundaries { e.time.as_secs() / epoch_secs } else { current_epoch };
            if epoch != current_epoch {
                // Close the open span first so its stats make a
                // checkpoint snapshot, which captures the state *before*
                // any of this boundary's actions.
                epoch_span = None;
                if current_epoch != u64::MAX {
                    if let Some(w) = writer.as_mut() {
                        let led = ledger.as_ref().map(|(l, _)| l);
                        w.at_boundary(
                            cdn,
                            i,
                            current_epoch,
                            epoch,
                            cursor.as_ref(),
                            led,
                            watermark,
                        )?;
                    }
                    if faulty && enabled {
                        watermark.flush(rec, current_epoch, &cdn.metrics);
                    }
                }
                current_epoch = epoch;
                cdn.set_now_epoch(epoch);
                if enabled {
                    epoch_span = Some(SpanTimer::start(rec, Stage::CacheAccess, epoch));
                }
                if let Some(cur) = cursor.as_mut() {
                    let delta = cur.advance_to(epoch * epoch_secs);
                    if !delta.is_empty() {
                        if enabled {
                            record_fault_delta(rec, epoch, &delta);
                            rec.add(Counter::CacheWipes, delta.went_down.len() as u64);
                            rec.add(Counter::ColdMarks, delta.came_up.len() as u64);
                        }
                        // Down first: a satellite that restarted within
                        // one step is wiped, then marked cold.
                        for &id in &delta.went_down {
                            cdn.wipe_cache(id);
                        }
                        for &id in &delta.came_up {
                            cdn.mark_cold(id);
                        }
                        cdn.set_failures(cur.view().clone());
                    }
                    cdn.record_availability(epoch);
                }
                if let Some((led, _)) = ledger.as_mut() {
                    cdn.metrics.utilization.extend(led.advance_to(epoch));
                }
                if prefetching {
                    cdn.prefetch_round();
                    if enabled {
                        rec.add(Counter::PrefetchRounds, 1);
                    }
                }
            }
            if measure_from.is_some_and(|from| e.time.as_secs() >= from) {
                cdn.reset_metrics();
                watermark = FaultEventWatermark::default();
                measure_from = None;
            }
            let Some(fc) = e.first_contact else {
                // No satellite in view: served bent-pipe, outside the
                // overload lifecycle (no GSL of ours carries it).
                cdn.handle_unreachable(e.size);
                if enabled {
                    rec.add(Counter::RequestsUnreachable, 1);
                }
                continue;
            };
            let out = match ledger.as_mut() {
                None => {
                    let partitioned_before = cdn.metrics.partitioned_requests;
                    let out = cdn.handle_request(fc, e.object, e.size, e.gsl_oneway_ms);
                    if enabled && cdn.metrics.partitioned_requests > partitioned_before {
                        rec.add(Counter::RequestsPartitioned, 1);
                    }
                    Some(out)
                }
                Some((led, overload)) => {
                    let lifecycle = crate::overload::decide(
                        &cdn.config().grid,
                        cdn.tiling(),
                        cdn.failures(),
                        cdn.config().remap_on_failure,
                        span_planes,
                        led,
                        epoch,
                        epoch_ms,
                        fc,
                        e.object,
                        e.size,
                        cdn.latency_model(),
                        overload,
                        rec,
                    );
                    lifecycle.account(&mut cdn.metrics, rec);
                    match lifecycle.decision {
                        Decision::Serve { route, replica, penalty_ms } => {
                            let out = cdn.serve_routed(
                                route,
                                e.object,
                                e.size,
                                e.gsl_oneway_ms,
                                penalty_ms,
                            );
                            if replica {
                                cdn.metrics.served_replica += 1;
                            } else {
                                cdn.metrics.served_primary += 1;
                            }
                            Some(out)
                        }
                        Decision::OriginFallback { penalty_ms } => {
                            cdn.serve_origin_fallback(fc, e.size, e.gsl_oneway_ms, penalty_ms);
                            if enabled {
                                rec.add(Counter::OriginFallbacks, 1);
                            }
                            None
                        }
                        Decision::Drop => {
                            cdn.metrics.dropped_requests += 1;
                            if enabled {
                                rec.add(Counter::RequestsDropped, 1);
                            }
                            None
                        }
                    }
                }
            };
            if enabled {
                if let Some(out) = &out {
                    record_outcome(rec, out, e.size);
                }
            }
        }
        drop(epoch_span);
        if faulty && enabled && current_epoch != u64::MAX {
            watermark.flush(rec, current_epoch, &cdn.metrics);
        }
        if let Some((mut led, _)) = ledger {
            cdn.metrics.utilization.extend(led.finish());
        }
        Ok(cdn.metrics.clone())
    }
}

/// Replay the log through the Static Cache ideal: each location's
/// requests hit its own permanent cache; the GSL delay is whatever the
/// scheduler measured for the user (the cache hangs at the same range).
pub fn run_static(baseline: &mut StaticCacheBaseline, log: &AccessLog) -> SystemMetrics {
    for e in &log.entries {
        let gsl = if e.gsl_oneway_ms > 0.0 { e.gsl_oneway_ms } else { 2.94 };
        baseline.handle_request(e.location.0 as usize, e.object, e.size, gsl);
    }
    baseline.metrics.clone()
}

/// Replay the log through today's no-cache Starlink.
pub fn run_no_cache(baseline: &mut NoCacheBaseline, log: &AccessLog) -> SystemMetrics {
    for e in &log.entries {
        let gsl = if e.gsl_oneway_ms > 0.0 { e.gsl_oneway_ms } else { 2.94 };
        baseline.handle_request(e.size, gsl);
    }
    baseline.metrics.clone()
}

/// Record the terrestrial-CDN latency reference over the same request
/// volume.
pub fn run_terrestrial(baseline: &mut TerrestrialCdnBaseline, log: &AccessLog) -> SystemMetrics {
    for e in &log.entries {
        baseline.handle_request(e.size);
    }
    baseline.metrics.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_log::build_access_log;
    use crate::world::World;
    use spacegen::trace::{LocationId, Request, Trace};
    use starcdn::config::StarCdnConfig;
    use starcdn_cache::object::ObjectId;
    use starcdn_cache::policy::PolicyKind;
    use starcdn_orbit::time::SimTime;

    fn log() -> AccessLog {
        let w = World::starlink_nine_cities();
        let reqs: Vec<Request> = (0..2000u64)
            .map(|k| Request {
                time: SimTime::from_secs(k / 4),
                object: ObjectId(k % 50), // popular 50-object working set
                size: 1000,
                location: LocationId((k % 9) as u16),
            })
            .collect();
        build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler())
    }

    #[test]
    fn space_run_records_every_request() {
        let log = log();
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, 10_000_000));
        let m = run_space(&mut cdn, &log);
        assert_eq!(m.stats.requests, log.len() as u64);
        assert_eq!(m.latencies_ms.len(), log.len());
        assert!(m.stats.request_hit_rate() > 0.5, "small hot set must hit: {}", m.stats);
    }

    #[test]
    fn starcdn_beats_naive_lru_on_shared_content() {
        // The same 50 objects from all 9 cities: hashing consolidates
        // them onto bucket owners while naive LRU re-fetches per satellite.
        let log = log();
        let mut star = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let ms = run_space(&mut star, &log);
        let mut naive = SpaceCdn::new(StarCdnConfig::naive_lru(1_000_000));
        let mn = run_space(&mut naive, &log);
        assert!(
            ms.stats.request_hit_rate() > mn.stats.request_hit_rate(),
            "StarCDN {} !> naive {}",
            ms.stats,
            mn.stats
        );
        assert!(ms.uplink_fraction() < mn.uplink_fraction());
    }

    #[test]
    fn static_cache_is_upper_bound_here() {
        let log = log();
        let mut st = StaticCacheBaseline::new(9, 1_000_000, PolicyKind::Lru);
        let m = run_static(&mut st, &log);
        assert_eq!(m.stats.requests, log.len() as u64);
        // 50 objects × 1000 B fit per location: only cold misses remain
        // (each location sees ~50 distinct objects over ~222 requests).
        assert!(m.stats.request_hit_rate() > 0.7, "{}", m.stats);
    }

    #[test]
    fn no_cache_uses_full_uplink() {
        let log = log();
        let mut nc = NoCacheBaseline::new();
        let m = run_no_cache(&mut nc, &log);
        assert!((m.uplink_fraction() - 1.0).abs() < 1e-12);
        assert!(m.latency_cdf().median().unwrap() > 45.0);
    }

    #[test]
    fn terrestrial_reference_latency_only() {
        let log = log();
        let mut t = TerrestrialCdnBaseline::new();
        let m = run_terrestrial(&mut t, &log);
        assert_eq!(m.latencies_ms.len(), log.len());
        let med = m.latency_cdf().median().unwrap();
        assert!((med - 20.0).abs() < 4.0, "median {med}");
    }

    #[test]
    fn slice_replay_equals_full_log_replay() {
        let log = log();
        let mut a = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let ma = run_space(&mut a, &log);
        let mut b = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let mb = run_space_entries(&mut b, &log.entries, log.epoch_secs);
        assert_eq!(ma.stats, mb.stats);
        assert_eq!(ma.latencies_ms, mb.latencies_ms);
    }

    #[test]
    fn deterministic_end_to_end() {
        let log = log();
        let mut a = SpaceCdn::new(StarCdnConfig::starcdn(9, 100_000));
        let ma = run_space(&mut a, &log);
        let mut b = SpaceCdn::new(StarCdnConfig::starcdn(9, 100_000));
        let mb = run_space(&mut b, &log);
        assert_eq!(ma.stats, mb.stats);
        assert_eq!(ma.latencies_ms, mb.latencies_ms);
        assert_eq!(ma.uplink_bytes, mb.uplink_bytes);
    }

    #[test]
    fn empty_fault_schedule_is_bit_for_bit_run_space() {
        let log = log();
        let mut plain = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let mp = run_space(&mut plain, &log);
        let mut churn = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let mc = run_space_with_faults(&mut churn, &log, &FaultSchedule::empty());
        // A measured run from time 0 resets nothing and selects its
        // modes by the same rule.
        let mut measured = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let mm = run_space_with_faults_measured(&mut measured, &log, &FaultSchedule::empty(), 0);
        for mc in [mc, mm] {
            assert_eq!(mp.stats, mc.stats);
            assert_eq!(mp.latencies_ms, mc.latencies_ms);
            assert_eq!(mp.uplink_bytes, mc.uplink_bytes);
            assert_eq!(mp.per_satellite, mc.per_satellite);
            assert!(mc.availability.is_empty(), "no schedule, no timeline");
            assert_eq!(mc.cold_restart_misses, 0);
            assert_eq!(mc.remapped_requests, 0);
        }
    }

    #[test]
    fn churn_run_tracks_recovery() {
        use starcdn_constellation::schedule::{FaultEvent, TimedFault};
        let log = log();
        // Find a satellite that actually serves traffic, kill it for
        // 120 s mid-run, and watch the cold-restart counter move.
        let mut probe = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        run_space(&mut probe, &log);
        let victim =
            *probe.metrics.per_satellite.iter().max_by_key(|(_, st)| st.requests).unwrap().0;
        let sched = FaultSchedule::from_events([
            TimedFault { at_secs: 120, event: FaultEvent::SatDown(victim) },
            TimedFault { at_secs: 240, event: FaultEvent::SatUp(victim) },
        ]);
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let m = run_space_with_faults(&mut cdn, &log, &sched);
        assert_eq!(m.stats.requests, log.len() as u64);
        assert!(m.cold_restart_misses > 0, "recovered satellite must re-warm");
        assert!(m.remapped_requests > 0, "owner was dead for 8 epochs");
        assert!(!m.availability.is_empty());
        let min_alive = m.availability.iter().map(|p| p.alive_sats).min().unwrap();
        let max_alive = m.availability.iter().map(|p| p.alive_sats).max().unwrap();
        assert_eq!(max_alive, 1296);
        assert_eq!(min_alive, 1295, "one satellite down in the dip");
    }

    #[test]
    fn measured_run_resets_at_cutoff() {
        use starcdn_constellation::schedule::{FaultEvent, TimedFault};
        let log = log();
        let sched = FaultSchedule::from_events([TimedFault {
            at_secs: 0,
            event: FaultEvent::SatDown(starcdn_orbit::walker::SatelliteId::new(0, 0)),
        }]);
        let cutoff = 250;
        let tail_len = log.entries.iter().filter(|e| e.time.as_secs() >= cutoff).count() as u64;
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let m = run_space_with_faults_measured(&mut cdn, &log, &sched, cutoff);
        assert_eq!(m.stats.requests, tail_len, "only post-cutoff entries measured");
    }

    #[test]
    fn delayed_model_counts_and_zero_latency_identity() {
        use starcdn::config::DelayedHitConfig;
        let log = log();
        let mut plain = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let mp = run_space(&mut plain, &log);
        // fetch_epochs = 0 disables the model even with a nonzero wait
        // cost configured: bit-for-bit the plain run.
        let zero_cfg = StarCdnConfig::starcdn(4, 1_000_000)
            .with_delayed_hits(DelayedHitConfig::with_latency(0, 50.0));
        let mut zero = SpaceCdn::new(zero_cfg);
        let mz = run_space(&mut zero, &log);
        assert_eq!(mp.stats, mz.stats);
        assert_eq!(mp.latencies_ms, mz.latencies_ms);
        assert_eq!(mz.delayed_hits, 0);
        assert!(mz.residual_epoch_hist.is_empty());

        let del_cfg = StarCdnConfig::starcdn(4, 1_000_000)
            .with_delayed_hits(DelayedHitConfig::with_latency(2, 40.0));
        let mut del = SpaceCdn::new(del_cfg);
        let md = run_space(&mut del, &log);
        assert_eq!(md.stats.requests, log.len() as u64);
        assert!(md.delayed_hits > 0, "hot 50-object set must coalesce");
        assert!(md.coalesced_requests <= md.delayed_hits, "retired followers lag delayed hits");
        assert!(!md.residual_epoch_hist.is_empty());
        let hist_total: u64 = md.residual_epoch_hist.values().sum();
        assert_eq!(hist_total, md.delayed_hits);
        assert!(
            md.residual_epoch_hist.keys().all(|r| (1..=2).contains(r)),
            "residuals bounded by fetch latency"
        );
    }

    #[test]
    fn median_latency_ordering_matches_fig10() {
        // Fig. 10: StarCDN median ≈ 22 ms sits between terrestrial CDN
        // (~20 ms) and regular Starlink (~55 ms).
        let log = log();
        let mut star = SpaceCdn::new(StarCdnConfig::starcdn(4, 10_000_000));
        let m_star = run_space(&mut star, &log);
        let mut nc = NoCacheBaseline::new();
        let m_nc = run_no_cache(&mut nc, &log);
        let med_star = m_star.latency_cdf().median().unwrap();
        let med_nc = m_nc.latency_cdf().median().unwrap();
        assert!(
            med_star * 2.0 < med_nc,
            "StarCDN median {med_star} not ≥2x better than no-cache {med_nc}"
        );
    }
}
