//! The parallel cache replayer.
//!
//! The paper's replayer spawns one process per satellite and uses TCP to
//! mimic ISL message exchange. This reproduction shards satellites over
//! a crossbeam worker pool: each worker replays, in log order, the
//! requests owned by its satellites; per-satellite caches sit behind
//! `parking_lot` mutexes so relay probes can read neighbour caches
//! across shards (DESIGN.md substitution #3).
//!
//! Every sharded run — any mode, row or columnar, checkpointed or not —
//! goes through one driver, `drive_sharded`: a sequential pre-pass
//! (`prepare_shards`) resolves, admits and shards every request, then
//! the workers replay their streams (`run_shard_ops`) in one segment
//! per checkpoint barrier (one segment without checkpoints).
//!
//! Determinism: each satellite's own request stream is processed in
//! order, so *per-satellite* cache behaviour is exact. Relay probes read
//! a neighbour's cache at whatever point that shard has reached, so
//! relay hit counts can differ slightly from the sequential engine run
//! (bounded by in-flight skew); variants without relayed fetch produce
//! bit-identical statistics. Locks are never held two-at-a-time, so the
//! pool cannot deadlock.
//!
//! Fault schedules ([`replay_parallel_with_faults`]) keep that exactness:
//! the sequential pre-pass resolves every request against the live
//! failure view of its epoch and injects cache-wipe / mark-cold
//! pseudo-ops into the owning satellite's shard stream. A dead satellite
//! receives no routed requests while dead, so the pseudo-ops land at the
//! same stream position the sequential engine applies them — per-satellite
//! behaviour stays bit-for-bit identical for no-relay configurations.
//! (Relay probes under churn resolve candidates against the *base*
//! failure set, the same approximation as the static path.)
//!
//! Proactive-prefetch configurations are *not* simulated here (prefetch
//! rounds are global barriers, which would defeat the sharding); the
//! driver rejects them — use the sequential engine for the prefetch
//! ablation.

use crate::access_log::{AccessLog, AccessLogEntry};
use crate::checkpoint::CheckpointError;
use crate::columns::AccessLogColumns;
use crate::engine::{active_modes, record_outcome};
use crate::overload::{Decision, OverloadConfig};
use crate::replayer_checkpoint::{ReplayResume, ReplayWriter};
use crossbeam::thread;
use parking_lot::Mutex;
use starcdn::config::StarCdnConfig;
use starcdn::latency::LatencyModel;
use starcdn::metrics::{AvailabilityPoint, SystemMetrics};
use starcdn::relay::relay_candidates;
use starcdn::system::{classify_route_in_recorded, RouteOutcome, ServeOutcome, ServedFrom};
use starcdn_cache::policy::{AccessOutcome, Cache};
use starcdn_cache::InflightQueue;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::{FaultSchedule, ScheduleCursor};
use starcdn_telemetry::{
    Counter, Event, Histo, MemoryRecorder, Noop, Recorder, SpanTimer, Stage, TelemetrySnapshot,
};

/// A request resolved to its owner, ready for sharded replay.
pub(crate) struct ResolvedEntry {
    object: starcdn_cache::object::ObjectId,
    size: u64,
    owner: starcdn_orbit::walker::SatelliteId,
    intra: u16,
    inter: u16,
    gsl_oneway_ms: f64,
    /// Accumulated retry penalty decided on the pre-pass (overload mode
    /// only; 0.0 adds nothing to the latency sample).
    penalty_ms: f64,
    /// Overload classification: `Some(false)` = admitted at the primary,
    /// `Some(true)` = at a retry replica, `None` = overload mode off.
    replica: Option<bool>,
    /// Scheduler epoch of this request — the delayed-hit clock. The
    /// pre-pass stamps it so each shard replays its own slots' fetch
    /// timelines exactly as the sequential engine does.
    epoch: u64,
}

/// One element of a shard's ordered work stream.
pub(crate) enum ShardOp {
    Request(ResolvedEntry),
    /// The satellite at this slot index went down: its cache is lost.
    Wipe(usize),
    /// The satellite at this slot index recovered: cold until first hit.
    MarkCold(usize),
}

/// Replay `log` against the fleet described by `cfg`/`failures` using
/// `num_workers` threads. Returns aggregate metrics.
pub fn replay_parallel(
    cfg: StarCdnConfig,
    failures: FailureModel,
    log: &AccessLog,
    num_workers: usize,
) -> SystemMetrics {
    replay(
        cfg,
        failures,
        log.view(),
        &FaultSchedule::empty(),
        num_workers,
        &OverloadConfig::disabled(),
        &Noop,
    )
}

/// A borrowed entry stream feeding [`drive_sharded`]/[`prepare_shards`]:
/// either representation replays through the identical code path, the
/// columnar one materializing entries lane-by-lane as the pre-pass
/// consumes them.
#[derive(Clone, Copy)]
pub(crate) enum LogView<'a> {
    Rows(&'a AccessLog),
    Columns(&'a AccessLogColumns),
}

impl<'a> LogView<'a> {
    pub(crate) fn epoch_secs(&self) -> u64 {
        match self {
            LogView::Rows(l) => l.epoch_secs,
            LogView::Columns(c) => c.epoch_secs(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            LogView::Rows(l) => l.len(),
            LogView::Columns(c) => c.len(),
        }
    }

    pub(crate) fn entries(&self) -> impl Iterator<Item = AccessLogEntry> + 'a {
        let (rows, cols) = match self {
            LogView::Rows(l) => (Some(l.entries.iter().copied()), None),
            LogView::Columns(c) => (None, Some(c.iter())),
        };
        rows.into_iter().flatten().chain(cols.into_iter().flatten())
    }
}

impl AccessLog {
    pub(crate) fn view(&self) -> LogView<'_> {
        LogView::Rows(self)
    }
}

impl AccessLogColumns {
    pub(crate) fn view(&self) -> LogView<'_> {
        LogView::Columns(self)
    }
}

/// [`replay_parallel`] over a columnar log. The pre-pass streams entries
/// straight out of the column buffers; metrics are bit-for-bit
/// [`replay_parallel`] on the equivalent row log.
pub fn replay_parallel_columns(
    cfg: StarCdnConfig,
    failures: FailureModel,
    cols: &AccessLogColumns,
    num_workers: usize,
) -> SystemMetrics {
    replay(
        cfg,
        failures,
        cols.view(),
        &FaultSchedule::empty(),
        num_workers,
        &OverloadConfig::disabled(),
        &Noop,
    )
}

/// [`replay_parallel`] under a time-varying fault schedule applied on top
/// of the static `failures` base, mirroring the sequential
/// [`run_space_with_faults`](crate::engine::run_space_with_faults): at
/// each scheduler epoch boundary the live view advances, down satellites
/// lose their cache contents, recovered satellites come back cold, and an
/// availability sample is recorded. With an empty schedule this is
/// exactly [`replay_parallel`].
pub fn replay_parallel_with_faults(
    cfg: StarCdnConfig,
    failures: FailureModel,
    log: &AccessLog,
    schedule: &FaultSchedule,
    num_workers: usize,
) -> SystemMetrics {
    replay(cfg, failures, log.view(), schedule, num_workers, &OverloadConfig::disabled(), &Noop)
}

/// [`replay_parallel_with_faults`] with telemetry. Workers record into
/// private per-shard [`MemoryRecorder`]s that are merged into `rec` in
/// shard index order after the pool joins, so the returned metrics — and
/// the recorded snapshot — are identical run-to-run regardless of thread
/// interleaving. Fault events are stamped with their epoch in the
/// pre-pass, which already walks the schedule sequentially.
pub fn replay_parallel_with_faults_recorded(
    cfg: StarCdnConfig,
    failures: FailureModel,
    log: &AccessLog,
    schedule: &FaultSchedule,
    num_workers: usize,
    rec: &dyn Recorder,
) -> SystemMetrics {
    replay(cfg, failures, log.view(), schedule, num_workers, &OverloadConfig::disabled(), rec)
}

/// [`replay_parallel_with_faults`] over a columnar log — bit-for-bit
/// the row path, including the empty-schedule fast path.
pub fn replay_parallel_with_faults_columns(
    cfg: StarCdnConfig,
    failures: FailureModel,
    cols: &AccessLogColumns,
    schedule: &FaultSchedule,
    num_workers: usize,
) -> SystemMetrics {
    replay(cfg, failures, cols.view(), schedule, num_workers, &OverloadConfig::disabled(), &Noop)
}

/// [`replay_parallel_with_faults`] with the overload-aware request
/// lifecycle on top: the sequential pre-pass runs the full
/// admit/retry/fallback state machine of [`crate::overload`] — it
/// depends only on routes, sizes, and cumulative ledger state, never on
/// cache contents, so the decision sequence is identical to the
/// sequential engine's ([`crate::engine::run_space_overloaded`]) and the
/// per-shard results merge deterministically in shard index order. With
/// `overload` disabled this is exactly [`replay_parallel_with_faults`].
pub fn replay_parallel_overloaded(
    cfg: StarCdnConfig,
    failures: FailureModel,
    log: &AccessLog,
    schedule: &FaultSchedule,
    num_workers: usize,
    overload: &OverloadConfig,
) -> SystemMetrics {
    replay(cfg, failures, log.view(), schedule, num_workers, overload, &Noop)
}

/// [`replay_parallel_overloaded`] with telemetry.
#[allow(clippy::too_many_arguments)]
pub fn replay_parallel_overloaded_recorded(
    cfg: StarCdnConfig,
    failures: FailureModel,
    log: &AccessLog,
    schedule: &FaultSchedule,
    num_workers: usize,
    overload: &OverloadConfig,
    rec: &dyn Recorder,
) -> SystemMetrics {
    replay(cfg, failures, log.view(), schedule, num_workers, overload, rec)
}

/// [`replay_parallel_overloaded`] over a columnar log — bit-for-bit the
/// row path, including the disabled-overload fast path.
pub fn replay_parallel_overloaded_columns(
    cfg: StarCdnConfig,
    failures: FailureModel,
    cols: &AccessLogColumns,
    schedule: &FaultSchedule,
    num_workers: usize,
    overload: &OverloadConfig,
) -> SystemMetrics {
    replay(cfg, failures, cols.view(), schedule, num_workers, overload, &Noop)
}

/// A sharded replay without checkpoints.
fn replay(
    cfg: StarCdnConfig,
    failures: FailureModel,
    log: LogView<'_>,
    schedule: &FaultSchedule,
    num_workers: usize,
    overload: &OverloadConfig,
    rec: &dyn Recorder,
) -> SystemMetrics {
    drive_sharded(cfg, failures, log, schedule, num_workers, overload, rec, None)
        .expect("a sharded drive without checkpoints does no I/O")
}

/// A checkpointable barrier recorded by the pre-pass: the length of every
/// shard stream at the moment the log crossed an `every_n`-epoch
/// boundary (before that boundary's churn pseudo-ops were pushed).
/// Workers joining at these cut points see a globally consistent state.
pub(crate) struct ShardCut {
    pub barrier_epoch: u64,
    pub lens: Vec<usize>,
}

/// Everything the sequential pre-pass produces: per-shard op streams,
/// the directly-accounted metrics (unreachable/unroutable requests,
/// availability and utilization timelines, overload outcomes), and —
/// when `barrier_every` is set — the segment cut table for the
/// checkpointed path.
pub(crate) struct PrePass {
    pub shards: Vec<Vec<ShardOp>>,
    pub direct: SystemMetrics,
    pub cuts: Vec<ShardCut>,
}

/// The sequential pre-pass, shared verbatim between [`drive_sharded`]
/// and the socket serving plane in [`crate::serve`] so both resolve,
/// admit, and shard every request identically. `barrier_every`
/// additionally records a [`ShardCut`] each time the log crosses that
/// many scheduler epochs; `None` records no cuts and changes nothing
/// else.
#[allow(clippy::too_many_arguments)]
pub(crate) fn prepare_shards(
    cfg: &StarCdnConfig,
    base_failures: &FailureModel,
    log: LogView<'_>,
    schedule: Option<&FaultSchedule>,
    num_workers: usize,
    rec: &dyn Recorder,
    overload: Option<&crate::overload::OverloadConfig>,
    barrier_every: Option<u64>,
) -> PrePass {
    let owners = cfg.owner_table();
    let latency = LatencyModel { link: cfg.link_model.clone(), ..LatencyModel::default() };
    let spp = cfg.grid.sats_per_plane;
    let span = cfg.relay_span_planes();
    let total_slots = cfg.grid.total_slots();

    let enabled = rec.is_enabled();
    // Reserve each shard for its expected share up front: the op streams
    // together hold nearly every entry, and pre-sizing keeps the hot
    // pre-pass loop free of reallocation copies.
    let shard_hint = log.len() / num_workers + 16;
    let mut shards: Vec<Vec<ShardOp>> =
        (0..num_workers).map(|_| Vec::with_capacity(shard_hint)).collect();
    let mut cuts: Vec<ShardCut> = Vec::new();
    let mut direct = SystemMetrics::default();
    let mut cursor = schedule.map(|s| ScheduleCursor::new(s, base_failures.clone()));
    let epoch_secs = log.epoch_secs().max(1);
    let epoch_ms = epoch_secs as f64 * 1000.0;
    // Overload mode: the capacity ledger lives on this sequential
    // pre-pass (per-shard results merge in shard index order below), so
    // admission decisions are identical to the sequential engine's.
    let mut ledger = overload.map(|o| {
        starcdn_constellation::capacity::CapacityLedger::new(
            &cfg.grid,
            &cfg.link_model,
            epoch_secs,
            o.headroom,
        )
    });
    let mut prev_epoch = u64::MAX;
    let mut resolve_span: Option<SpanTimer> = None;
    let mut epoch_remaps = 0u64;
    let mut epoch_reroutes = 0u64;
    for e in log.entries() {
        let epoch = e.time.as_secs() / epoch_secs;
        if epoch != prev_epoch {
            if prev_epoch != u64::MAX {
                // Cut before this epoch's churn pseudo-ops are pushed: a
                // checkpoint at this barrier captures the state *before*
                // the boundary, mirroring the engine checkpoint semantics.
                if barrier_every.is_some_and(|n| epoch / n.max(1) != prev_epoch / n.max(1)) {
                    cuts.push(ShardCut {
                        barrier_epoch: epoch,
                        lens: shards.iter().map(Vec::len).collect(),
                    });
                }
                if enabled {
                    rec.event(Event::Remap, prev_epoch, epoch_remaps);
                    rec.event(Event::Reroute, prev_epoch, epoch_reroutes);
                    epoch_remaps = 0;
                    epoch_reroutes = 0;
                }
            }
            prev_epoch = epoch;
            if enabled {
                // Replacing the span drops (and thus reports) the
                // previous epoch's resolve time.
                resolve_span = Some(SpanTimer::start(rec, Stage::ResolveOwner, epoch));
            }
            if let Some(cur) = cursor.as_mut() {
                let delta = cur.advance_to(epoch * epoch_secs);
                if enabled {
                    crate::access_log::record_fault_delta(rec, epoch, &delta);
                    rec.add(Counter::CacheWipes, delta.went_down.len() as u64);
                    rec.add(Counter::ColdMarks, delta.came_up.len() as u64);
                }
                for &id in &delta.went_down {
                    let idx = id.index(spp);
                    shards[idx % num_workers].push(ShardOp::Wipe(idx));
                }
                for &id in &delta.came_up {
                    let idx = id.index(spp);
                    shards[idx % num_workers].push(ShardOp::MarkCold(idx));
                }
                direct.availability.push(AvailabilityPoint {
                    epoch,
                    alive_sats: (total_slots - cur.view().dead_count()) as u32,
                    cut_links: cur.view().cut_link_count() as u32,
                });
            }
            if let Some(l) = ledger.as_mut() {
                direct.utilization.extend(l.advance_to(epoch));
            }
        }
        let view = cursor.as_ref().map(|c| c.view()).unwrap_or(base_failures);
        let Some(fc) = e.first_contact else {
            let lat = latency.starlink_no_cache_rtt_ms(latency.link.gsl.avg_delay_ms);
            direct.record(
                starcdn_orbit::walker::SatelliteId::new(u16::MAX, u16::MAX),
                ServedFrom::Ground,
                e.size,
                lat,
            );
            if enabled {
                rec.add(Counter::RequestsUnreachable, 1);
            }
            continue;
        };
        // Overload lifecycle: admit/retry/fallback decided here on the
        // sequential spine; workers only touch caches.
        let (route, penalty_ms, replica) = match (ledger.as_mut(), overload) {
            (Some(l), Some(ocfg)) => {
                let lc = crate::overload::decide(
                    &cfg.grid,
                    owners.as_ref(),
                    view,
                    cfg.remap_on_failure,
                    span,
                    l,
                    epoch,
                    epoch_ms,
                    fc,
                    e.object,
                    e.size,
                    &latency,
                    ocfg,
                    rec,
                );
                lc.account(&mut direct, rec);
                match lc.decision {
                    Decision::Serve { route, replica, penalty_ms } => {
                        (route, penalty_ms, Some(replica))
                    }
                    Decision::OriginFallback { penalty_ms } => {
                        let base = latency.ground_miss_rtt_ms(e.gsl_oneway_ms, 0, 0, 0);
                        let lat = if penalty_ms > 0.0 { base + penalty_ms } else { base };
                        direct.record(fc, ServedFrom::Ground, e.size, lat);
                        direct.served_origin_fallback += 1;
                        if enabled {
                            rec.add(Counter::OriginFallbacks, 1);
                        }
                        continue;
                    }
                    Decision::Drop => {
                        direct.dropped_requests += 1;
                        if enabled {
                            rec.add(Counter::RequestsDropped, 1);
                        }
                        continue;
                    }
                }
            }
            _ => match classify_route_in_recorded(
                &cfg.grid,
                owners.as_ref(),
                view,
                cfg.remap_on_failure,
                fc,
                e.object,
                rec,
            ) {
                RouteOutcome::Routed(route) => (route, 0.0, None),
                RouteOutcome::Partitioned { .. } => {
                    // Owner alive but cut off behind a grid partition:
                    // degrade to the origin bent pipe, exactly like the
                    // engine's `handle_request` (uplink charged to the
                    // first contact's GSL, zero ISL hops).
                    let lat = latency.ground_miss_rtt_ms(e.gsl_oneway_ms, 0, 0, 0);
                    direct.record(fc, ServedFrom::Ground, e.size, lat);
                    direct.partitioned_requests += 1;
                    if enabled {
                        rec.add(Counter::RequestsPartitioned, 1);
                    }
                    continue;
                }
                RouteOutcome::Unroutable => {
                    let lat = latency.ground_miss_rtt_ms(e.gsl_oneway_ms, 0, 0, 0);
                    direct.record(fc, ServedFrom::Ground, e.size, lat);
                    if enabled {
                        rec.add(Counter::RequestsUnroutable, 1);
                    }
                    continue;
                }
            },
        };
        if route.remapped {
            direct.remapped_requests += 1;
        }
        direct.reroute_extra_hops += route.extra_hops as u64;
        if enabled {
            if route.remapped {
                rec.add(Counter::RemappedRequests, 1);
                epoch_remaps += 1;
            }
            rec.add(Counter::RerouteExtraHops, route.extra_hops as u64);
            epoch_reroutes += route.extra_hops as u64;
        }
        shards[route.owner.index(spp) % num_workers].push(ShardOp::Request(ResolvedEntry {
            object: e.object,
            size: e.size,
            owner: route.owner,
            intra: route.intra,
            inter: route.inter,
            gsl_oneway_ms: e.gsl_oneway_ms,
            penalty_ms,
            replica,
            epoch,
        }));
    }
    // Close out the last epoch's resolve span and event cells, then
    // record how much work each shard was handed.
    drop(resolve_span);
    if let Some(mut l) = ledger {
        direct.utilization.extend(l.finish());
    }
    if enabled {
        if prev_epoch != u64::MAX {
            rec.event(Event::Remap, prev_epoch, epoch_remaps);
            rec.event(Event::Reroute, prev_epoch, epoch_reroutes);
        }
        for shard in &shards {
            rec.observe(Histo::QueueDepth, shard.len() as u64);
        }
    }
    PrePass { shards, direct, cuts }
}

/// Everything a worker needs besides its own mutable state. Shared
/// between [`drive_sharded`] and the serving plane's shard servers so
/// the per-op behaviour is identical by construction.
pub(crate) struct WorkerCtx<'a> {
    pub caches: &'a [Mutex<Box<dyn Cache + Send>>],
    /// Per-slot outstanding-fetch queues. Owner-sharded like the
    /// requests themselves, so each queue is only ever touched by the
    /// one worker that owns its slot — the mutex is uncontended and
    /// exists to satisfy `Sync`.
    pub inflight: &'a [Mutex<InflightQueue>],
    pub grid: &'a starcdn_constellation::grid::GridTopology,
    pub failures: &'a FailureModel,
    pub latency: &'a LatencyModel,
    pub relay: starcdn::config::RelayPolicy,
    pub delayed: starcdn::config::DelayedHitConfig,
    pub probe: bool,
    pub span: u16,
    pub spp: u16,
}

/// Replay one contiguous slice of a shard's op stream against the shared
/// caches, accumulating into the worker's persistent `m`/`cold` state.
pub(crate) fn run_shard_ops(
    ops: &[ShardOp],
    ctx: &WorkerCtx<'_>,
    m: &mut SystemMetrics,
    cold: &mut [bool],
    wrec: Option<&MemoryRecorder>,
) {
    for op in ops {
        let e = match op {
            ShardOp::Request(e) => e,
            ShardOp::Wipe(idx) => {
                ctx.caches[*idx].lock().clear();
                ctx.inflight[*idx].lock().clear();
                cold[*idx] = false;
                continue;
            }
            ShardOp::MarkCold(idx) => {
                cold[*idx] = true;
                continue;
            }
        };
        let owner_idx = e.owner.index(ctx.spp);
        // Mirrors `SpaceCdn::serve_routed` branch for branch. Delayed
        // model: retire a landed fetch, classify against cache + queue;
        // a delayed hit is a space hit that never touches the cache and
        // a true miss does not admit. Plain model: the auto-admitting
        // access, unchanged.
        let mut fetch_retired = false;
        let mut coalesced = 0u64;
        let mut residual_epochs = 0u64;
        let local = if !ctx.delayed.is_enabled() {
            ctx.caches[owner_idx].lock().access(e.object, e.size)
        } else {
            if let Some(r) = ctx.inflight[owner_idx].lock().take_completed(e.object, e.epoch) {
                let mut g = ctx.caches[owner_idx].lock();
                g.insert(e.object, r.size);
                g.record_fetch_delay(e.object, r.delay_epochs);
                drop(g);
                fetch_retired = true;
                coalesced = r.followers;
                m.coalesced_requests += r.followers;
            }
            let mut g = ctx.caches[owner_idx].lock();
            if g.contains(e.object) {
                let hit = g.access(e.object, e.size);
                debug_assert!(hit.is_hit());
                hit
            } else {
                drop(g);
                if let Some(res) = ctx.inflight[owner_idx].lock().coalesce(e.object, e.epoch) {
                    residual_epochs = res;
                    m.delayed_hits += 1;
                    *m.residual_epoch_hist.entry(res).or_insert(0) += 1;
                    AccessOutcome::Hit
                } else {
                    AccessOutcome::Miss
                }
            }
        };
        if cold[owner_idx] {
            if local.is_hit() {
                cold[owner_idx] = false;
            } else {
                m.cold_restart_misses += 1;
                if let Some(r) = wrec {
                    r.add(Counter::ColdRestartMisses, 1);
                }
            }
        }
        let (from, lat) = if local.is_hit() {
            (ServedFrom::LocalHit, ctx.latency.space_hit_rtt_ms(e.gsl_oneway_ms, e.intra, e.inter))
        } else {
            if ctx.probe {
                let w = neighbor_contains(ctx, e.owner, true, e.object);
                let ea = neighbor_contains(ctx, e.owner, false, e.object);
                m.neighbor_availability.record(w, ea, e.size);
            }
            let mut served = None;
            for (tag, n) in relay_candidates(ctx.grid, e.owner, ctx.span, ctx.relay, ctx.failures) {
                let mut guard = ctx.caches[n.index(ctx.spp)].lock();
                if guard.contains(e.object) {
                    guard.access(e.object, e.size);
                    served = Some((
                        tag,
                        ctx.latency.relay_hit_rtt_ms(e.gsl_oneway_ms, e.intra, e.inter, ctx.span),
                    ));
                    break;
                }
            }
            served.unwrap_or_else(|| {
                let penalty = if ctx.relay.enabled() { ctx.span } else { 0 };
                (
                    ServedFrom::Ground,
                    ctx.latency.ground_miss_rtt_ms(e.gsl_oneway_ms, e.intra, e.inter, penalty),
                )
            })
        };
        // Gated: `x + 0.0` is not a bitwise no-op for every float
        // (-0.0); the no-penalty path must stay byte-identical.
        let lat = if e.penalty_ms > 0.0 { lat + e.penalty_ms } else { lat };
        // Relayed copies admit instantly; a ground miss registers its
        // origin fetch and waits it out in full; a delayed hit waits
        // only the residual — the engine's wait accounting, verbatim.
        if ctx.delayed.is_enabled() && matches!(from, ServedFrom::RelayWest | ServedFrom::RelayEast)
        {
            ctx.caches[owner_idx].lock().insert(e.object, e.size);
        }
        let lat = if ctx.delayed.is_enabled() {
            if from == ServedFrom::Ground {
                let fetch_epochs = ctx.delayed.fetch_epochs_for(e.object);
                ctx.inflight[owner_idx].lock().register(e.object, e.size, e.epoch, fetch_epochs);
                lat + fetch_epochs as f64 * ctx.delayed.wait_ms_per_epoch
            } else if residual_epochs > 0 {
                lat + residual_epochs as f64 * ctx.delayed.wait_ms_per_epoch
            } else {
                lat
            }
        } else {
            lat
        };
        match e.replica {
            Some(true) => m.served_replica += 1,
            Some(false) => m.served_primary += 1,
            None => {}
        }
        m.record(e.owner, from, e.size, lat);
        if let Some(r) = wrec {
            record_outcome(
                r,
                &ServeOutcome {
                    served_from: from,
                    latency_ms: lat,
                    uplink_bytes: 0,
                    owner: e.owner,
                    route_hops: e.intra + e.inter,
                    residual_epochs,
                    fetch_retired,
                    coalesced,
                },
                e.size,
            );
        }
    }
}

/// Everything the workers mutate, kept across segments: the shared
/// per-slot caches and outstanding-fetch queues, and per worker (shard
/// index order) its cold flags, metrics and recorder. Checkpoints
/// snapshot exactly this.
pub(crate) struct WorkerState {
    pub(crate) caches: Vec<Mutex<Box<dyn Cache + Send>>>,
    pub(crate) inflight: Vec<Mutex<InflightQueue>>,
    pub(crate) cold: Vec<Vec<bool>>,
    pub(crate) metrics: Vec<SystemMetrics>,
    /// Empty when the caller's recorder is disabled.
    pub(crate) recs: Vec<MemoryRecorder>,
}

impl WorkerState {
    fn new(cfg: &StarCdnConfig, num_workers: usize, recording: bool) -> Self {
        let total_slots = cfg.grid.total_slots();
        WorkerState {
            caches: (0..total_slots)
                .map(|_| Mutex::new(cfg.policy.build(cfg.cache_capacity_bytes)))
                .collect(),
            inflight: (0..total_slots).map(|_| Mutex::new(InflightQueue::new())).collect(),
            cold: (0..num_workers).map(|_| vec![false; total_slots]).collect(),
            metrics: (0..num_workers).map(|_| SystemMetrics::default()).collect(),
            recs: if recording {
                (0..num_workers).map(|_| MemoryRecorder::new()).collect()
            } else {
                Vec::new()
            },
        }
    }
}

/// The one sharded driver. Runs the pre-pass, then the workers: in one
/// segment, or — with a checkpoint — in one segment per pre-pass
/// [`ShardCut`], writing a checkpoint after each barrier and, when
/// resuming, starting after the restored one. Modes are selected by
/// [`active_modes`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_sharded(
    cfg: StarCdnConfig,
    base_failures: FailureModel,
    log: LogView<'_>,
    schedule: &FaultSchedule,
    num_workers: usize,
    overload: &OverloadConfig,
    rec: &dyn Recorder,
    checkpoint: Option<(ReplayWriter<'_>, Option<ReplayResume>)>,
) -> Result<SystemMetrics, CheckpointError> {
    assert!(num_workers > 0);
    assert!(
        cfg.prefetch_top_k.is_none(),
        "the sharded replayer does not simulate proactive prefetch; \
         replay prefetch configs on the engine (engine::run_space)"
    );
    let (schedule, overload) = active_modes(schedule, overload);
    let latency = LatencyModel { link: cfg.link_model.clone(), ..LatencyModel::default() };

    // Sequential pre-pass: partition by owner, preserving per-owner
    // order. Route resolution uses the live failure view of each entry's
    // epoch; wipe/cold pseudo-ops land in the owning satellite's stream
    // at the epoch boundary. Unreachable or unroutable requests and the
    // degraded-mode counters are accounted directly there. A resumed run
    // re-runs it in full: it is deterministic, so the shard streams,
    // direct metrics, and cut table come out identical to the original
    // run's.
    let (writer, resume) = checkpoint.map_or((None, None), |(w, r)| (Some(w), r));
    let barrier_every = writer.map(|w| w.every_n_epochs());
    let pre = prepare_shards(
        &cfg,
        &base_failures,
        log,
        schedule,
        num_workers,
        rec,
        overload,
        barrier_every,
    );
    let PrePass { shards, direct, cuts } = pre;

    let mut state = WorkerState::new(&cfg, num_workers, rec.is_enabled());
    let mut starts: Vec<usize> = vec![0; num_workers];
    let mut next_segment = 0usize; // segments are [0, cuts.len()]
    if let Some(resume) = resume {
        let Some(pos) = cuts.iter().position(|c| c.barrier_epoch == resume.barrier_epoch) else {
            return Err(CheckpointError::ConfigMismatch);
        };
        resume.restore(&mut state)?;
        starts = cuts[pos].lens.clone();
        if starts.iter().zip(&shards).any(|(&s, shard)| s > shard.len()) {
            return Err(CheckpointError::State("cut beyond shard stream".into()));
        }
        next_segment = pos + 1;
    }

    let ctx = WorkerCtx {
        caches: &state.caches,
        inflight: &state.inflight,
        grid: &cfg.grid,
        failures: &base_failures,
        latency: &latency,
        relay: cfg.relay,
        delayed: cfg.delayed,
        probe: cfg.probe_neighbors_on_miss,
        span: cfg.relay_span_planes(),
        spp: cfg.grid.sats_per_plane,
    };
    for seg in next_segment..=cuts.len() {
        let ends: Vec<usize> = match cuts.get(seg) {
            Some(cut) => cut.lens.clone(),
            None => shards.iter().map(Vec::len).collect(),
        };
        let (ctx_ref, starts_ref, ends_ref, shards_ref) = (&ctx, &starts, &ends, &shards);
        let recs = &state.recs;
        // Per-worker recorders: workers never touch the shared `rec`, so
        // the hot path has no cross-thread contention.
        thread::scope(|s| {
            let handles: Vec<_> = state
                .metrics
                .iter_mut()
                .zip(state.cold.iter_mut())
                .enumerate()
                .map(|(w, (m, cold))| {
                    s.spawn(move |_| {
                        let wrec = recs.get(w);
                        let _shard_span =
                            wrec.map(|r| SpanTimer::start(r, Stage::ReplayShard, w as u64));
                        let ops = &shards_ref[w][starts_ref[w]..ends_ref[w]];
                        run_shard_ops(ops, ctx_ref, m, cold, wrec);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("worker panicked");
            }
        })
        .expect("replayer scope");
        // All workers joined: a snapshot here is globally consistent.
        if let (Some(cut), Some(w)) = (cuts.get(seg), writer) {
            w.write(cut.barrier_epoch, &state)?;
        }
        starts = ends;
    }

    // Deterministic telemetry merge: snapshot each worker recorder in
    // shard index order, fold into one snapshot, absorb once. The shard
    // streams themselves are deterministic, so the merged snapshot is
    // bit-for-bit stable across runs and worker interleavings.
    if rec.is_enabled() {
        let mut merged = TelemetrySnapshot::default();
        for wr in &state.recs {
            merged.merge(&wr.snapshot());
        }
        rec.absorb(&merged);
    }
    let mut total = direct;
    for m in &state.metrics {
        total.merge(m);
    }
    Ok(total)
}

// ---------------------------------------------------------------------------
// Shard-op wire codec (used by the socket serving plane in `crate::serve`).
//
// `ResolvedEntry`'s fields are private to this module, so the byte codec
// lives here next to the struct: the serving plane ships pre-resolved op
// streams over TCP and must decode them without ever panicking on
// hostile input.
// ---------------------------------------------------------------------------

const OP_REQUEST: u8 = 0;
const OP_WIPE: u8 = 1;
const OP_MARK_COLD: u8 = 2;

/// Append one shard op to `w` (tag byte + fields, little-endian; floats
/// travel as bit patterns so replay stays bit-exact).
pub(crate) fn put_shard_op(w: &mut crate::checkpoint::ByteWriter, op: &ShardOp) {
    match op {
        ShardOp::Request(e) => {
            w.u8(OP_REQUEST);
            w.u64(e.object.0);
            w.u64(e.size);
            w.u16(e.owner.orbit);
            w.u16(e.owner.slot);
            w.u16(e.intra);
            w.u16(e.inter);
            w.f64_bits(e.gsl_oneway_ms);
            w.f64_bits(e.penalty_ms);
            w.u8(match e.replica {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
            w.u64(e.epoch);
        }
        ShardOp::Wipe(idx) => {
            w.u8(OP_WIPE);
            w.u64(*idx as u64);
        }
        ShardOp::MarkCold(idx) => {
            w.u8(OP_MARK_COLD);
            w.u64(*idx as u64);
        }
    }
}

/// Decode one shard op. Slot indices and owner ids are validated against
/// `total_slots` (with `spp` = sats per plane) so a corrupt or hostile
/// stream becomes a typed error instead of an out-of-bounds panic in
/// [`run_shard_ops`].
pub(crate) fn get_shard_op(
    r: &mut crate::checkpoint::ByteReader<'_>,
    spp: u16,
    total_slots: usize,
) -> Result<ShardOp, crate::checkpoint::CheckpointError> {
    use crate::checkpoint::CheckpointError;
    match r.u8()? {
        OP_REQUEST => {
            let object = starcdn_cache::object::ObjectId(r.u64()?);
            let size = r.u64()?;
            let owner = starcdn_orbit::walker::SatelliteId::new(r.u16()?, r.u16()?);
            let intra = r.u16()?;
            let inter = r.u16()?;
            let gsl_oneway_ms = r.f64_bits()?;
            let penalty_ms = r.f64_bits()?;
            let replica = match r.u8()? {
                0 => None,
                1 => Some(false),
                2 => Some(true),
                _ => return Err(CheckpointError::Malformed("bad replica tag")),
            };
            let epoch = r.u64()?;
            if owner.index(spp) >= total_slots {
                return Err(CheckpointError::Malformed("op owner out of range"));
            }
            Ok(ShardOp::Request(ResolvedEntry {
                object,
                size,
                owner,
                intra,
                inter,
                gsl_oneway_ms,
                penalty_ms,
                replica,
                epoch,
            }))
        }
        OP_WIPE => {
            let idx = r.u64()? as usize;
            if idx >= total_slots {
                return Err(CheckpointError::Malformed("wipe slot out of range"));
            }
            Ok(ShardOp::Wipe(idx))
        }
        OP_MARK_COLD => {
            let idx = r.u64()? as usize;
            if idx >= total_slots {
                return Err(CheckpointError::Malformed("mark-cold slot out of range"));
            }
            Ok(ShardOp::MarkCold(idx))
        }
        _ => Err(CheckpointError::Malformed("unknown shard op tag")),
    }
}

/// Origin bent-pipe accounting for one degraded request: the serving
/// plane charges an op it could not deliver to a shard exactly like the
/// engine's `Partitioned` path (uplink on the request's GSL, zero ISL
/// hops), attributed to the resolved owner.
pub(crate) fn degrade_op_to_origin(op: &ShardOp, latency: &LatencyModel, m: &mut SystemMetrics) {
    if let ShardOp::Request(e) = op {
        let base = latency.ground_miss_rtt_ms(e.gsl_oneway_ms, 0, 0, 0);
        let lat = if e.penalty_ms > 0.0 { base + e.penalty_ms } else { base };
        m.record(e.owner, ServedFrom::Ground, e.size, lat);
        m.partitioned_requests += 1;
    }
}

fn neighbor_contains(
    ctx: &WorkerCtx<'_>,
    owner: starcdn_orbit::walker::SatelliteId,
    west: bool,
    object: starcdn_cache::object::ObjectId,
) -> bool {
    let slot =
        if west { ctx.grid.west_by(owner, ctx.span) } else { ctx.grid.east_by(owner, ctx.span) };
    ctx.failures
        .resolve_owner(ctx.grid, slot)
        .filter(|&s| s != owner)
        .map(|s| ctx.caches[s.index(ctx.spp)].lock().contains(object))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_log::build_access_log;
    use crate::engine::{run_space, run_space_with_faults, SimConfig};
    use crate::world::World;
    use spacegen::trace::{LocationId, Request, Trace};
    use starcdn::system::SpaceCdn;
    use starcdn_cache::object::ObjectId;
    use starcdn_constellation::schedule::{FaultEvent, TimedFault};
    use starcdn_orbit::time::SimTime;

    fn log() -> AccessLog {
        let w = World::starlink_nine_cities();
        let reqs: Vec<Request> = (0..3000u64)
            .map(|k| Request {
                time: SimTime::from_secs(k / 6),
                object: ObjectId((k * 7919) % 200),
                size: 500 + (k % 5) * 100,
                location: LocationId((k % 9) as u16),
            })
            .collect();
        build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler())
    }

    #[test]
    fn matches_engine_exactly_without_relay() {
        let log = log();
        for cfg in [StarCdnConfig::starcdn_no_relay(4, 100_000), StarCdnConfig::naive_lru(100_000)]
        {
            let mut seq = SpaceCdn::new(cfg.clone());
            let m_seq = run_space(&mut seq, &log);
            let m_par = replay_parallel(cfg, FailureModel::none(), &log, 4);
            assert_eq!(m_seq.stats, m_par.stats);
            assert_eq!(m_seq.uplink_bytes, m_par.uplink_bytes);
            assert_eq!(m_seq.served_local, m_par.served_local);
            // Per-satellite stats identical too.
            assert_eq!(m_seq.per_satellite, m_par.per_satellite);
        }
    }

    #[test]
    fn close_to_engine_with_relay() {
        let log = log();
        let cfg = StarCdnConfig::starcdn(4, 100_000);
        let mut seq = SpaceCdn::new(cfg.clone());
        let m_seq = run_space(&mut seq, &log);
        let m_par = replay_parallel(cfg, FailureModel::none(), &log, 4);
        assert_eq!(m_par.stats.requests, m_seq.stats.requests);
        let d = (m_par.stats.request_hit_rate() - m_seq.stats.request_hit_rate()).abs();
        assert!(d < 0.05, "parallel RHR deviates by {d}");
    }

    #[test]
    fn single_worker_degenerate_case() {
        let log = log();
        let cfg = StarCdnConfig::starcdn_no_relay(9, 50_000);
        let m1 = replay_parallel(cfg.clone(), FailureModel::none(), &log, 1);
        let m8 = replay_parallel(cfg, FailureModel::none(), &log, 8);
        assert_eq!(m1.stats, m8.stats);
    }

    #[test]
    fn handles_failures() {
        let log = log();
        let w = World::starlink_nine_cities();
        let failures = FailureModel::sample(&w.grid, 126, 3);
        let cfg = StarCdnConfig::starcdn_no_relay(9, 100_000);
        let mut seq = SpaceCdn::with_failures(cfg.clone(), failures.clone());
        let m_seq = run_space(&mut seq, &log);
        let m_par = replay_parallel(cfg, failures, &log, 4);
        assert_eq!(m_seq.stats, m_par.stats);
        assert_eq!(m_seq.remapped_requests, m_par.remapped_requests);
        assert_eq!(m_seq.reroute_extra_hops, m_par.reroute_extra_hops);
    }

    #[test]
    fn empty_schedule_matches_static_path() {
        let log = log();
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let m_static = replay_parallel(cfg.clone(), FailureModel::none(), &log, 4);
        let m_sched = replay_parallel_with_faults(
            cfg,
            FailureModel::none(),
            &log,
            &FaultSchedule::empty(),
            4,
        );
        assert_eq!(m_static.stats, m_sched.stats);
        assert_eq!(m_static.per_satellite, m_sched.per_satellite);
        assert!(m_sched.availability.is_empty());
    }

    #[test]
    fn churn_matches_engine_exactly_without_relay() {
        let log = log();
        let w = World::starlink_nine_cities();
        // A handful of restarts among the satellites actually serving
        // traffic, plus a background of random failures.
        let busy: Vec<_> = {
            let mut probe = SpaceCdn::new(StarCdnConfig::starcdn_no_relay(4, 100_000));
            run_space(&mut probe, &log);
            let mut sats: Vec<_> =
                probe.metrics.per_satellite.iter().map(|(s, st)| (*s, st.requests)).collect();
            sats.sort_by_key(|(s, r)| (std::cmp::Reverse(*r), *s));
            sats.into_iter().take(6).map(|(s, _)| s).collect()
        };
        let mut events = Vec::new();
        for (i, &s) in busy.iter().enumerate() {
            events.push(TimedFault { at_secs: 60 + 15 * i as u64, event: FaultEvent::SatDown(s) });
            events.push(TimedFault { at_secs: 240 + 15 * i as u64, event: FaultEvent::SatUp(s) });
        }
        let sched = FaultSchedule::from_events(events);
        let base = FailureModel::sample(&w.grid, 20, 9);

        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let mut seq = SpaceCdn::with_failures(cfg.clone(), base.clone());
        let m_seq = run_space_with_faults(&mut seq, &log, &sched);
        for workers in [1, 4] {
            let m_par =
                replay_parallel_with_faults(cfg.clone(), base.clone(), &log, &sched, workers);
            assert_eq!(m_seq.stats, m_par.stats, "{workers} workers");
            assert_eq!(m_seq.per_satellite, m_par.per_satellite);
            assert_eq!(m_seq.uplink_bytes, m_par.uplink_bytes);
            assert_eq!(m_seq.cold_restart_misses, m_par.cold_restart_misses);
            assert_eq!(m_seq.remapped_requests, m_par.remapped_requests);
            assert_eq!(m_seq.reroute_extra_hops, m_par.reroute_extra_hops);
            assert_eq!(m_seq.availability, m_par.availability);
        }
    }

    #[test]
    fn delayed_matches_engine_exactly_without_relay() {
        use starcdn::config::DelayedHitConfig;
        // Single location: the first contact is stable within a scheduler
        // epoch, so same-epoch repeats land on one owner and coalesce;
        // the small capacity keeps misses (and fetches) going all run.
        let w = World::starlink_nine_cities();
        let reqs: Vec<Request> = (0..3000u64)
            .map(|k| Request {
                time: SimTime::from_secs(k / 6),
                object: ObjectId((k * 7919) % 50),
                size: 500 + (k % 5) * 100,
                location: LocationId(0),
            })
            .collect();
        let log = build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler());
        let cfg = StarCdnConfig::starcdn_no_relay(4, 20_000)
            .with_delayed_hits(DelayedHitConfig::with_latency(2, 40.0));
        let mut seq = SpaceCdn::new(cfg.clone());
        let m_seq = run_space(&mut seq, &log);
        assert!(m_seq.delayed_hits > 0, "trace must exercise coalescing");
        for workers in [1, 4] {
            let m_par = replay_parallel(cfg.clone(), FailureModel::none(), &log, workers);
            assert_eq!(m_seq.stats, m_par.stats, "{workers} workers");
            assert_eq!(m_seq.delayed_hits, m_par.delayed_hits);
            assert_eq!(m_seq.coalesced_requests, m_par.coalesced_requests);
            assert_eq!(m_seq.residual_epoch_hist, m_par.residual_epoch_hist);
            assert_eq!(m_seq.per_satellite, m_par.per_satellite);
            assert_eq!(m_seq.uplink_bytes, m_par.uplink_bytes);
            let mut a: Vec<u64> = m_seq.latencies_ms.iter().map(|l| l.to_bits()).collect();
            let mut b: Vec<u64> = m_par.latencies_ms.iter().map(|l| l.to_bits()).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "latency multiset identical at {workers} workers");
        }
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        replay_parallel(
            StarCdnConfig::naive_lru(10),
            FailureModel::none(),
            &AccessLog::default(),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "does not simulate proactive prefetch")]
    fn prefetch_configs_rejected() {
        let cfg = StarCdnConfig::starcdn_prefetch(4, 100_000, 8);
        replay_parallel(cfg, FailureModel::none(), &log(), 2);
    }
}
