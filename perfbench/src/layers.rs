//! Calls into single layers, each wrapped in a tracer span: the shared
//! set-up (SpaceGEN model, trace, world) and the per-layer probes the
//! traced run uses to split the pipeline's time by layer.

use crate::tracer::Tracer;
use crate::Opts;
use spacegen::classes::TrafficClass;
use spacegen::production::ProductionModel;
use spacegen::trace::{Location, Trace};
use starcdn::config::StarCdnConfig;
use starcdn::metrics::SystemMetrics;
use starcdn::system::{RouteOutcome, SpaceCdn};
use starcdn_cache::{AccessOutcome, Cache};
use starcdn_constellation::schedule::{ChurnParams, FaultSchedule, ScheduleCursor};
use starcdn_net::{Frame, FrameCodec};
use starcdn_orbit::coords::Geodetic;
use starcdn_orbit::time::{SimDuration, SimTime};
use starcdn_orbit::visibility::{visible_top_k_into, VisScratch, VisibleSatellite};
use starcdn_sim::columns::AccessLogColumns;
use starcdn_sim::scheduler::{
    schedule_epoch_into, EpochSchedule, ScheduleScratch, SchedulerConfig,
};
use starcdn_sim::{ServePlan, World};
use std::hint::black_box;

/// Scheduler epoch, seconds (Starlink reconfigures every 15 s).
pub const EPOCH_SECS: u64 = 15;

/// Everything a workload builds before its timed pipeline.
pub struct Setup {
    pub trace: Trace,
    pub world: World,
    /// Unique bytes of the trace: the base of the "GB" cache labels.
    pub working_set: u64,
}

/// Churn used by the fault workload: satellites only, mean 6 h between
/// failures and 10 min to repair, over the whole trace.
pub fn churn_params(opts: &Opts) -> ChurnParams {
    let horizon = opts.scale.trace_hours() * 3600;
    ChurnParams::sats_only(6.0 * 3600.0, 600.0, horizon, opts.seed ^ 0xC4_0C4)
}

/// Seed of the SpaceGEN production model: the content catalog (object
/// sizes, popularity, language groups) is part of a workload's
/// definition, as a CDN's customer catalog is. `--seed` draws the request
/// trace from it. Byte-weighted outcomes such as the uplink fraction are
/// dominated by a few large popular objects, so a catalog drawn per seed
/// would swing them by ±15 % between seeds.
pub const CATALOG_SEED: u64 = 42;

/// SpaceGEN model build, trace generation and world, as
/// `starcdn_bench::workload::Workload::build` makes them (with the model
/// from [`CATALOG_SEED`]), the two SpaceGEN stages in separate spans.
pub fn setup(class: TrafficClass, churn: Option<ChurnParams>, opts: &Opts, tr: &Tracer) -> Setup {
    let locations = Location::akamai_nine();
    let mut params = class.params().scaled(opts.scale.catalog_factor());
    params.base_rate_per_loc_hz = class.params().base_rate_per_loc_hz * opts.scale.rate_factor();
    let model = tr
        .span("spacegen.model_build", || ProductionModel::build(params, &locations, CATALOG_SEED));
    let trace = tr.span("spacegen.trace_gen", || {
        model.generate_trace(SimDuration::from_hours(opts.scale.trace_hours()), opts.seed)
    });
    let working_set = tr.span("setup.working_set", || trace.unique_objects().1);
    let world = tr.span("setup.world", || {
        let world = World::starlink_nine_cities();
        match churn {
            Some(p) => {
                let schedule = FaultSchedule::churn(&world.grid, &p);
                world.with_fault_schedule(schedule)
            }
            None => world,
        }
    });
    Setup { trace, world, working_set }
}

/// Orbit propagation, visibility and scheduling over every epoch the
/// trace touches, as the access-log builder walks them, with the
/// world's fault schedule applied to the scheduler's failure view.
/// Spans: `orbit.propagate`, `orbit.visibility`, `scheduler.schedule`
/// (the last includes the scheduler's own visibility scan).
pub fn orbit_and_schedule(world: &World, trace: &Trace, cfg: &SchedulerConfig, tr: &Tracer) {
    let mut epochs: Vec<u64> =
        trace.requests.iter().map(|r| r.time.as_secs() / EPOCH_SECS).collect();
    epochs.dedup();
    let grounds: Vec<Geodetic> =
        world.locations.iter().map(|l| Geodetic::from_degrees(l.lat_deg, l.lon_deg, 0.0)).collect();
    let mut snapshot = world.snapshot();
    let mut cursor = ScheduleCursor::new(&world.schedule, world.failures.clone());
    let mut vis_scratch = VisScratch::default();
    let mut visible: Vec<VisibleSatellite> = Vec::new();
    let mut sched_scratch = ScheduleScratch::default();
    let mut schedule = EpochSchedule::default();
    for epoch in epochs {
        let t = epoch * EPOCH_SECS;
        tr.span("orbit.propagate", || snapshot.advance_to(SimTime::from_secs(t)));
        cursor.advance_to(t);
        let view = cursor.view();
        tr.span("orbit.visibility", || {
            for g in &grounds {
                visible_top_k_into(
                    &world.satellites,
                    snapshot.positions_soa(),
                    *g,
                    cfg.min_elevation_deg,
                    cfg.top_k.max(1),
                    |id| view.is_alive(id),
                    &mut vis_scratch,
                    &mut visible,
                );
                black_box(visible.len());
            }
        });
        tr.span("scheduler.schedule", || {
            schedule_epoch_into(
                world,
                &snapshot,
                epoch,
                cfg,
                view,
                &starcdn_telemetry::Noop,
                &mut sched_scratch,
                &mut schedule,
            )
        });
        black_box(&schedule);
    }
}

/// Owners resolved by the route probe, one per log entry (`u32::MAX` =
/// no owner), plus the degraded-mode counts.
pub struct Routes {
    pub owners: Vec<u32>,
    pub remapped: u64,
    pub partitioned: u64,
}

/// `SpaceCdn::resolve_route` for every log entry, in one span called
/// `span`. With a fault schedule the live failure view is swapped in at
/// every epoch where it changes (through `set_failures`, as the engine
/// does), and the three-way `classify_route` form counts partitions.
pub fn resolve_routes(
    cfg: &StarCdnConfig,
    cols: &AccessLogColumns,
    schedule: Option<&FaultSchedule>,
    span: &'static str,
    tr: &Tracer,
) -> Routes {
    let mut cdn = SpaceCdn::new(cfg.clone());
    let spp = cfg.grid.sats_per_plane;
    let mut owners = Vec::with_capacity(cols.len());
    let (mut remapped, mut partitioned) = (0u64, 0u64);
    tr.span(span, || match schedule {
        None => {
            for e in cols.iter() {
                let route = e.first_contact.and_then(|fc| cdn.resolve_route(fc, e.object));
                if route.is_some_and(|r| r.remapped) {
                    remapped += 1;
                }
                owners.push(route.map_or(u32::MAX, |r| r.owner.index(spp) as u32));
            }
        }
        Some(schedule) => {
            let mut cursor = ScheduleCursor::new(schedule, cdn.failures().clone());
            let mut current = u64::MAX;
            for e in cols.iter() {
                let epoch = e.time.as_secs() / EPOCH_SECS;
                if epoch != current {
                    current = epoch;
                    if !cursor.advance_to(epoch * EPOCH_SECS).is_empty() {
                        cdn.set_failures(cursor.view().clone());
                    }
                }
                let owner = match e.first_contact.map(|fc| cdn.classify_route(fc, e.object)) {
                    Some(RouteOutcome::Routed(r)) => {
                        remapped += r.remapped as u64;
                        r.owner.index(spp) as u32
                    }
                    Some(RouteOutcome::Partitioned { .. }) => {
                        partitioned += 1;
                        u32::MAX
                    }
                    _ => u32::MAX,
                };
                owners.push(owner);
            }
        }
    });
    Routes { owners, remapped, partitioned }
}

/// The owner stream fed through the `Cache` trait: one cache per slot of
/// the configured policy and capacity, no relay, wipes or delayed hits.
/// Span `cache.access`. Returns (hits, accesses).
pub fn cache_access(
    cfg: &StarCdnConfig,
    cols: &AccessLogColumns,
    owners: &[u32],
    tr: &Tracer,
) -> (u64, u64) {
    let mut caches: Vec<Box<dyn Cache + Send>> =
        (0..cfg.grid.total_slots()).map(|_| cfg.policy.build(cfg.cache_capacity_bytes)).collect();
    let (mut hits, mut accesses) = (0u64, 0u64);
    tr.span("cache.access", || {
        for (e, &owner) in cols.iter().zip(owners) {
            if owner == u32::MAX {
                continue;
            }
            accesses += 1;
            if caches[owner as usize].access(e.object, e.size) == AccessOutcome::Hit {
                hits += 1;
            }
        }
    });
    (hits, accesses)
}

/// Every batch of `plan` framed as `Frame::Ops`, pushed through a
/// `FrameCodec` and decoded, in process. Span `net.codec`. Returns
/// (frames, wire bytes, frames whose payload did not survive).
pub fn frame_codec(plan: &ServePlan, tr: &Tracer) -> (u64, u64, u64) {
    let (mut frames, mut bytes, mut corrupt) = (0u64, 0u64, 0u64);
    tr.span("net.codec", || {
        let mut codec = FrameCodec::new();
        for shard in 0..plan.num_shards() {
            for b in 0..plan.batch_count(shard) {
                let payload = plan.batch_bytes(shard, b);
                let wire = Frame::Ops { seq: b as u64, payload: payload.to_vec() }.encode();
                bytes += wire.len() as u64;
                frames += 1;
                codec.push(&wire);
                match codec.next_frame() {
                    Ok(Some(Frame::Ops { payload: back, .. })) if back == payload => {}
                    _ => corrupt += 1,
                }
            }
        }
    });
    (frames, bytes, corrupt)
}

/// Every shard of `plan` replayed in process: a fresh `ShardState` fed
/// each batch of its shard, then `drain_bytes()`. Returns the largest
/// drain payload (the `DrainAck` frame a shard server would send) and the
/// merged metrics the serve would return, or `None` if a batch fails to
/// apply.
pub fn shard_drains(plan: &ServePlan) -> Option<(u64, SystemMetrics)> {
    let mut max = 0u64;
    let mut merged = plan.direct_metrics().clone();
    for shard in 0..plan.num_shards() {
        let mut state = plan.shard_state(false);
        for b in 0..plan.batch_count(shard) {
            state.apply_batch(plan.batch_bytes(shard, b)).ok()?;
        }
        max = max.max(state.drain_bytes().len() as u64);
        merged.merge(state.metrics());
    }
    Some((max, merged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use starcdn_bench::workload::Workload;
    use starcdn_bench::{Args, Scale};

    fn smoke() -> Opts {
        Opts { seed: CATALOG_SEED, seconds: 0.0, trace: false, scale: Scale::Smoke, threads: 2 }
    }

    #[test]
    fn setup_matches_workload_build() {
        let opts = smoke();
        let s = setup(TrafficClass::Video, None, &opts, &Tracer::new(false));
        let w = Workload::build(TrafficClass::Video, Args { scale: Scale::Smoke, seed: opts.seed });
        assert_eq!(s.trace, w.production);
        assert_eq!(s.working_set, w.production.unique_objects().1);
        assert!(s.world.schedule.is_empty());
    }
}
