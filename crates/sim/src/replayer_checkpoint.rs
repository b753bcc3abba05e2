//! Checkpoint/resume for the parallel cache replayer.
//!
//! The replayer's sequential pre-pass ([`crate::replayer::prepare_shards`])
//! is deterministic and cheap relative to the cache work, so a resumed
//! run simply re-runs it in full to rebuild the shard streams, the
//! directly-accounted metrics, and the segment cut table. Only the
//! `WorkerState` is persisted: every slot's cache contents, each
//! worker's cold-satellite flags, accumulated metrics, and telemetry
//! recorder.
//!
//! Given a `ReplayWriter`, the sharded driver
//! (`crate::replayer::drive_sharded`) segments execution at the
//! pre-pass's cut barriers (one per `every_n_epochs` scheduler epochs):
//! all workers join at the barrier — so the snapshot is globally
//! consistent even with relay probes reading neighbour caches across
//! shards — and `ReplayWriter::write` stores it with the same
//! atomic-rename/CRC container as the engine's ([`crate::checkpoint`],
//! KIND_REPLAY). Per-shard streams are replayed in order, so the
//! checkpointed run's output is bit-for-bit identical to the
//! non-checkpointed one for configurations whose parallel replay is
//! itself deterministic (no-relay; relay configs keep the usual bounded
//! skew).
//!
//! Resume restores per-worker state in shard index order (the
//! shard-and-merge determinism rule, DESIGN.md §9), so a resumed run
//! matches the uninterrupted one at any worker count.

use crate::access_log::AccessLog;
use crate::checkpoint::{
    decode_container, encode_container, fp, fp_bytes, get_cache_state, get_inflight, get_metrics,
    get_telemetry, list_checkpoint_files_io, put_cache_state, put_inflight, put_metrics,
    put_telemetry, sweep_stale_tmps_io, write_atomic, ByteReader, ByteWriter, CheckpointError,
    CheckpointPolicy, RawCheckpoint, KIND_REPLAY,
};
use crate::engine::active_modes;
use crate::overload::OverloadConfig;
use crate::replayer::{drive_sharded, WorkerState};
use parking_lot::Mutex;
use starcdn::config::StarCdnConfig;
use starcdn::metrics::SystemMetrics;
use starcdn_cache::{CacheState, InflightQueue, InflightState};
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::FaultSchedule;
use starcdn_io::{Io, RealIo};
use starcdn_telemetry::{Event, Recorder, TelemetrySnapshot};
use std::path::Path;

/// Fingerprint of everything a replayer checkpoint must agree with the
/// resuming run about. Unlike the engine fingerprint this includes the
/// worker count (shard assignment is `owner % num_workers`) and the
/// static base failure set (it shapes routing and the relay view).
fn replay_fingerprint(
    cfg: &StarCdnConfig,
    base_failures: &FailureModel,
    epoch_secs: u64,
    schedule: Option<&FaultSchedule>,
    overload: Option<&OverloadConfig>,
    num_workers: usize,
) -> u64 {
    let mut h = 0x6272_6F77_6E66_6F78u64; // distinct seed from the engine's
    h = fp_bytes(h, cfg.policy.name().as_bytes());
    h = fp(h, cfg.cache_capacity_bytes);
    h = fp(h, cfg.grid.total_slots() as u64);
    h = fp(h, cfg.num_buckets.map_or(0, |b| 1 + b as u64));
    h = fp(h, cfg.relay_span_planes() as u64);
    h = fp(h, cfg.relay.enabled() as u64);
    h = fp(h, cfg.remap_on_failure as u64);
    h = fp(h, cfg.probe_neighbors_on_miss as u64);
    h = fp(h, epoch_secs);
    h = fp(h, schedule.map_or(0, |s| s.len() as u64));
    h = fp(h, overload.map_or(0, |o| 1 + o.headroom.to_bits()));
    h = fp(h, num_workers as u64);
    h = fp(h, cfg.delayed.fetch_epochs);
    h = fp(h, cfg.delayed.wait_ms_per_epoch.to_bits());
    h = fp(h, cfg.delayed.origin_tiers);
    for s in base_failures.dead() {
        h = fp(h, ((s.orbit as u64) << 16) | s.slot as u64);
    }
    for (a, b) in base_failures.cut_links() {
        h = fp(
            h,
            ((a.orbit as u64) << 48)
                | ((a.slot as u64) << 32)
                | ((b.orbit as u64) << 16)
                | b.slot as u64,
        );
    }
    h
}

struct ReplayMeta {
    fingerprint: u64,
    barrier_epoch: u64,
    num_workers: u64,
    total_slots: u64,
}

fn encode_replay_meta(m: &ReplayMeta) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(m.fingerprint);
    w.u64(m.barrier_epoch);
    w.u64(m.num_workers);
    w.u64(m.total_slots);
    w.into_bytes()
}

fn decode_replay_meta(bytes: &[u8]) -> Result<ReplayMeta, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let m = ReplayMeta {
        fingerprint: r.u64()?,
        barrier_epoch: r.u64()?,
        num_workers: r.u64()?,
        total_slots: r.u64()?,
    };
    r.finish()?;
    Ok(m)
}

struct ReplayBody {
    caches: Vec<CacheState>,
    /// Per-slot outstanding-fetch queues (DESIGN.md §14), snapshotted at
    /// the same barrier as the caches; empty when the model is off.
    inflight: Vec<InflightState>,
    /// Per worker: cold flags and accumulated metrics, shard index order.
    cold: Vec<Vec<bool>>,
    metrics: Vec<SystemMetrics>,
}

fn encode_replay_body(b: &ReplayBody) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.len(b.caches.len());
    for c in &b.caches {
        put_cache_state(&mut w, c);
    }
    w.len(b.inflight.len());
    for q in &b.inflight {
        put_inflight(&mut w, q);
    }
    w.len(b.cold.len());
    for worker in &b.cold {
        w.len(worker.len());
        for &c in worker {
            w.boolean(c);
        }
    }
    w.len(b.metrics.len());
    for m in &b.metrics {
        put_metrics(&mut w, m);
    }
    w.into_bytes()
}

fn decode_replay_body(bytes: &[u8]) -> Result<ReplayBody, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let nc = r.len()?;
    let mut caches = Vec::with_capacity(nc);
    for _ in 0..nc {
        caches.push(get_cache_state(&mut r)?);
    }
    let nq = r.len()?;
    let mut inflight = Vec::with_capacity(nq);
    for _ in 0..nq {
        inflight.push(get_inflight(&mut r)?);
    }
    let nw = r.len()?;
    let mut cold = Vec::with_capacity(nw);
    for _ in 0..nw {
        let n = r.len()?;
        let mut worker = Vec::with_capacity(n);
        for _ in 0..n {
            worker.push(r.boolean()?);
        }
        cold.push(worker);
    }
    let nm = r.len()?;
    let mut metrics = Vec::with_capacity(nm);
    for _ in 0..nm {
        metrics.push(get_metrics(&mut r)?);
    }
    r.finish()?;
    Ok(ReplayBody { caches, inflight, cold, metrics })
}

fn encode_worker_telemetry(snaps: &[TelemetrySnapshot]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.len(snaps.len());
    for s in snaps {
        put_telemetry(&mut w, s);
    }
    w.into_bytes()
}

fn decode_worker_telemetry(bytes: &[u8]) -> Result<Vec<TelemetrySnapshot>, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_telemetry(&mut r)?);
    }
    r.finish()?;
    Ok(out)
}

/// Structural validation of a KIND_REPLAY container's sections, used by
/// [`crate::checkpoint::validate_checkpoint_bytes`].
pub(crate) fn validate_sections(raw: &RawCheckpoint) -> Result<(), CheckpointError> {
    decode_replay_meta(&raw.meta)?;
    decode_replay_body(&raw.body)?;
    decode_worker_telemetry(&raw.telemetry)?;
    Ok(())
}

/// The checkpoint writer of one [`drive_sharded`] run: where and how
/// often to write, and what to stamp into each file.
#[derive(Clone, Copy)]
pub(crate) struct ReplayWriter<'a> {
    policy: &'a CheckpointPolicy,
    io: &'a dyn Io,
    fingerprint: u64,
    total_slots: usize,
}

impl<'a> ReplayWriter<'a> {
    /// The writer for a run with these inputs (modes by [`active_modes`]).
    #[allow(clippy::too_many_arguments)]
    fn new(
        cfg: &StarCdnConfig,
        failures: &FailureModel,
        log: &AccessLog,
        schedule: &FaultSchedule,
        num_workers: usize,
        overload: &OverloadConfig,
        policy: &'a CheckpointPolicy,
        io: &'a dyn Io,
    ) -> Self {
        let (sched, ov) = active_modes(schedule, overload);
        let epoch_secs = log.epoch_secs.max(1);
        ReplayWriter {
            policy,
            io,
            fingerprint: replay_fingerprint(cfg, failures, epoch_secs, sched, ov, num_workers),
            total_slots: cfg.grid.total_slots(),
        }
    }

    /// The pre-pass records a cut every this many scheduler epochs.
    pub(crate) fn every_n_epochs(self) -> u64 {
        self.policy.every_n_epochs.max(1)
    }

    /// Write the checkpoint for the barrier at `barrier_epoch`; every
    /// worker has joined, so `state` is globally consistent.
    pub(crate) fn write(
        &self,
        barrier_epoch: u64,
        state: &WorkerState,
    ) -> Result<(), CheckpointError> {
        let body = ReplayBody {
            caches: state.caches.iter().map(|c| c.lock().to_state()).collect(),
            inflight: state.inflight.iter().map(|q| q.lock().to_state()).collect(),
            cold: state.cold.clone(),
            metrics: state.metrics.clone(),
        };
        let meta = ReplayMeta {
            fingerprint: self.fingerprint,
            barrier_epoch,
            num_workers: state.metrics.len() as u64,
            total_slots: self.total_slots as u64,
        };
        let snaps: Vec<TelemetrySnapshot> = state.recs.iter().map(|r| r.snapshot()).collect();
        let bytes = encode_container(
            KIND_REPLAY,
            &encode_replay_meta(&meta),
            &encode_replay_body(&body),
            &encode_worker_telemetry(&snaps),
        );
        write_atomic(self.io, &self.policy.dir, barrier_epoch, &bytes, self.policy.keep_last)
    }
}

/// A loaded replayer checkpoint, restored at the cut of its barrier.
pub(crate) struct ReplayResume {
    pub(crate) barrier_epoch: u64,
    body: ReplayBody,
    telemetry: Vec<TelemetrySnapshot>,
}

impl ReplayResume {
    /// Restore the worker-side state, in shard index order.
    pub(crate) fn restore(self, state: &mut WorkerState) -> Result<(), CheckpointError> {
        for (slot, cache) in self.body.caches.into_iter().enumerate() {
            let built = cache
                .build()
                .map_err(|e| CheckpointError::State(format!("cache slot {slot}: {e:?}")))?;
            state.caches[slot] = Mutex::new(built);
        }
        for (slot, qs) in self.body.inflight.iter().enumerate() {
            let q = InflightQueue::from_state(qs)
                .map_err(|e| CheckpointError::State(format!("inflight slot {slot}: {e:?}")))?;
            state.inflight[slot] = Mutex::new(q);
        }
        state.cold = self.body.cold;
        state.metrics = self.body.metrics;
        for (r, snap) in state.recs.iter().zip(&self.telemetry) {
            r.absorb(snap);
        }
        Ok(())
    }
}

/// [`crate::replayer::replay_parallel_overloaded_recorded`] with
/// crash-consistent checkpoints every `policy.every_n_epochs` scheduler
/// epochs. Selects modes exactly like the non-checkpointed entry point:
/// an empty schedule disables churn, a disabled `overload` disables the
/// admission lifecycle.
#[allow(clippy::too_many_arguments)]
pub fn replay_parallel_checkpointed(
    cfg: StarCdnConfig,
    failures: FailureModel,
    log: &AccessLog,
    schedule: &FaultSchedule,
    num_workers: usize,
    overload: &OverloadConfig,
    policy: &CheckpointPolicy,
    rec: &dyn Recorder,
) -> Result<SystemMetrics, CheckpointError> {
    replay_parallel_checkpointed_io(
        cfg,
        failures,
        log,
        schedule,
        num_workers,
        overload,
        policy,
        rec,
        &RealIo,
    )
}

/// [`replay_parallel_checkpointed`] over an explicit [`Io`] — the seam
/// the storage-fault torture harness drives.
#[allow(clippy::too_many_arguments)]
pub fn replay_parallel_checkpointed_io(
    cfg: StarCdnConfig,
    failures: FailureModel,
    log: &AccessLog,
    schedule: &FaultSchedule,
    num_workers: usize,
    overload: &OverloadConfig,
    policy: &CheckpointPolicy,
    rec: &dyn Recorder,
    io: &dyn Io,
) -> Result<SystemMetrics, CheckpointError> {
    sweep_stale_tmps_io(io, &policy.dir);
    let w = ReplayWriter::new(&cfg, &failures, log, schedule, num_workers, overload, policy, io);
    drive_sharded(cfg, failures, log.view(), schedule, num_workers, overload, rec, Some((w, None)))
}

/// Resume an interrupted [`replay_parallel_checkpointed`] run from the
/// newest valid checkpoint in `policy.dir`. The pre-pass is re-run in
/// full (it is deterministic); per-worker state is restored in shard
/// index order, so the final metrics and telemetry are bit-for-bit
/// identical to the uninterrupted run at any worker count. Corrupt or
/// mismatched checkpoints fall back to older files with one
/// [`Event::CheckpointRestoreFallback`] each.
#[allow(clippy::too_many_arguments)]
pub fn resume_replay_checkpointed(
    cfg: StarCdnConfig,
    failures: FailureModel,
    log: &AccessLog,
    schedule: &FaultSchedule,
    num_workers: usize,
    overload: &OverloadConfig,
    policy: &CheckpointPolicy,
    rec: &dyn Recorder,
) -> Result<SystemMetrics, CheckpointError> {
    resume_replay_checkpointed_io(
        cfg,
        failures,
        log,
        schedule,
        num_workers,
        overload,
        policy,
        rec,
        &RealIo,
    )
}

/// [`resume_replay_checkpointed`] over an explicit [`Io`].
#[allow(clippy::too_many_arguments)]
pub fn resume_replay_checkpointed_io(
    cfg: StarCdnConfig,
    failures: FailureModel,
    log: &AccessLog,
    schedule: &FaultSchedule,
    num_workers: usize,
    overload: &OverloadConfig,
    policy: &CheckpointPolicy,
    rec: &dyn Recorder,
    io: &dyn Io,
) -> Result<SystemMetrics, CheckpointError> {
    let w = ReplayWriter::new(&cfg, &failures, log, schedule, num_workers, overload, policy, io);
    sweep_stale_tmps_io(io, &policy.dir);
    let files = list_checkpoint_files_io(io, &policy.dir);
    for (epoch, path) in files.iter().rev() {
        let Ok(resume) = try_load_replay(io, path, w.fingerprint, &cfg, num_workers) else {
            rec.event(Event::CheckpointRestoreFallback, *epoch, 1);
            continue;
        };
        let ck = Some((w, Some(resume)));
        match drive_sharded(
            cfg.clone(),
            failures.clone(),
            log.view(),
            schedule,
            num_workers,
            overload,
            rec,
            ck,
        ) {
            Ok(m) => return Ok(m),
            // A structurally valid checkpoint can still fail semantic
            // validation against this log (e.g. its barrier is past the
            // log's end): fall back to an older one. Real I/O failures
            // propagate.
            Err(CheckpointError::ConfigMismatch) | Err(CheckpointError::State(_)) => {
                rec.event(Event::CheckpointRestoreFallback, *epoch, 1);
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    Err(CheckpointError::NoValidCheckpoint)
}

fn try_load_replay(
    io: &dyn Io,
    path: &Path,
    fingerprint: u64,
    cfg: &StarCdnConfig,
    num_workers: usize,
) -> Result<ReplayResume, CheckpointError> {
    let bytes = io.read(path)?;
    let raw = decode_container(&bytes)?;
    if raw.kind != KIND_REPLAY {
        return Err(CheckpointError::ConfigMismatch);
    }
    let meta = decode_replay_meta(&raw.meta)?;
    let total_slots = cfg.grid.total_slots();
    if meta.fingerprint != fingerprint
        || meta.num_workers != num_workers as u64
        || meta.total_slots != total_slots as u64
    {
        return Err(CheckpointError::ConfigMismatch);
    }
    let body = decode_replay_body(&raw.body)?;
    if body.caches.len() != total_slots
        || body.inflight.len() != total_slots
        || body.cold.len() != num_workers
        || body.metrics.len() != num_workers
        || body.cold.iter().any(|c| c.len() != total_slots)
    {
        return Err(CheckpointError::Malformed("replay body shape mismatch"));
    }
    if body.caches.iter().any(|c| c.policy_name() != cfg.policy.name()) {
        return Err(CheckpointError::ConfigMismatch);
    }
    let telemetry = decode_worker_telemetry(&raw.telemetry)?;
    if !telemetry.is_empty() && telemetry.len() != num_workers {
        return Err(CheckpointError::Malformed("worker telemetry count mismatch"));
    }
    Ok(ReplayResume { barrier_epoch: meta.barrier_epoch, body, telemetry })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_log::build_access_log;
    use crate::checkpoint::list_checkpoint_files;
    use crate::engine::SimConfig;
    use crate::replayer::replay_parallel_overloaded_recorded;
    use crate::world::World;
    use spacegen::trace::{LocationId, Request, Trace};
    use starcdn_cache::object::ObjectId;
    use starcdn_constellation::schedule::{FaultEvent, TimedFault};
    use starcdn_orbit::time::SimTime;
    use starcdn_orbit::walker::SatelliteId;
    use starcdn_telemetry::MemoryRecorder;
    use std::path::PathBuf;

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

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("starcdn-rckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn policy(dir: &Path, every: u64) -> CheckpointPolicy {
        CheckpointPolicy { every_n_epochs: every, dir: dir.to_path_buf(), keep_last: 0 }
    }

    fn churn() -> FaultSchedule {
        FaultSchedule::from_events([
            TimedFault { at_secs: 120, event: FaultEvent::SatDown(SatelliteId::new(3, 7)) },
            TimedFault { at_secs: 240, event: FaultEvent::SatUp(SatelliteId::new(3, 7)) },
        ])
    }

    fn assert_equal(a: &SystemMetrics, b: &SystemMetrics) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.per_satellite, b.per_satellite);
        assert_eq!(
            a.latencies_ms.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.latencies_ms.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(a.cold_restart_misses, b.cold_restart_misses);
        assert_eq!(a.remapped_requests, b.remapped_requests);
        assert_eq!(a.availability, b.availability);
        assert_eq!(a.shed_requests, b.shed_requests);
        assert_eq!(a.dropped_requests, b.dropped_requests);
        assert_eq!(a.served_origin_fallback, b.served_origin_fallback);
        assert_eq!(a.delayed_hits, b.delayed_hits);
        assert_eq!(a.coalesced_requests, b.coalesced_requests);
        assert_eq!(a.residual_epoch_hist, b.residual_epoch_hist);
    }

    fn assert_tele_equal(a: &TelemetrySnapshot, b: &TelemetrySnapshot) {
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.histograms, b.histograms);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn matches_plain_replayer_without_relay() {
        let log = log();
        let dir = tmpdir("parity");
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let rec_a = MemoryRecorder::new();
        let ma = replay_parallel_overloaded_recorded(
            cfg.clone(),
            FailureModel::none(),
            &log,
            &churn(),
            4,
            &OverloadConfig::disabled(),
            &rec_a,
        );
        let rec_b = MemoryRecorder::new();
        let mb = replay_parallel_checkpointed(
            cfg,
            FailureModel::none(),
            &log,
            &churn(),
            4,
            &OverloadConfig::disabled(),
            &policy(&dir, 4),
            &rec_b,
        )
        .unwrap();
        assert_equal(&ma, &mb);
        assert_tele_equal(&rec_a.snapshot(), &rec_b.snapshot());
        assert!(!list_checkpoint_files(&dir).is_empty());
    }

    /// Crash trick: replay a truncated prefix (its completed-segment
    /// checkpoints are what a killed process leaves behind), then resume
    /// on the full log and compare against the uninterrupted run.
    fn crash_resume(name: &str, sched: &FaultSchedule, overload: &OverloadConfig, workers: usize) {
        crash_resume_cfg(
            name,
            StarCdnConfig::starcdn_no_relay(4, 100_000),
            &log(),
            sched,
            overload,
            workers,
        );
    }

    fn crash_resume_cfg(
        name: &str,
        cfg: StarCdnConfig,
        log: &AccessLog,
        sched: &FaultSchedule,
        overload: &OverloadConfig,
        workers: usize,
    ) -> SystemMetrics {
        let dir_golden = tmpdir(&format!("{name}-golden-{workers}"));
        let rec_golden = MemoryRecorder::new();
        let m_golden = replay_parallel_checkpointed(
            cfg.clone(),
            FailureModel::none(),
            log,
            sched,
            workers,
            overload,
            &policy(&dir_golden, 4),
            &rec_golden,
        )
        .unwrap();

        let dir = tmpdir(&format!("{name}-crash-{workers}"));
        let cut = log.entries.len() * 3 / 4;
        let partial =
            AccessLog { entries: log.entries[..cut].to_vec(), epoch_secs: log.epoch_secs };
        replay_parallel_checkpointed(
            cfg.clone(),
            FailureModel::none(),
            &partial,
            sched,
            workers,
            overload,
            &policy(&dir, 4),
            &MemoryRecorder::new(),
        )
        .unwrap();
        assert!(!list_checkpoint_files(&dir).is_empty(), "crash past first barrier");

        let rec_resumed = MemoryRecorder::new();
        let m_resumed = resume_replay_checkpointed(
            cfg,
            FailureModel::none(),
            log,
            sched,
            workers,
            overload,
            &policy(&dir, 4),
            &rec_resumed,
        )
        .unwrap();
        assert_equal(&m_golden, &m_resumed);
        assert_tele_equal(&rec_golden.snapshot(), &rec_resumed.snapshot());
        m_golden
    }

    #[test]
    fn resume_is_bit_identical_at_1_4_8_workers() {
        for workers in [1usize, 4, 8] {
            crash_resume("plain", &churn(), &OverloadConfig::disabled(), workers);
        }
    }

    /// One location: the first contact is stable within a scheduler
    /// epoch, so same-epoch repeats coalesce at one owner. The small
    /// capacity keeps evictions (and therefore in-flight fetches) going
    /// for the whole run, so the kill point has fetches outstanding.
    fn delayed_log() -> AccessLog {
        let w = World::starlink_nine_cities();
        let reqs: Vec<Request> = (0..3000u64)
            .map(|k| Request {
                time: SimTime::from_secs(k / 6),
                object: ObjectId((k * 7919) % 50),
                size: 500 + (k % 5) * 100,
                location: LocationId(0),
            })
            .collect();
        build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler())
    }

    #[test]
    fn resume_delayed_fetches_in_flight_is_bit_identical() {
        let cfg = StarCdnConfig::starcdn_no_relay(4, 20_000)
            .with_delayed_hits(starcdn::config::DelayedHitConfig::with_latency(2, 40.0));
        let log = delayed_log();
        for workers in [1usize, 4] {
            let golden = crash_resume_cfg(
                "delayed",
                cfg.clone(),
                &log,
                &churn(),
                &OverloadConfig::disabled(),
                workers,
            );
            assert!(golden.delayed_hits > 0, "scenario must exercise coalescing");
        }
    }

    #[test]
    fn resume_overload_is_bit_identical() {
        crash_resume("overload", &churn(), &OverloadConfig::with_headroom(0.4), 4);
    }

    #[test]
    fn corrupt_replay_checkpoint_falls_back() {
        let log = log();
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let dir = tmpdir("fallback");
        let rec_golden = MemoryRecorder::new();
        let m_golden = replay_parallel_checkpointed(
            cfg.clone(),
            FailureModel::none(),
            &log,
            &churn(),
            4,
            &OverloadConfig::disabled(),
            &policy(&dir, 2),
            &rec_golden,
        )
        .unwrap();
        let files = list_checkpoint_files(&dir);
        assert!(files.len() >= 2);
        let (newest_epoch, newest) = files.last().unwrap();
        let mut bytes = std::fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xA5;
        std::fs::write(newest, &bytes).unwrap();

        let rec = MemoryRecorder::new();
        let m_resumed = resume_replay_checkpointed(
            cfg,
            FailureModel::none(),
            &log,
            &churn(),
            4,
            &OverloadConfig::disabled(),
            &policy(&dir, 2),
            &rec,
        )
        .unwrap();
        assert_equal(&m_golden, &m_resumed);
        assert_eq!(
            rec.snapshot().events.get(&(Event::CheckpointRestoreFallback, *newest_epoch)),
            Some(&1)
        );
    }

    #[test]
    fn worker_count_mismatch_is_rejected() {
        let log = log();
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let dir = tmpdir("workers");
        replay_parallel_checkpointed(
            cfg.clone(),
            FailureModel::none(),
            &log,
            &churn(),
            4,
            &OverloadConfig::disabled(),
            &policy(&dir, 4),
            &starcdn_telemetry::Noop,
        )
        .unwrap();
        let err = resume_replay_checkpointed(
            cfg,
            FailureModel::none(),
            &log,
            &churn(),
            8, // different sharding → different fingerprint
            &OverloadConfig::disabled(),
            &policy(&dir, 4),
            &starcdn_telemetry::Noop,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::NoValidCheckpoint));
    }
}
