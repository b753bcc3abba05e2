//! Crash-consistent checkpoint/resume for long simulation runs
//! (DESIGN.md §11).
//!
//! A checkpoint freezes the full engine state at a scheduler-epoch
//! boundary — every cache's policy-internal state, the fault-schedule
//! cursor, the capacity ledger, partially-accumulated metrics and
//! latency samples, the telemetry snapshot, and the fault-event
//! watermark — so a killed run can resume and finish **bit-for-bit
//! identical** to the uninterrupted one.
//!
//! Durability model:
//!
//! * checkpoints are written to a temp file in the target directory,
//!   fsync'd, then atomically renamed into place (and the directory
//!   fsync'd), so a crash mid-write never clobbers an older checkpoint;
//! * the container is a versioned header plus length-prefixed sections
//!   (META, BODY, TELEMETRY), each protected by a CRC-32, so any torn,
//!   truncated, or bit-flipped file is detected — never deserialized
//!   into garbage and never a panic;
//! * resume scans newest-first and falls back to the next older
//!   checkpoint when one fails validation, emitting an
//!   [`Event::CheckpointRestoreFallback`] per skipped file.
//!
//! The payload codec is hand-rolled little-endian binary (this workspace
//! deliberately keeps serialization frameworks off the simulation hot
//! path): floats travel as IEEE-754 bit patterns, so restored latency
//! samples and utilization timelines compare bit-equal.
//!
//! Snapshot semantics: a checkpoint taken when entering boundary epoch
//! `E` captures the state *before* any of `E`'s boundary actions
//! (watermark flush, churn application, availability sample, ledger
//! advance, prefetch round). Resume restores `current_epoch` to the
//! previous epoch and re-enters the loop at the same entry index, so the
//! boundary re-executes exactly as the uninterrupted run did.

use crate::access_log::AccessLog;
use crate::engine::{active_modes, Drive, FaultEventWatermark, ResumePoint};
use crate::overload::OverloadConfig;
use starcdn::metrics::{AvailabilityPoint, NeighborAvailability, SystemMetrics};
use starcdn::system::{CdnState, SpaceCdn};
use starcdn_cache::inflight::InflightEntryState;
use starcdn_cache::object::ObjectId;
use starcdn_cache::state::{LfuEntryState, MadEntryState, SieveEntryState};
use starcdn_cache::stats::CacheStats;
use starcdn_cache::{CacheState, InflightState};
use starcdn_constellation::capacity::{CapacityLedger, EpochUsageState, UtilizationPoint};
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::{FaultSchedule, ScheduleCursor};
use starcdn_io::{Io, RealIo};
use starcdn_orbit::walker::SatelliteId;
use starcdn_telemetry::{
    Counter, Event, Histo, HistogramSnapshot, MemoryRecorder, Noop, Recorder, SpanStats, Stage,
    TelemetrySnapshot,
};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

/// When and where the engine writes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Write a checkpoint every `n` scheduler epochs (0 behaves as 1).
    pub every_n_epochs: u64,
    /// Directory holding the `ckpt-<epoch>.ckpt` files.
    pub dir: PathBuf,
    /// Keep only the newest `n` checkpoints (0 = keep everything).
    pub keep_last: usize,
}

impl CheckpointPolicy {
    /// Checkpoint every `every_n_epochs` into `dir`, keeping the last 3.
    pub fn new(dir: impl Into<PathBuf>, every_n_epochs: u64) -> Self {
        CheckpointPolicy { every_n_epochs, dir: dir.into(), keep_last: 3 }
    }
}

/// Why a checkpoint could not be written, read, or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure while writing or reading, with the failing
    /// operation and path attached (see [`starcdn_io::IoError`]).
    Io(starcdn_io::IoError),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The container version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ends before a declared length.
    Truncated,
    /// A CRC-32 over the header or a section does not match.
    CrcMismatch,
    /// The container or a payload is structurally invalid.
    Malformed(&'static str),
    /// The checkpoint was taken under a different configuration,
    /// schedule, overload setting, or run mode.
    ConfigMismatch,
    /// A decoded state failed semantic validation on restore.
    State(String),
    /// No checkpoint in the directory survived validation.
    NoValidCheckpoint,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::CrcMismatch => write!(f, "checkpoint CRC mismatch (corrupt file)"),
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CheckpointError::ConfigMismatch => {
                write!(f, "checkpoint belongs to a different run configuration")
            }
            CheckpointError::State(why) => write!(f, "checkpoint state failed validation: {why}"),
            CheckpointError::NoValidCheckpoint => write!(f, "no valid checkpoint found"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<starcdn_io::IoError> for CheckpointError {
    fn from(e: starcdn_io::IoError) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), table-driven.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`. Public so the wire protocol in
/// `starcdn-net` guards its frames with the same checksum discipline as
/// the checkpoint container.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Little-endian byte codec.
// ---------------------------------------------------------------------------

#[derive(Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn boolean(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Floats travel as bit patterns so restores are bit-exact.
    pub(crate) fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }
}

pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn boolean(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed("boolean byte is not 0/1")),
        }
    }

    pub(crate) fn f64_bits(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A collection length, sanity-bounded by the bytes left (every
    /// element costs at least one byte), so corrupt lengths cannot
    /// trigger huge allocations.
    pub(crate) fn len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(CheckpointError::Truncated);
        }
        Ok(n as usize)
    }

    pub(crate) fn finish(&self) -> Result<(), CheckpointError> {
        if self.remaining() != 0 {
            return Err(CheckpointError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Domain codecs.
// ---------------------------------------------------------------------------

fn put_sat(w: &mut ByteWriter, s: SatelliteId) {
    w.u16(s.orbit);
    w.u16(s.slot);
}

fn get_sat(r: &mut ByteReader) -> Result<SatelliteId, CheckpointError> {
    Ok(SatelliteId::new(r.u16()?, r.u16()?))
}

fn put_entries(w: &mut ByteWriter, entries: &[(ObjectId, u64)]) {
    w.len(entries.len());
    for &(id, size) in entries {
        w.u64(id.0);
        w.u64(size);
    }
}

fn get_entries(r: &mut ByteReader) -> Result<Vec<(ObjectId, u64)>, CheckpointError> {
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((ObjectId(r.u64()?), r.u64()?));
    }
    Ok(out)
}

pub(crate) fn put_cache_state(w: &mut ByteWriter, s: &CacheState) {
    match s {
        CacheState::Lru { capacity, entries } => {
            w.u8(0);
            w.u64(*capacity);
            put_entries(w, entries);
        }
        CacheState::Fifo { capacity, queue } => {
            w.u8(1);
            w.u64(*capacity);
            put_entries(w, queue);
        }
        CacheState::Lfu { capacity, clock, entries } => {
            w.u8(2);
            w.u64(*capacity);
            w.u64(*clock);
            w.len(entries.len());
            for e in entries {
                w.u64(e.id.0);
                w.u64(e.size);
                w.u64(e.freq);
                w.u64(e.last_touch);
            }
        }
        CacheState::Sieve { capacity, entries, hand } => {
            w.u8(3);
            w.u64(*capacity);
            w.len(entries.len());
            for e in entries {
                w.u64(e.id.0);
                w.u64(e.size);
                w.boolean(e.visited);
            }
            match hand {
                None => w.u8(0),
                Some(pos) => {
                    w.u8(1);
                    w.u64(*pos);
                }
            }
        }
        CacheState::Slru { capacity, protected_capacity, protected, probation } => {
            w.u8(4);
            w.u64(*capacity);
            w.u64(*protected_capacity);
            put_entries(w, protected);
            put_entries(w, probation);
        }
        CacheState::TinyLfu { capacity, entries, rows, mask, ops, window } => {
            w.u8(5);
            w.u64(*capacity);
            put_entries(w, entries);
            w.len(rows.len());
            for row in rows {
                w.len(row.len());
                for &c in row {
                    w.u32(c);
                }
            }
            w.u64(*mask);
            w.u64(*ops);
            w.u64(*window);
        }
        CacheState::Mad { capacity, clock, inflation, entries } => {
            w.u8(6);
            w.u64(*capacity);
            w.u64(*clock);
            w.u64(*inflation);
            w.len(entries.len());
            for e in entries {
                w.u64(e.id.0);
                w.u64(e.size);
                w.u64(e.delay);
                w.u64(e.priority);
                w.u64(e.last_touch);
            }
        }
    }
}

pub(crate) fn get_cache_state(r: &mut ByteReader) -> Result<CacheState, CheckpointError> {
    Ok(match r.u8()? {
        0 => CacheState::Lru { capacity: r.u64()?, entries: get_entries(r)? },
        1 => CacheState::Fifo { capacity: r.u64()?, queue: get_entries(r)? },
        2 => {
            let capacity = r.u64()?;
            let clock = r.u64()?;
            let n = r.len()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(LfuEntryState {
                    id: ObjectId(r.u64()?),
                    size: r.u64()?,
                    freq: r.u64()?,
                    last_touch: r.u64()?,
                });
            }
            CacheState::Lfu { capacity, clock, entries }
        }
        3 => {
            let capacity = r.u64()?;
            let n = r.len()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(SieveEntryState {
                    id: ObjectId(r.u64()?),
                    size: r.u64()?,
                    visited: r.boolean()?,
                });
            }
            let hand = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(CheckpointError::Malformed("bad sieve hand tag")),
            };
            CacheState::Sieve { capacity, entries, hand }
        }
        4 => CacheState::Slru {
            capacity: r.u64()?,
            protected_capacity: r.u64()?,
            protected: get_entries(r)?,
            probation: get_entries(r)?,
        },
        5 => {
            let capacity = r.u64()?;
            let entries = get_entries(r)?;
            let nrows = r.len()?;
            let mut rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let width = r.len()?;
                let mut row = Vec::with_capacity(width);
                for _ in 0..width {
                    row.push(r.u32()?);
                }
                rows.push(row);
            }
            CacheState::TinyLfu {
                capacity,
                entries,
                rows,
                mask: r.u64()?,
                ops: r.u64()?,
                window: r.u64()?,
            }
        }
        6 => {
            let capacity = r.u64()?;
            let clock = r.u64()?;
            let inflation = r.u64()?;
            let n = r.len()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(MadEntryState {
                    id: ObjectId(r.u64()?),
                    size: r.u64()?,
                    delay: r.u64()?,
                    priority: r.u64()?,
                    last_touch: r.u64()?,
                });
            }
            CacheState::Mad { capacity, clock, inflation, entries }
        }
        _ => return Err(CheckpointError::Malformed("unknown cache-state tag")),
    })
}

/// An in-flight fetch queue snapshot. [`InflightState`] keeps fetches in
/// ascending object-id order, so the encoding is deterministic.
pub(crate) fn put_inflight(w: &mut ByteWriter, s: &InflightState) {
    w.len(s.fetches.len());
    for f in &s.fetches {
        w.u64(f.id.0);
        w.u64(f.completes_at);
        w.u64(f.size);
        w.u64(f.followers);
        w.u64(f.delay_epochs);
    }
}

pub(crate) fn get_inflight(r: &mut ByteReader) -> Result<InflightState, CheckpointError> {
    let n = r.len()?;
    let mut fetches = Vec::with_capacity(n);
    for _ in 0..n {
        fetches.push(InflightEntryState {
            id: ObjectId(r.u64()?),
            completes_at: r.u64()?,
            size: r.u64()?,
            followers: r.u64()?,
            delay_epochs: r.u64()?,
        });
    }
    Ok(InflightState { fetches })
}

pub(crate) fn put_failures(w: &mut ByteWriter, f: &FailureModel) {
    let dead: Vec<SatelliteId> = f.dead().collect();
    w.len(dead.len());
    for s in dead {
        put_sat(w, s);
    }
    let cut: Vec<(SatelliteId, SatelliteId)> = f.cut_links().collect();
    w.len(cut.len());
    for (a, b) in cut {
        put_sat(w, a);
        put_sat(w, b);
    }
}

pub(crate) fn get_failures(r: &mut ByteReader) -> Result<FailureModel, CheckpointError> {
    let nd = r.len()?;
    let mut dead = Vec::with_capacity(nd);
    for _ in 0..nd {
        dead.push(get_sat(r)?);
    }
    let nc = r.len()?;
    let mut cut = Vec::with_capacity(nc);
    for _ in 0..nc {
        cut.push((get_sat(r)?, get_sat(r)?));
    }
    Ok(FailureModel::from_outages(dead, cut))
}

fn put_stats(w: &mut ByteWriter, s: &CacheStats) {
    w.u64(s.requests);
    w.u64(s.hits);
    w.u64(s.bytes_requested);
    w.u64(s.bytes_hit);
}

fn get_stats(r: &mut ByteReader) -> Result<CacheStats, CheckpointError> {
    Ok(CacheStats {
        requests: r.u64()?,
        hits: r.u64()?,
        bytes_requested: r.u64()?,
        bytes_hit: r.u64()?,
    })
}

pub(crate) fn put_metrics(w: &mut ByteWriter, m: &SystemMetrics) {
    put_stats(w, &m.stats);
    w.u64(m.uplink_bytes);
    w.u64(m.served_local);
    w.u64(m.served_relay_west);
    w.u64(m.served_relay_east);
    w.u64(m.served_ground);
    w.u64(m.relay_bytes);
    w.u64(m.prefetch_bytes);
    w.u64(m.prefetch_copies);
    w.len(m.latencies_ms.len());
    for &l in &m.latencies_ms {
        w.f64_bits(l);
    }
    // HashMap iteration order is process-local; persist sorted so the
    // file bytes are deterministic.
    let mut per_sat: Vec<(SatelliteId, CacheStats)> =
        m.per_satellite.iter().map(|(&s, &st)| (s, st)).collect();
    per_sat.sort_by_key(|&(s, _)| s);
    w.len(per_sat.len());
    for (s, st) in &per_sat {
        put_sat(w, *s);
        put_stats(w, st);
    }
    let n = &m.neighbor_availability;
    for v in [
        n.west_only_requests,
        n.west_only_bytes,
        n.east_only_requests,
        n.east_only_bytes,
        n.both_requests,
        n.both_bytes,
        n.neither_requests,
        n.neither_bytes,
    ] {
        w.u64(v);
    }
    w.u64(m.remapped_requests);
    w.u64(m.cold_restart_misses);
    w.u64(m.reroute_extra_hops);
    w.len(m.availability.len());
    for p in &m.availability {
        w.u64(p.epoch);
        w.u32(p.alive_sats);
        w.u32(p.cut_links);
    }
    w.u64(m.shed_requests);
    w.u64(m.retry_attempts);
    w.u64(m.served_primary);
    w.u64(m.served_replica);
    w.u64(m.served_origin_fallback);
    w.u64(m.dropped_requests);
    w.len(m.utilization.len());
    for p in &m.utilization {
        w.u64(p.epoch);
        w.f64_bits(p.peak_gsl_util);
        w.f64_bits(p.peak_isl_util);
        w.u64(p.gsl_bytes);
        w.u64(p.isl_bytes);
        w.u64(p.shed_requests);
    }
    w.u64(m.partitioned_requests);
    w.u64(m.delayed_hits);
    w.u64(m.coalesced_requests);
    w.len(m.residual_epoch_hist.len());
    for (&residual, &count) in &m.residual_epoch_hist {
        w.u64(residual);
        w.u64(count);
    }
}

pub(crate) fn get_metrics(r: &mut ByteReader) -> Result<SystemMetrics, CheckpointError> {
    let stats = get_stats(r)?;
    let uplink_bytes = r.u64()?;
    let served_local = r.u64()?;
    let served_relay_west = r.u64()?;
    let served_relay_east = r.u64()?;
    let served_ground = r.u64()?;
    let relay_bytes = r.u64()?;
    let prefetch_bytes = r.u64()?;
    let prefetch_copies = r.u64()?;
    let nl = r.len()?;
    let mut latencies_ms = Vec::with_capacity(nl);
    for _ in 0..nl {
        latencies_ms.push(r.f64_bits()?);
    }
    let ns = r.len()?;
    let mut per_satellite = HashMap::with_capacity_and_hasher(ns, Default::default());
    for _ in 0..ns {
        let s = get_sat(r)?;
        per_satellite.insert(s, get_stats(r)?);
    }
    let neighbor_availability = NeighborAvailability {
        west_only_requests: r.u64()?,
        west_only_bytes: r.u64()?,
        east_only_requests: r.u64()?,
        east_only_bytes: r.u64()?,
        both_requests: r.u64()?,
        both_bytes: r.u64()?,
        neither_requests: r.u64()?,
        neither_bytes: r.u64()?,
    };
    let remapped_requests = r.u64()?;
    let cold_restart_misses = r.u64()?;
    let reroute_extra_hops = r.u64()?;
    let na = r.len()?;
    let mut availability = Vec::with_capacity(na);
    for _ in 0..na {
        availability.push(AvailabilityPoint {
            epoch: r.u64()?,
            alive_sats: r.u32()?,
            cut_links: r.u32()?,
        });
    }
    let shed_requests = r.u64()?;
    let retry_attempts = r.u64()?;
    let served_primary = r.u64()?;
    let served_replica = r.u64()?;
    let served_origin_fallback = r.u64()?;
    let dropped_requests = r.u64()?;
    let nu = r.len()?;
    let mut utilization = Vec::with_capacity(nu);
    for _ in 0..nu {
        utilization.push(UtilizationPoint {
            epoch: r.u64()?,
            peak_gsl_util: r.f64_bits()?,
            peak_isl_util: r.f64_bits()?,
            gsl_bytes: r.u64()?,
            isl_bytes: r.u64()?,
            shed_requests: r.u64()?,
        });
    }
    let partitioned_requests = r.u64()?;
    let delayed_hits = r.u64()?;
    let coalesced_requests = r.u64()?;
    let nrh = r.len()?;
    let mut residual_epoch_hist = BTreeMap::new();
    for _ in 0..nrh {
        let residual = r.u64()?;
        residual_epoch_hist.insert(residual, r.u64()?);
    }
    Ok(SystemMetrics {
        stats,
        uplink_bytes,
        served_local,
        served_relay_west,
        served_relay_east,
        served_ground,
        relay_bytes,
        prefetch_bytes,
        prefetch_copies,
        latencies_ms,
        per_satellite,
        neighbor_availability,
        remapped_requests,
        cold_restart_misses,
        reroute_extra_hops,
        availability,
        shed_requests,
        retry_attempts,
        served_primary,
        served_replica,
        served_origin_fallback,
        dropped_requests,
        utilization,
        partitioned_requests,
        delayed_hits,
        coalesced_requests,
        residual_epoch_hist,
    })
}

fn put_usage(w: &mut ByteWriter, usage: &[EpochUsageState]) {
    w.len(usage.len());
    for u in usage {
        w.u64(u.epoch);
        w.len(u.gsl_used.len());
        for &(slot, bytes) in &u.gsl_used {
            w.u32(slot);
            w.u64(bytes);
        }
        w.len(u.isl_used.len());
        for &((a, b), bytes) in &u.isl_used {
            w.u32(a);
            w.u32(b);
            w.u64(bytes);
        }
        w.u64(u.shed);
    }
}

fn get_usage(r: &mut ByteReader) -> Result<Vec<EpochUsageState>, CheckpointError> {
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let epoch = r.u64()?;
        let ng = r.len()?;
        let mut gsl_used = Vec::with_capacity(ng);
        for _ in 0..ng {
            gsl_used.push((r.u32()?, r.u64()?));
        }
        let ni = r.len()?;
        let mut isl_used = Vec::with_capacity(ni);
        for _ in 0..ni {
            isl_used.push(((r.u32()?, r.u32()?), r.u64()?));
        }
        out.push(EpochUsageState { epoch, gsl_used, isl_used, shed: r.u64()? });
    }
    Ok(out)
}

/// Telemetry enums are persisted by discriminant; decode validates the
/// index against the vocabulary so a stale file from a different build
/// errors instead of panicking.
pub(crate) fn put_telemetry(w: &mut ByteWriter, s: &TelemetrySnapshot) {
    w.len(s.counters.len());
    for &(c, v) in &s.counters {
        w.u32(c as u32);
        w.u64(v);
    }
    w.len(s.histograms.len());
    for (h, snap) in &s.histograms {
        w.u32(*h as u32);
        w.len(snap.buckets.len());
        for &(k, n) in &snap.buckets {
            w.u8(k);
            w.u64(n);
        }
        w.u64(snap.count);
        w.u64(snap.sum);
        match snap.min {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                w.u64(v);
            }
        }
        match snap.max {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                w.u64(v);
            }
        }
    }
    w.len(s.spans.len());
    for (&(stage, epoch), cell) in &s.spans {
        w.u32(stage as u32);
        w.u64(epoch);
        w.u64(cell.count);
        w.u64(cell.total_ns);
        w.u64(cell.max_ns);
    }
    w.len(s.events.len());
    for (&(event, epoch), &count) in &s.events {
        w.u32(event as u32);
        w.u64(epoch);
        w.u64(count);
    }
}

fn get_opt_u64(r: &mut ByteReader) -> Result<Option<u64>, CheckpointError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        _ => Err(CheckpointError::Malformed("bad option tag")),
    }
}

pub(crate) fn get_telemetry(r: &mut ByteReader) -> Result<TelemetrySnapshot, CheckpointError> {
    let nc = r.len()?;
    let mut counters = Vec::with_capacity(nc);
    for _ in 0..nc {
        let idx = r.u32()? as usize;
        let c = *Counter::ALL
            .get(idx)
            .ok_or(CheckpointError::Malformed("unknown counter discriminant"))?;
        counters.push((c, r.u64()?));
    }
    let nh = r.len()?;
    let mut histograms = Vec::with_capacity(nh);
    for _ in 0..nh {
        let idx = r.u32()? as usize;
        let h = *Histo::ALL
            .get(idx)
            .ok_or(CheckpointError::Malformed("unknown histogram discriminant"))?;
        let nb = r.len()?;
        let mut buckets = Vec::with_capacity(nb);
        for _ in 0..nb {
            buckets.push((r.u8()?, r.u64()?));
        }
        let count = r.u64()?;
        let sum = r.u64()?;
        let min = get_opt_u64(r)?;
        let max = get_opt_u64(r)?;
        histograms.push((h, HistogramSnapshot { buckets, count, sum, min, max }));
    }
    let nsp = r.len()?;
    let mut spans = BTreeMap::new();
    for _ in 0..nsp {
        let idx = r.u32()? as usize;
        let stage =
            *Stage::ALL.get(idx).ok_or(CheckpointError::Malformed("unknown stage discriminant"))?;
        let epoch = r.u64()?;
        let cell = SpanStats { count: r.u64()?, total_ns: r.u64()?, max_ns: r.u64()? };
        spans.insert((stage, epoch), cell);
    }
    let ne = r.len()?;
    let mut events = BTreeMap::new();
    for _ in 0..ne {
        let idx = r.u32()? as usize;
        let event =
            *Event::ALL.get(idx).ok_or(CheckpointError::Malformed("unknown event discriminant"))?;
        let epoch = r.u64()?;
        events.insert((event, epoch), r.u64()?);
    }
    Ok(TelemetrySnapshot { counters, histograms, spans, events })
}

// ---------------------------------------------------------------------------
// Container: header + CRC-protected length-prefixed sections.
// ---------------------------------------------------------------------------

const MAGIC: &[u8; 8] = b"STARCKP1";
const VERSION: u32 = 1;
/// Section tags, in their mandatory order.
const SEC_META: u32 = 1;
const SEC_BODY: u32 = 2;
const SEC_TELEMETRY: u32 = 3;

/// Checkpoint kinds (which driver wrote it).
pub(crate) const KIND_ENGINE: u32 = 1;
pub(crate) const KIND_REPLAY: u32 = 2;

pub(crate) struct RawCheckpoint {
    pub kind: u32,
    pub meta: Vec<u8>,
    pub body: Vec<u8>,
    pub telemetry: Vec<u8>,
}

fn put_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    let mut framed = Vec::with_capacity(12 + payload.len());
    framed.extend_from_slice(&tag.to_le_bytes());
    framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    framed.extend_from_slice(payload);
    let crc = crc32(&framed);
    out.extend_from_slice(&framed);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Serialize a complete checkpoint container.
pub(crate) fn encode_container(kind: u32, meta: &[u8], body: &[u8], telemetry: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + meta.len() + body.len() + telemetry.len() + 48);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&3u32.to_le_bytes()); // section count
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    put_section(&mut out, SEC_META, meta);
    put_section(&mut out, SEC_BODY, body);
    put_section(&mut out, SEC_TELEMETRY, telemetry);
    out
}

/// Upper bound on a single section payload. The length prefix is also
/// bounded by the bytes actually present, so a hostile header can never
/// drive a large allocation — this cap exists so an absurd length in an
/// (attacker-sized) file fails typed before the copy, mirroring the
/// frame cap in `starcdn-net`.
pub(crate) const MAX_SECTION_LEN: u64 = 1 << 30;

fn read_section(r: &mut ByteReader, expect_tag: u32) -> Result<Vec<u8>, CheckpointError> {
    let start = r.pos;
    let tag = r.u32()?;
    let len = r.u64()?;
    if len > MAX_SECTION_LEN {
        return Err(CheckpointError::Malformed("section length exceeds cap"));
    }
    if len > r.remaining() as u64 {
        return Err(CheckpointError::Truncated);
    }
    let payload = r.take(len as usize)?.to_vec();
    let framed = &r.buf[start..r.pos];
    let crc = r.u32()?;
    if crc != crc32(framed) {
        return Err(CheckpointError::CrcMismatch);
    }
    if tag != expect_tag {
        return Err(CheckpointError::Malformed("sections out of order"));
    }
    Ok(payload)
}

/// Parse and integrity-check a checkpoint container. Never panics on
/// arbitrary input; every corruption maps to a typed error.
pub(crate) fn decode_container(bytes: &[u8]) -> Result<RawCheckpoint, CheckpointError> {
    if bytes.len() < 24 {
        return Err(CheckpointError::Truncated);
    }
    if &bytes[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let header_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    if header_crc != crc32(&bytes[..20]) {
        return Err(CheckpointError::CrcMismatch);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let kind = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let sections = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if sections != 3 {
        return Err(CheckpointError::Malformed("unexpected section count"));
    }
    let mut r = ByteReader::new(bytes);
    r.pos = 24;
    let meta = read_section(&mut r, SEC_META)?;
    let body = read_section(&mut r, SEC_BODY)?;
    let telemetry = read_section(&mut r, SEC_TELEMETRY)?;
    r.finish()?;
    Ok(RawCheckpoint { kind, meta, body, telemetry })
}

// ---------------------------------------------------------------------------
// Crash-consistent file I/O.
// ---------------------------------------------------------------------------

/// `ckpt-<epoch, zero-padded>.ckpt` inside `dir`.
pub(crate) fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("ckpt-{epoch:010}.ckpt"))
}

/// Every well-named checkpoint file in `dir`, sorted by epoch ascending.
/// Missing or unreadable directories yield an empty list. Entries with
/// non-checkpoint names (including non-UTF-8 ones) are skipped; an
/// entry that *names* a checkpoint but is actually a directory or
/// garbage is caught later, when resume tries to read and decode it.
pub fn list_checkpoint_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    list_checkpoint_files_io(&RealIo, dir)
}

/// [`list_checkpoint_files`] over an explicit [`Io`].
pub fn list_checkpoint_files_io(io: &dyn Io, dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(names) = io.list_dir(dir) else {
        return out;
    };
    for name in names {
        let Some(name) = name.to_str() else {
            continue;
        };
        let Some(digits) = name.strip_prefix("ckpt-").and_then(|rest| rest.strip_suffix(".ckpt"))
        else {
            continue;
        };
        if digits.len() != 10 || !digits.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Ok(epoch) = digits.parse::<u64>() else {
            continue;
        };
        out.push((epoch, dir.join(name)));
    }
    out.sort();
    out
}

/// Remove stale `ckpt-*.ckpt.tmp` files — the droppings of writes that
/// died between `create` and `rename` (a crash, ENOSPC, or a failed
/// fsync whose cleanup also failed). Called whenever a checkpoint
/// directory is opened for a run or a resume; best-effort (a tmp that
/// cannot be removed is left for the next sweep). Returns the number of
/// files removed.
pub fn sweep_stale_tmps(dir: &Path) -> usize {
    sweep_stale_tmps_io(&RealIo, dir)
}

/// [`sweep_stale_tmps`] over an explicit [`Io`].
pub fn sweep_stale_tmps_io(io: &dyn Io, dir: &Path) -> usize {
    let Ok(names) = io.list_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for name in names {
        let Some(name) = name.to_str() else {
            continue;
        };
        if name.starts_with("ckpt-")
            && name.ends_with(".ckpt.tmp")
            && io.remove_file(&dir.join(name)).is_ok()
        {
            removed += 1;
        }
    }
    removed
}

/// Write `bytes` as the checkpoint for `epoch`: temp file in the same
/// directory, fsync, atomic rename, directory fsync, then prune old
/// checkpoints beyond `keep_last` (0 = keep everything).
///
/// On failure the temp file is removed rather than leaked — unless the
/// failure is an injected crash point, where the "process" is dead and
/// cleanup code would never have run; those tmps are collected by
/// [`sweep_stale_tmps`] on the next open.
pub(crate) fn write_atomic(
    io: &dyn Io,
    dir: &Path,
    epoch: u64,
    bytes: &[u8],
    keep_last: usize,
) -> Result<(), CheckpointError> {
    io.create_dir_all(dir)?;
    let tmp = dir.join(format!("ckpt-{epoch:010}.ckpt.tmp"));
    let written = (|| {
        let mut f = io.create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        io.rename(&tmp, &checkpoint_path(dir, epoch))
    })();
    if let Err(e) = written {
        if !e.is_crash() {
            let _ = io.remove_file(&tmp);
        }
        return Err(e.into());
    }
    // Make the rename durable. Directory fsync is best-effort: not every
    // filesystem supports opening a directory for sync.
    let _ = io.sync_dir(dir);
    if keep_last > 0 {
        let files = list_checkpoint_files_io(io, dir);
        if files.len() > keep_last {
            for (_, path) in &files[..files.len() - keep_last] {
                let _ = io.remove_file(path);
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Engine checkpoint payloads.
// ---------------------------------------------------------------------------

/// FNV-1a over one more field.
pub(crate) fn fp(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub(crate) fn fp_bytes(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A fingerprint of everything a checkpoint must agree with the resuming
/// run about: system configuration, epoch length, fault schedule, and
/// overload settings. Resume rejects checkpoints whose fingerprint
/// differs (falling back to older files, which will also mismatch).
pub(crate) fn config_fingerprint(
    cdn: &SpaceCdn,
    epoch_secs: u64,
    schedule: &FaultSchedule,
    overload: &OverloadConfig,
) -> u64 {
    let cfg = cdn.config();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    h = fp_bytes(h, cfg.policy.name().as_bytes());
    h = fp(h, cfg.cache_capacity_bytes);
    h = fp(h, cfg.grid.total_slots() as u64);
    h = fp(h, cfg.num_buckets.map_or(0, |b| 1 + b as u64));
    h = fp(h, cfg.relay_span_planes() as u64);
    h = fp(h, cfg.remap_on_failure as u64);
    h = fp(h, cfg.probe_neighbors_on_miss as u64);
    h = fp(h, cfg.model_transmission_delay as u64);
    h = fp(h, cfg.prefetch_top_k.map_or(0, |k| 1 + k as u64));
    h = fp(h, epoch_secs);
    h = fp(h, schedule.len() as u64);
    h = fp(h, overload.headroom.to_bits());
    h = fp(h, overload.retry.max_attempts as u64);
    h = fp(h, overload.retry.backoff_epochs);
    h = fp(h, overload.retry.deadline_ms.to_bits());
    h = fp(h, cfg.delayed.fetch_epochs);
    h = fp(h, cfg.delayed.wait_ms_per_epoch.to_bits());
    h = fp(h, cfg.delayed.origin_tiers);
    h
}

pub(crate) struct EngineMeta {
    pub fingerprint: u64,
    /// Epoch boundary the checkpoint was taken at (names the file).
    pub boundary_epoch: u64,
    /// The epoch the driver was in before the boundary; resume restores
    /// `current_epoch` to this so the boundary re-executes.
    pub prev_epoch: u64,
    /// Index of the first unprocessed entry.
    pub entry_index: u64,
    pub use_cursor: bool,
    pub use_overload: bool,
}

fn encode_engine_meta(m: &EngineMeta) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(m.fingerprint);
    w.u64(m.boundary_epoch);
    w.u64(m.prev_epoch);
    w.u64(m.entry_index);
    w.boolean(m.use_cursor);
    w.boolean(m.use_overload);
    w.into_bytes()
}

fn decode_engine_meta(bytes: &[u8]) -> Result<EngineMeta, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let m = EngineMeta {
        fingerprint: r.u64()?,
        boundary_epoch: r.u64()?,
        prev_epoch: r.u64()?,
        entry_index: r.u64()?,
        use_cursor: r.boolean()?,
        use_overload: r.boolean()?,
    };
    r.finish()?;
    Ok(m)
}

struct EngineBody {
    failures: FailureModel,
    caches: Vec<CacheState>,
    /// Per-slot outstanding-fetch queues (DESIGN.md §14); all empty
    /// when the delayed-hit model is disabled.
    inflight: Vec<InflightState>,
    cold: Vec<bool>,
    metrics: SystemMetrics,
    /// `(events applied, live failure view)` of the schedule cursor.
    cursor: Option<(u64, FailureModel)>,
    ledger: Option<Vec<EpochUsageState>>,
    watermark: [u64; 3],
}

fn encode_engine_body(b: &EngineBody) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_failures(&mut w, &b.failures);
    w.len(b.caches.len());
    for c in &b.caches {
        put_cache_state(&mut w, c);
    }
    w.len(b.inflight.len());
    for q in &b.inflight {
        put_inflight(&mut w, q);
    }
    w.len(b.cold.len());
    for &c in &b.cold {
        w.boolean(c);
    }
    put_metrics(&mut w, &b.metrics);
    match &b.cursor {
        None => w.u8(0),
        Some((applied, view)) => {
            w.u8(1);
            w.u64(*applied);
            put_failures(&mut w, view);
        }
    }
    match &b.ledger {
        None => w.u8(0),
        Some(usage) => {
            w.u8(1);
            put_usage(&mut w, usage);
        }
    }
    for v in b.watermark {
        w.u64(v);
    }
    w.into_bytes()
}

fn decode_engine_body(bytes: &[u8]) -> Result<EngineBody, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let failures = get_failures(&mut r)?;
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
    let ncold = r.len()?;
    let mut cold = Vec::with_capacity(ncold);
    for _ in 0..ncold {
        cold.push(r.boolean()?);
    }
    let metrics = get_metrics(&mut r)?;
    let cursor = match r.u8()? {
        0 => None,
        1 => Some((r.u64()?, get_failures(&mut r)?)),
        _ => return Err(CheckpointError::Malformed("bad cursor tag")),
    };
    let ledger = match r.u8()? {
        0 => None,
        1 => Some(get_usage(&mut r)?),
        _ => return Err(CheckpointError::Malformed("bad ledger tag")),
    };
    let watermark = [r.u64()?, r.u64()?, r.u64()?];
    r.finish()?;
    Ok(EngineBody { failures, caches, inflight, cold, metrics, cursor, ledger, watermark })
}

fn encode_telemetry_section(tele: Option<&TelemetrySnapshot>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match tele {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            put_telemetry(&mut w, s);
        }
    }
    w.into_bytes()
}

fn decode_telemetry_section(bytes: &[u8]) -> Result<Option<TelemetrySnapshot>, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let out = match r.u8()? {
        0 => None,
        1 => Some(get_telemetry(&mut r)?),
        _ => return Err(CheckpointError::Malformed("bad telemetry tag")),
    };
    r.finish()?;
    Ok(out)
}

/// Structurally validate checkpoint bytes without restoring anything:
/// container framing, CRCs, and full payload decode. Used by corruption
/// tests; any corrupt input returns an error, never a panic.
pub fn validate_checkpoint_bytes(bytes: &[u8]) -> Result<(), CheckpointError> {
    let raw = decode_container(bytes)?;
    match raw.kind {
        KIND_ENGINE => {
            decode_engine_meta(&raw.meta)?;
            decode_engine_body(&raw.body)?;
            decode_telemetry_section(&raw.telemetry)?;
            Ok(())
        }
        KIND_REPLAY => {
            // Replayer payloads are validated by their own decoder.
            crate::replayer_checkpoint::validate_sections(&raw)
        }
        _ => Err(CheckpointError::Malformed("unknown checkpoint kind")),
    }
}

/// FNV-1a over the canonical checkpoint encoding of `m` — every
/// counter, histogram bucket, and latency *bit pattern* contributes, so
/// two metrics with equal digests are bit-for-bit identical for
/// everything checkpoints preserve. The torture harness compares runs
/// through this.
pub fn metrics_digest(m: &SystemMetrics) -> u64 {
    let mut w = ByteWriter::new();
    put_metrics(&mut w, m);
    fp_bytes(0xCBF2_9CE4_8422_2325, &w.into_bytes())
}

// ---------------------------------------------------------------------------
// Checkpointed engine runs: the writer the engine driver calls at each
// epoch boundary, and newest-first resume loading.
// ---------------------------------------------------------------------------

/// The checkpoint writer of one [`Drive`]: at every `every_n_epochs`
/// boundary it snapshots the fleet, the cursor, the ledger, the
/// fault-event watermark and the in-run telemetry into one atomic file.
pub(crate) struct EngineWriter<'a> {
    policy: &'a CheckpointPolicy,
    io: &'a dyn Io,
    fingerprint: u64,
    /// The in-run recorder whose snapshot each file carries (`None` when
    /// the caller's recorder is disabled).
    telemetry: Option<&'a MemoryRecorder>,
    /// Boundary of the newest file written or resumed from: a resumed
    /// run re-enters that boundary and must not rewrite its file.
    last_written: Option<u64>,
}

impl EngineWriter<'_> {
    /// Called on entering `epoch` from `prev_epoch`, before any of the
    /// boundary's actions, with entry `entry_index` not yet processed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn at_boundary(
        &mut self,
        cdn: &SpaceCdn,
        entry_index: usize,
        prev_epoch: u64,
        epoch: u64,
        cursor: Option<&ScheduleCursor>,
        ledger: Option<&CapacityLedger>,
        watermark: FaultEventWatermark,
    ) -> Result<(), CheckpointError> {
        let every_n = self.policy.every_n_epochs.max(1);
        if epoch / every_n == prev_epoch / every_n || self.last_written == Some(epoch) {
            return Ok(());
        }
        let meta = EngineMeta {
            fingerprint: self.fingerprint,
            boundary_epoch: epoch,
            prev_epoch,
            entry_index: entry_index as u64,
            use_cursor: cursor.is_some(),
            use_overload: ledger.is_some(),
        };
        let state = cdn.export_state();
        let body = EngineBody {
            failures: state.failures,
            caches: state.caches,
            inflight: state.inflight,
            cold: state.cold,
            metrics: state.metrics,
            cursor: cursor.map(|c| (c.position() as u64, c.view().clone())),
            ledger: ledger.map(|l| l.export_state()),
            watermark: [watermark.remapped, watermark.extra_hops, watermark.cold_misses],
        };
        let tele = self.telemetry.map(|m| m.snapshot());
        let bytes = encode_container(
            KIND_ENGINE,
            &encode_engine_meta(&meta),
            &encode_engine_body(&body),
            &encode_telemetry_section(tele.as_ref()),
        );
        write_atomic(self.io, &self.policy.dir, epoch, &bytes, self.policy.keep_last)?;
        self.last_written = Some(epoch);
        Ok(())
    }
}

/// Run the full request lifecycle — plain, fault-scheduled, or
/// overload-aware, selected by the same rule as
/// [`crate::engine::run_space_overloaded_recorded`] — while writing
/// crash-consistent checkpoints per [`CheckpointPolicy`].
///
/// Simulation output (metrics, latency samples, telemetry counters,
/// histograms, and events) is bit-for-bit identical to the matching
/// non-checkpointed entry point; only span wall-clock times differ.
pub fn run_space_checkpointed(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    schedule: &FaultSchedule,
    overload: &OverloadConfig,
    policy: &CheckpointPolicy,
    rec: &dyn Recorder,
) -> Result<SystemMetrics, CheckpointError> {
    run_space_checkpointed_io(cdn, log, schedule, overload, policy, rec, &RealIo)
}

/// [`run_space_checkpointed`] over an explicit [`Io`] — the seam the
/// storage-fault torture harness drives.
#[allow(clippy::too_many_arguments)]
pub fn run_space_checkpointed_io(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    schedule: &FaultSchedule,
    overload: &OverloadConfig,
    policy: &CheckpointPolicy,
    rec: &dyn Recorder,
    io: &dyn Io,
) -> Result<SystemMetrics, CheckpointError> {
    sweep_stale_tmps_io(io, &policy.dir);
    drive_checkpointed(cdn, log, schedule, overload, policy, rec, io, None)
}

/// Resume an interrupted [`run_space_checkpointed`] run from the newest
/// valid checkpoint in `policy.dir`, replay the remaining log, and
/// return metrics bit-for-bit identical to the uninterrupted run.
///
/// Corrupt, torn, or configuration-mismatched checkpoints are skipped
/// (one [`Event::CheckpointRestoreFallback`] each, keyed by the skipped
/// file's epoch); if nothing survives,
/// [`CheckpointError::NoValidCheckpoint`] is returned and the caller may
/// start from scratch. `cdn` must be freshly built with the same
/// configuration as the original run.
pub fn resume_space_checkpointed(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    schedule: &FaultSchedule,
    overload: &OverloadConfig,
    policy: &CheckpointPolicy,
    rec: &dyn Recorder,
) -> Result<SystemMetrics, CheckpointError> {
    resume_space_checkpointed_io(cdn, log, schedule, overload, policy, rec, &RealIo)
}

/// [`resume_space_checkpointed`] over an explicit [`Io`].
#[allow(clippy::too_many_arguments)]
pub fn resume_space_checkpointed_io(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    schedule: &FaultSchedule,
    overload: &OverloadConfig,
    policy: &CheckpointPolicy,
    rec: &dyn Recorder,
    io: &dyn Io,
) -> Result<SystemMetrics, CheckpointError> {
    let (sched, ov) = active_modes(schedule, overload);
    let fingerprint = config_fingerprint(cdn, log.epoch_secs.max(1), schedule, overload);
    sweep_stale_tmps_io(io, &policy.dir);
    let files = list_checkpoint_files_io(io, &policy.dir);
    for (epoch, path) in files.iter().rev() {
        let loaded = try_load_engine(io, path, fingerprint, sched.is_some(), ov.is_some(), log);
        if let Ok((state, resume)) = loaded {
            if cdn.import_state(state).is_ok() {
                let resume = Some(resume);
                return drive_checkpointed(cdn, log, schedule, overload, policy, rec, io, resume);
            }
        }
        rec.event(Event::CheckpointRestoreFallback, *epoch, 1);
    }
    Err(CheckpointError::NoValidCheckpoint)
}

/// The run-loop parts of a loaded engine checkpoint; the fleet state is
/// imported into the [`SpaceCdn`] directly.
struct Resumed {
    meta: EngineMeta,
    cursor: Option<(u64, FailureModel)>,
    ledger: Option<Vec<EpochUsageState>>,
    watermark: [u64; 3],
    telemetry: Option<TelemetrySnapshot>,
}

fn try_load_engine(
    io: &dyn Io,
    path: &Path,
    fingerprint: u64,
    use_cursor: bool,
    use_overload: bool,
    log: &AccessLog,
) -> Result<(CdnState, Resumed), CheckpointError> {
    let bytes = io.read(path)?;
    let raw = decode_container(&bytes)?;
    if raw.kind != KIND_ENGINE {
        return Err(CheckpointError::ConfigMismatch);
    }
    let meta = decode_engine_meta(&raw.meta)?;
    if meta.fingerprint != fingerprint
        || meta.use_cursor != use_cursor
        || meta.use_overload != use_overload
    {
        return Err(CheckpointError::ConfigMismatch);
    }
    if meta.entry_index as usize > log.entries.len() {
        return Err(CheckpointError::ConfigMismatch);
    }
    let EngineBody { failures, caches, inflight, cold, metrics, cursor, ledger, watermark } =
        decode_engine_body(&raw.body)?;
    if use_cursor != cursor.is_some() || use_overload != ledger.is_some() {
        return Err(CheckpointError::Malformed("mode does not match stored sections"));
    }
    let telemetry = decode_telemetry_section(&raw.telemetry)?;
    let state = CdnState { failures, caches, inflight, cold, metrics };
    Ok((state, Resumed { meta, cursor, ledger, watermark, telemetry }))
}

/// The engine [`Drive`] with an [`EngineWriter`], fresh or restored from
/// `resume`.
///
/// When `rec` is enabled, recording goes through an internal
/// [`MemoryRecorder`] (snapshotted into each checkpoint) and is absorbed
/// into `rec` once at the end — [`MemoryRecorder::absorb`] is exact, so
/// the caller sees the same counters, histograms, and events as a direct
/// recording.
#[allow(clippy::too_many_arguments)]
fn drive_checkpointed(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    schedule: &FaultSchedule,
    overload: &OverloadConfig,
    policy: &CheckpointPolicy,
    rec: &dyn Recorder,
    io: &dyn Io,
    resume: Option<Resumed>,
) -> Result<SystemMetrics, CheckpointError> {
    let epoch_secs = log.epoch_secs.max(1);
    let mrec = rec.is_enabled().then(MemoryRecorder::new);
    let mut drive = Drive::new(cdn, epoch_secs, schedule, overload);
    let mut writer = EngineWriter {
        policy,
        io,
        fingerprint: config_fingerprint(cdn, epoch_secs, schedule, overload),
        telemetry: mrec.as_ref(),
        last_written: None,
    };
    if let Some(rs) = resume {
        if let (Some(cur), Some((applied, view))) = (drive.cursor.as_mut(), rs.cursor) {
            *cur = ScheduleCursor::resume(schedule, applied as usize, view);
        }
        if let (Some((led, _)), Some(usage)) = (drive.ledger.as_mut(), rs.ledger) {
            led.import_state(&usage);
        }
        if let (Some(m), Some(t)) = (&mrec, &rs.telemetry) {
            m.absorb(t);
        }
        let [remapped, extra_hops, cold_misses] = rs.watermark;
        drive.resume = Some(ResumePoint {
            entry_index: rs.meta.entry_index as usize,
            prev_epoch: rs.meta.prev_epoch,
            watermark: FaultEventWatermark { remapped, extra_hops, cold_misses },
        });
        writer.last_written = Some(rs.meta.boundary_epoch);
    }
    drive.writer = Some(writer);
    let start = drive.resume.map_or(0, |r| r.entry_index);
    let eff: &dyn Recorder = match &mrec {
        Some(m) => m,
        None => &Noop,
    };
    let metrics = drive.run(cdn, log.entries[start..].iter().copied(), epoch_secs, eff)?;
    if let Some(m) = &mrec {
        rec.absorb(&m.snapshot());
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_log::build_access_log;
    use crate::engine::{
        run_space, run_space_overloaded_recorded, run_space_with_faults_recorded, SimConfig,
    };
    use crate::world::World;
    use proptest::prelude::*;
    use spacegen::trace::{LocationId, Request, Trace};
    use starcdn::config::{DelayedHitConfig, StarCdnConfig};
    use starcdn_constellation::schedule::{FaultEvent, TimedFault};
    use starcdn_orbit::time::SimTime;
    use std::fs;

    fn log() -> AccessLog {
        let w = World::starlink_nine_cities();
        let reqs: Vec<Request> = (0..2000u64)
            .map(|k| Request {
                time: SimTime::from_secs(k / 4),
                object: ObjectId(k % 50),
                size: 1000,
                location: LocationId((k % 9) as u16),
            })
            .collect();
        build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler())
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("starcdn-ckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn policy(dir: &Path, every: u64) -> CheckpointPolicy {
        CheckpointPolicy { every_n_epochs: every, dir: dir.to_path_buf(), keep_last: 0 }
    }

    fn churn() -> FaultSchedule {
        FaultSchedule::from_events([
            TimedFault { at_secs: 120, event: FaultEvent::SatDown(SatelliteId::new(3, 7)) },
            TimedFault { at_secs: 135, event: FaultEvent::SatDown(SatelliteId::new(10, 2)) },
            TimedFault { at_secs: 240, event: FaultEvent::SatUp(SatelliteId::new(3, 7)) },
            TimedFault { at_secs: 330, event: FaultEvent::SatUp(SatelliteId::new(10, 2)) },
        ])
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn util_bits(v: &[UtilizationPoint]) -> Vec<(u64, u64, u64, u64, u64, u64)> {
        v.iter()
            .map(|p| {
                (
                    p.epoch,
                    p.peak_gsl_util.to_bits(),
                    p.peak_isl_util.to_bits(),
                    p.gsl_bytes,
                    p.isl_bytes,
                    p.shed_requests,
                )
            })
            .collect()
    }

    /// Full bit-for-bit metric comparison.
    fn assert_metrics_identical(a: &SystemMetrics, b: &SystemMetrics) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.uplink_bytes, b.uplink_bytes);
        assert_eq!(a.served_local, b.served_local);
        assert_eq!(a.served_relay_west, b.served_relay_west);
        assert_eq!(a.served_relay_east, b.served_relay_east);
        assert_eq!(a.served_ground, b.served_ground);
        assert_eq!(a.relay_bytes, b.relay_bytes);
        assert_eq!(bits(&a.latencies_ms), bits(&b.latencies_ms), "latency bit patterns");
        assert_eq!(a.per_satellite, b.per_satellite);
        assert_eq!(a.neighbor_availability, b.neighbor_availability);
        assert_eq!(a.remapped_requests, b.remapped_requests);
        assert_eq!(a.cold_restart_misses, b.cold_restart_misses);
        assert_eq!(a.reroute_extra_hops, b.reroute_extra_hops);
        assert_eq!(a.availability, b.availability);
        assert_eq!(a.shed_requests, b.shed_requests);
        assert_eq!(a.retry_attempts, b.retry_attempts);
        assert_eq!(a.served_primary, b.served_primary);
        assert_eq!(a.served_replica, b.served_replica);
        assert_eq!(a.served_origin_fallback, b.served_origin_fallback);
        assert_eq!(a.dropped_requests, b.dropped_requests);
        assert_eq!(util_bits(&a.utilization), util_bits(&b.utilization), "utilization timeline");
        assert_eq!(a.partitioned_requests, b.partitioned_requests);
        assert_eq!(a.delayed_hits, b.delayed_hits);
        assert_eq!(a.coalesced_requests, b.coalesced_requests);
        assert_eq!(a.residual_epoch_hist, b.residual_epoch_hist);
    }

    /// Telemetry equality modulo span wall-clock time (span *counts*
    /// must still match).
    fn assert_telemetry_identical(a: &TelemetrySnapshot, b: &TelemetrySnapshot) {
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.histograms, b.histograms);
        assert_eq!(a.events, b.events);
        let span_counts =
            |s: &TelemetrySnapshot| s.spans.iter().map(|(&k, v)| (k, v.count)).collect::<Vec<_>>();
        assert_eq!(span_counts(a), span_counts(b));
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn sample_body() -> EngineBody {
        let mut metrics = SystemMetrics::default();
        metrics.record(SatelliteId::new(1, 2), starcdn::system::ServedFrom::LocalHit, 512, 11.25);
        metrics.record(SatelliteId::new(4, 9), starcdn::system::ServedFrom::Ground, 64, 70.5);
        metrics.availability.push(AvailabilityPoint { epoch: 3, alive_sats: 1295, cut_links: 1 });
        metrics.utilization.push(UtilizationPoint {
            epoch: 2,
            peak_gsl_util: 0.75,
            peak_isl_util: 0.5,
            gsl_bytes: 1000,
            isl_bytes: 400,
            shed_requests: 2,
        });
        metrics.partitioned_requests = 3;
        metrics.delayed_hits = 4;
        metrics.coalesced_requests = 2;
        metrics.residual_epoch_hist.insert(1, 3);
        metrics.residual_epoch_hist.insert(2, 1);
        let mut lru = starcdn_cache::policy::PolicyKind::Lru.build(10_000);
        lru.access(ObjectId(7), 100);
        lru.access(ObjectId(9), 200);
        // A latency-aware slot too, so the Mad section (inflation floor
        // plus per-entry priorities) is under the corruption proptests.
        let mut mad = starcdn_cache::policy::PolicyKind::Mad.build(10_000);
        mad.access(ObjectId(11), 300);
        mad.access(ObjectId(12), 400);
        mad.record_fetch_delay(ObjectId(11), 6);
        EngineBody {
            failures: FailureModel::from_outages(
                [SatelliteId::new(0, 1)],
                [(SatelliteId::new(2, 2), SatelliteId::new(2, 3))],
            ),
            caches: vec![lru.to_state(), mad.to_state()],
            inflight: vec![
                InflightState {
                    fetches: vec![InflightEntryState {
                        id: ObjectId(3),
                        completes_at: 9,
                        size: 700,
                        followers: 2,
                        delay_epochs: 4,
                    }],
                },
                InflightState { fetches: vec![] },
            ],
            cold: vec![false, true],
            metrics,
            cursor: Some((2, FailureModel::from_dead([SatelliteId::new(0, 1)]))),
            ledger: Some(vec![EpochUsageState {
                epoch: 1,
                gsl_used: vec![(3, 900)],
                isl_used: vec![((3, 4), 500)],
                shed: 1,
            }]),
            watermark: [5, 6, 7],
        }
    }

    fn sample_bytes() -> Vec<u8> {
        let meta = EngineMeta {
            fingerprint: 0xDEAD_BEEF,
            boundary_epoch: 8,
            prev_epoch: 7,
            entry_index: 1234,
            use_cursor: true,
            use_overload: true,
        };
        let rec = MemoryRecorder::new();
        rec.add(Counter::CacheHits, 3);
        rec.observe(Histo::LatencyUs, 1500);
        rec.span_ns(Stage::CacheAccess, 7, 900);
        rec.event(Event::Remap, 7, 2);
        encode_container(
            KIND_ENGINE,
            &encode_engine_meta(&meta),
            &encode_engine_body(&sample_body()),
            &encode_telemetry_section(Some(&rec.snapshot())),
        )
    }

    #[test]
    fn container_roundtrips_and_is_stable() {
        let bytes = sample_bytes();
        validate_checkpoint_bytes(&bytes).unwrap();
        let raw = decode_container(&bytes).unwrap();
        assert_eq!(raw.kind, KIND_ENGINE);
        let meta = decode_engine_meta(&raw.meta).unwrap();
        assert_eq!(meta.boundary_epoch, 8);
        assert_eq!(meta.entry_index, 1234);
        let body = decode_engine_body(&raw.body).unwrap();
        assert_eq!(body.watermark, [5, 6, 7]);
        assert_eq!(body.failures.dead_count(), 1);
        assert_eq!(body.failures.cut_link_count(), 1);
        // Re-encoding the decoded payloads reproduces the exact bytes.
        let again = encode_container(
            KIND_ENGINE,
            &encode_engine_meta(&meta),
            &encode_engine_body(&body),
            &encode_telemetry_section(decode_telemetry_section(&raw.telemetry).unwrap().as_ref()),
        );
        assert_eq!(again, bytes, "codec is deterministic and lossless");
    }

    #[test]
    fn container_rejects_basic_corruption() {
        let bytes = sample_bytes();
        assert!(matches!(decode_container(&bytes[..10]), Err(CheckpointError::Truncated)));
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(decode_container(&bad_magic), Err(CheckpointError::BadMagic)));
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        // Header CRC guards the version field itself.
        assert!(matches!(decode_container(&bad_version), Err(CheckpointError::CrcMismatch)));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(decode_container(&trailing), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn hostile_section_length_rejected() {
        // A header whose META section claims an absurd length: the
        // length prefix must fail typed *before* any allocation, both
        // when it exceeds the cap and when it merely exceeds the bytes
        // present.
        let bytes = sample_bytes();
        let mut huge = bytes.clone();
        // Section layout after the 24-byte header: tag u32, then len u64.
        huge[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_container(&huge),
            Err(CheckpointError::Malformed("section length exceeds cap"))
        ));
        let mut oversize = bytes.clone();
        oversize[28..36].copy_from_slice(&(MAX_SECTION_LEN - 1).to_le_bytes());
        assert!(matches!(decode_container(&oversize), Err(CheckpointError::Truncated)));
    }

    #[test]
    fn sections_out_of_order_rejected() {
        let raw = decode_container(&sample_bytes()).unwrap();
        // Rebuild with BODY and META swapped; every section CRC is valid
        // but the strict order check must fire.
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&KIND_ENGINE.to_le_bytes());
        out.extend_from_slice(&3u32.to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        put_section(&mut out, SEC_BODY, &raw.body);
        put_section(&mut out, SEC_META, &raw.meta);
        put_section(&mut out, SEC_TELEMETRY, &raw.telemetry);
        assert!(matches!(decode_container(&out), Err(CheckpointError::Malformed(_))));
    }

    proptest! {
        /// Every single-byte flip anywhere in the file is detected (the
        /// CRCs cover every byte), and detection is an error — never a
        /// panic.
        #[test]
        fn prop_single_byte_flips_detected(pos in 0usize..4096, mask in 1u8..=255) {
            let bytes = sample_bytes();
            let mut bad = bytes.clone();
            let i = pos % bad.len();
            bad[i] ^= mask;
            prop_assert!(validate_checkpoint_bytes(&bad).is_err());
        }

        /// Every proper truncation errors out cleanly.
        #[test]
        fn prop_truncations_detected(cut in 0usize..4096) {
            let bytes = sample_bytes();
            let n = cut % bytes.len();
            prop_assert!(validate_checkpoint_bytes(&bytes[..n]).is_err());
        }

        /// Arbitrary garbage never panics the validator.
        #[test]
        fn prop_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = validate_checkpoint_bytes(&data);
        }
    }

    #[test]
    fn parity_plain() {
        let log = log();
        let dir = tmpdir("parity-plain");
        let mut a = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let ma = run_space(&mut a, &log);
        let mut b = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let mb = run_space_checkpointed(
            &mut b,
            &log,
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
            &policy(&dir, 5),
            &Noop,
        )
        .unwrap();
        assert_metrics_identical(&ma, &mb);
        assert!(!list_checkpoint_files(&dir).is_empty(), "checkpoints were written");
        for (_, path) in list_checkpoint_files(&dir) {
            validate_checkpoint_bytes(&fs::read(path).unwrap()).unwrap();
        }
    }

    #[test]
    fn parity_churn_with_telemetry() {
        let log = log();
        let dir = tmpdir("parity-churn");
        let sched = churn();
        let rec_a = MemoryRecorder::new();
        let mut a = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let ma = run_space_with_faults_recorded(&mut a, &log, &sched, &rec_a);
        let rec_b = MemoryRecorder::new();
        let mut b = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let mb = run_space_checkpointed(
            &mut b,
            &log,
            &sched,
            &OverloadConfig::disabled(),
            &policy(&dir, 4),
            &rec_b,
        )
        .unwrap();
        assert_metrics_identical(&ma, &mb);
        assert_telemetry_identical(&rec_a.snapshot(), &rec_b.snapshot());
    }

    #[test]
    fn parity_overload_with_telemetry() {
        let log = log();
        let dir = tmpdir("parity-overload");
        let sched = churn();
        let overload = OverloadConfig::with_headroom(0.4);
        let rec_a = MemoryRecorder::new();
        let mut a = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let ma = run_space_overloaded_recorded(&mut a, &log, &sched, &overload, &rec_a);
        let rec_b = MemoryRecorder::new();
        let mut b = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let mb = run_space_checkpointed(&mut b, &log, &sched, &overload, &policy(&dir, 4), &rec_b)
            .unwrap();
        assert_metrics_identical(&ma, &mb);
        assert_telemetry_identical(&rec_a.snapshot(), &rec_b.snapshot());
    }

    /// The crash/resume scaffold: a "crashed" run replays only a prefix
    /// of the log (leaving exactly the checkpoints a killed process
    /// would), then a fresh process resumes on the full log and must
    /// match the uninterrupted run bit-for-bit.
    fn crash_resume_roundtrip(name: &str, sched: &FaultSchedule, overload: &OverloadConfig) {
        crash_resume_roundtrip_cfg(
            name,
            &StarCdnConfig::starcdn(4, 1_000_000),
            &log(),
            sched,
            overload,
        );
    }

    fn crash_resume_roundtrip_cfg(
        name: &str,
        config: &StarCdnConfig,
        log: &AccessLog,
        sched: &FaultSchedule,
        overload: &OverloadConfig,
    ) {
        let cfg = || config.clone();

        let dir_golden = tmpdir(&format!("{name}-golden"));
        let rec_golden = MemoryRecorder::new();
        let mut golden = SpaceCdn::new(cfg());
        let m_golden = run_space_checkpointed(
            &mut golden,
            log,
            sched,
            overload,
            &policy(&dir_golden, 3),
            &rec_golden,
        )
        .unwrap();

        let dir = tmpdir(&format!("{name}-crash"));
        let cut = log.entries.len() * 2 / 3;
        let partial =
            AccessLog { entries: log.entries[..cut].to_vec(), epoch_secs: log.epoch_secs };
        let mut crashed = SpaceCdn::new(cfg());
        run_space_checkpointed(
            &mut crashed,
            &partial,
            sched,
            overload,
            &policy(&dir, 3),
            &MemoryRecorder::new(),
        )
        .unwrap();
        assert!(!list_checkpoint_files(&dir).is_empty(), "crash point past first checkpoint");

        let rec_resumed = MemoryRecorder::new();
        let mut resumed = SpaceCdn::new(cfg());
        let m_resumed = resume_space_checkpointed(
            &mut resumed,
            log,
            sched,
            overload,
            &policy(&dir, 3),
            &rec_resumed,
        )
        .unwrap();

        assert_metrics_identical(&m_golden, &m_resumed);
        assert_telemetry_identical(&rec_golden.snapshot(), &rec_resumed.snapshot());
        assert_eq!(
            rec_resumed
                .snapshot()
                .events
                .keys()
                .filter(|(e, _)| *e == Event::CheckpointRestoreFallback)
                .count(),
            0,
            "clean resume must not fall back"
        );
    }

    #[test]
    fn resume_plain_is_bit_identical() {
        crash_resume_roundtrip(
            "resume-plain",
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
        );
    }

    #[test]
    fn resume_churn_is_bit_identical() {
        crash_resume_roundtrip("resume-churn", &churn(), &OverloadConfig::disabled());
    }

    #[test]
    fn resume_churn_overload_is_bit_identical() {
        crash_resume_roundtrip("resume-combined", &churn(), &OverloadConfig::with_headroom(0.4));
    }

    /// A single-city log: the first-contact satellite is stable within a
    /// scheduler epoch, so repeat requests for an object land on the same
    /// owner and reliably coalesce onto its in-flight fetch.
    fn delayed_log() -> AccessLog {
        let w = World::starlink_nine_cities();
        let reqs: Vec<Request> = (0..2000u64)
            .map(|k| Request {
                time: SimTime::from_secs(k / 4),
                object: ObjectId(k % 50),
                size: 1000,
                location: LocationId(0),
            })
            .collect();
        build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler())
    }

    /// Checkpointed run with the delayed-hit model on matches the plain
    /// engine, and a kill/resume with fetches still in flight at the
    /// boundary converges bit-for-bit (the queues travel in the body).
    #[test]
    fn parity_and_resume_with_delayed_hits() {
        let cfg = StarCdnConfig::starcdn(4, 1_000_000)
            .with_delayed_hits(DelayedHitConfig::with_latency(2, 40.0));
        let log = delayed_log();
        let dir = tmpdir("parity-delayed");
        let sched = churn();
        let rec_a = MemoryRecorder::new();
        let mut a = SpaceCdn::new(cfg.clone());
        let ma = run_space_with_faults_recorded(&mut a, &log, &sched, &rec_a);
        assert!(ma.delayed_hits > 0, "scenario must exercise coalescing");
        let rec_b = MemoryRecorder::new();
        let mut b = SpaceCdn::new(cfg.clone());
        let mb = run_space_checkpointed(
            &mut b,
            &log,
            &sched,
            &OverloadConfig::disabled(),
            &policy(&dir, 4),
            &rec_b,
        )
        .unwrap();
        assert_metrics_identical(&ma, &mb);
        assert_telemetry_identical(&rec_a.snapshot(), &rec_b.snapshot());

        crash_resume_roundtrip_cfg(
            "resume-delayed",
            &cfg,
            &log,
            &sched,
            &OverloadConfig::disabled(),
        );
        crash_resume_roundtrip_cfg(
            "resume-delayed-overload",
            &cfg,
            &log,
            &sched,
            &OverloadConfig::with_headroom(0.4),
        );
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let log = log();
        let sched = churn();
        let overload = OverloadConfig::disabled();
        let dir = tmpdir("fallback");
        let rec_golden = MemoryRecorder::new();
        let mut golden = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let m_golden = run_space_checkpointed(
            &mut golden,
            &log,
            &sched,
            &overload,
            &policy(&dir, 3),
            &rec_golden,
        )
        .unwrap();

        let files = list_checkpoint_files(&dir);
        assert!(files.len() >= 2, "need at least two checkpoints for fallback");
        let (newest_epoch, newest) = files.last().unwrap();
        let mut bytes = fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        fs::write(newest, &bytes).unwrap();

        let rec = MemoryRecorder::new();
        let mut resumed = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let m_resumed = resume_space_checkpointed(
            &mut resumed,
            &log,
            &sched,
            &overload,
            &policy(&dir, 3),
            &rec,
        )
        .unwrap();
        // Resuming from ANY valid checkpoint of the same run converges to
        // the same final state.
        assert_metrics_identical(&m_golden, &m_resumed);
        let snap = rec.snapshot();
        assert_eq!(
            snap.events.get(&(Event::CheckpointRestoreFallback, *newest_epoch)),
            Some(&1),
            "skipping the corrupt file is telemetered"
        );
    }

    #[test]
    fn all_corrupt_is_no_valid_checkpoint_not_a_panic() {
        let dir = tmpdir("no-valid");
        fs::write(checkpoint_path(&dir, 5), b"definitely not a checkpoint").unwrap();
        let log = log();
        let rec = MemoryRecorder::new();
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let err = resume_space_checkpointed(
            &mut cdn,
            &log,
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
            &policy(&dir, 3),
            &rec,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::NoValidCheckpoint));
        assert_eq!(rec.snapshot().events.get(&(Event::CheckpointRestoreFallback, 5)), Some(&1));
    }

    #[test]
    fn config_mismatch_rejects_checkpoints() {
        let log = log();
        let dir = tmpdir("fingerprint");
        let mut a = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        run_space_checkpointed(
            &mut a,
            &log,
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
            &policy(&dir, 3),
            &Noop,
        )
        .unwrap();
        // Different capacity → different fingerprint → no valid file.
        let mut b = SpaceCdn::new(StarCdnConfig::starcdn(4, 2_000_000));
        let err = resume_space_checkpointed(
            &mut b,
            &log,
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
            &policy(&dir, 3),
            &Noop,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::NoValidCheckpoint));
    }

    #[test]
    fn keep_last_prunes_old_checkpoints() {
        let log = log();
        let dir = tmpdir("prune");
        let pol = CheckpointPolicy { every_n_epochs: 1, dir: dir.clone(), keep_last: 2 };
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        run_space_checkpointed(
            &mut cdn,
            &log,
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
            &pol,
            &Noop,
        )
        .unwrap();
        let files = list_checkpoint_files(&dir);
        assert_eq!(files.len(), 2, "keep_last bounds the directory");
        // The survivors are the two newest boundaries.
        assert!(files[0].0 < files[1].0);
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = tmpdir("atomic");
        write_atomic(&RealIo, &dir, 42, &sample_bytes(), 0).unwrap();
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["ckpt-0000000042.ckpt".to_string()]);
    }
}
