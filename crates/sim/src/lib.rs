//! Discrete-time LEO CDN simulation engine (§5.1).
//!
//! This crate replaces the paper's two-stage pipeline — Microsoft's
//! CosmicBeats simulator feeding a multi-process TCP cache replayer —
//! with:
//!
//! * [`world`] — the simulated world: constellation, grid, user
//!   locations, failures;
//! * [`scheduler`] — the client link scheduler: every 15 s epoch
//!   (Starlink's global scheduler reconfiguration interval) each
//!   location's virtual users are (re)assigned to one of the best
//!   visible satellites;
//! * [`access_log`] — per-request first-contact assignments, the analog
//!   of CosmicBeats' per-satellite access logs; built sequentially or
//!   epoch-sharded over threads ([`build_access_log_parallel`]) with
//!   bit-for-bit identical output;
//! * [`engine`] — the deterministic single-threaded replay of an access
//!   log through a [`starcdn::system::SpaceCdn`] or a baseline;
//! * [`replayer`] — a crossbeam-parallel replayer sharded by bucket
//!   owner, mirroring the paper's process-per-satellite architecture
//!   (channel transport instead of TCP — DESIGN.md substitution #3);
//! * [`checkpoint`] / [`replayer_checkpoint`] — crash-consistent
//!   checkpoints and resume for the two executors;
//! * [`experiment`] — one-call runners used by the per-figure
//!   experiment binaries.
//!
//! Fleet replay has exactly two drivers: the engine's, behind every
//! `run_space*` runner, and the sharded replayer's, behind every
//! `replay_parallel*` runner. Each runner only picks the optional parts
//! (fault schedule, overload ledger, warm-up cutoff, checkpoints), and
//! every one picks them by the same rule: an empty schedule runs without
//! a fault cursor, a disabled overload config without a ledger.
//!
//! The log builders and the `*_recorded` / checkpointed runners take a
//! [`starcdn_telemetry::Recorder`]; the other entry points pass the
//! no-op recorder, and recording never changes simulation output (the
//! parallel replayer merges per-worker recorders in shard index order,
//! so even its telemetry is deterministic).

pub mod access_log;
pub mod checkpoint;
pub mod columns;
pub mod coverage;
pub mod engine;
pub mod experiment;
pub mod overload;
pub mod replayer;
pub mod replayer_checkpoint;
pub mod scheduler;
pub mod serve;
pub mod transfers;
pub mod world;

pub use access_log::{
    build_access_log, build_access_log_parallel, build_access_log_parallel_recorded,
    build_access_log_recorded, AccessLog, AccessLogEntry,
};
pub use checkpoint::{
    crc32, list_checkpoint_files, list_checkpoint_files_io, metrics_digest,
    resume_space_checkpointed, resume_space_checkpointed_io, run_space_checkpointed,
    run_space_checkpointed_io, sweep_stale_tmps, sweep_stale_tmps_io, validate_checkpoint_bytes,
    CheckpointError, CheckpointPolicy,
};
pub use columns::{
    build_access_log_columns, build_access_log_columns_parallel,
    build_access_log_columns_parallel_recorded, build_access_log_columns_recorded,
    AccessLogColumns,
};
pub use engine::{
    run_space, run_space_columns, run_space_entries, run_space_overloaded,
    run_space_overloaded_columns, run_space_overloaded_recorded, run_space_with_faults,
    run_space_with_faults_columns, run_space_with_faults_measured, run_space_with_faults_recorded,
    SimConfig,
};
pub use overload::{OverloadConfig, RetryPolicy};
pub use replayer::{
    replay_parallel, replay_parallel_columns, replay_parallel_overloaded,
    replay_parallel_overloaded_columns, replay_parallel_overloaded_recorded,
    replay_parallel_with_faults, replay_parallel_with_faults_columns,
    replay_parallel_with_faults_recorded,
};
pub use replayer_checkpoint::{
    replay_parallel_checkpointed, replay_parallel_checkpointed_io, resume_replay_checkpointed,
    resume_replay_checkpointed_io,
};
pub use serve::{decode_drain, ServePlan, ServePlanError, ShardState};
pub use world::World;
