//! Byte-capacity cache substrate for the StarCDN reproduction.
//!
//! CDN edge caches are sized in bytes, admit variable-size objects, and
//! are measured by *request hit rate* (fraction of requests served from
//! cache) and *byte hit rate* (fraction of bytes served from cache).
//! This crate provides the eviction policies the paper discusses — LRU
//! (the deployed default), LFU, FIFO, and SIEVE (NSDI '24) — behind one
//! [`Cache`] trait, plus statistics and a trace-replay harness used by
//! every experiment.
//!
//! ```
//! use starcdn_cache::{Cache, lru::LruCache, object::ObjectId, policy::AccessOutcome};
//!
//! let mut c = LruCache::new(100);
//! assert_eq!(c.access(ObjectId(1), 60), AccessOutcome::Miss);
//! assert_eq!(c.access(ObjectId(1), 60), AccessOutcome::Hit);
//! assert_eq!(c.access(ObjectId(2), 60), AccessOutcome::Miss); // evicts 1
//! assert!(!c.contains(ObjectId(1)));
//! ```

pub mod fifo;
pub mod idhash;
pub mod inflight;
pub mod lfu;
pub mod lru;
pub mod mad;
pub mod object;
pub mod policy;
pub mod sieve;
pub mod simulate;
pub mod slru;
pub mod state;
pub mod stats;
pub mod tinylfu;

pub use idhash::{BuildIdHasher, IdMap};
pub use inflight::{InflightQueue, InflightState, RetiredFetch};
pub use object::ObjectId;
pub use policy::{AccessOutcome, Cache, PolicyKind};
pub use state::{CacheState, StateError};
pub use stats::CacheStats;
