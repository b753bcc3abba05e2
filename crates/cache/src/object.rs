//! Object identifiers.

use serde::{Deserialize, Serialize};

/// A content object identifier.
///
/// CDN URLs are hashed to opaque 64-bit ids; the trace generator assigns
/// ids densely. The id also feeds the bucket hash in
/// `starcdn_constellation::buckets` (after mixing, so dense ids spread
/// uniformly over buckets).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// A well-mixed 64-bit hash of the id, suitable for bucket selection.
    pub fn hash64(self) -> u64 {
        crate::idhash::splitmix64(self.0)
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_mixing() {
        assert_eq!(ObjectId(7).hash64(), ObjectId(7).hash64());
        assert_ne!(ObjectId(7).hash64(), ObjectId(8).hash64());
        // Dense ids must spread over small moduli (bucket counts).
        let mut counts = [0usize; 4];
        for i in 0..10_000u64 {
            counts[(ObjectId(i).hash64() % 4) as usize] += 1;
        }
        for c in counts {
            assert!((2200..2800).contains(&c), "bucket skew: {counts:?}");
        }
    }

    #[test]
    fn display() {
        assert_eq!(ObjectId(42).to_string(), "obj:42");
    }
}
