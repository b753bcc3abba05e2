//! The paper's LSN-specific consistent hashing: √L×√L bucket tiling.
//!
//! Objects are hashed into `L` disjoint buckets; buckets are mapped onto
//! the ISL grid in a repeating √L×√L pattern so that, from any satellite,
//! every bucket is reachable within `2⌊√L/2⌋` hops (§3.2; the paper notes
//! this bound is identical for L = 4 and L = 9, which is why L = 9's
//! consistent-hash routing adds no latency over L = 4).
//!
//! The nearest owner of a bucket depends only on the first-contact slot
//! and the bucket, and the grid is fixed for a run, so the serve path
//! never computes it per request: [`OwnerTable`] tabulates
//! [`BucketTiling::nearest_owner`] once per fleet (`slots × L` entries,
//! 46 KB at 1296 slots and L = 9) and a lookup is one index.
//! `nearest_owner` stays the definition: it builds the table and is the
//! oracle the table is tested against.

use crate::grid::GridTopology;
use serde::{Deserialize, Serialize};
use starcdn_orbit::walker::SatelliteId;

/// A content bucket identifier in `0..L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BucketId(pub u32);

/// Errors constructing a tiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TilingError {
    /// `L` must be a positive perfect square so a √L×√L tile exists.
    NotPerfectSquare(u32),
    /// The √L tile edge exceeds a grid axis, so some bucket has no owner
    /// on that grid.
    TileExceedsGrid { root: u32, num_planes: u16, sats_per_plane: u16 },
}

impl std::fmt::Display for TilingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TilingError::NotPerfectSquare(l) => {
                write!(f, "bucket count {l} is not a positive perfect square")
            }
            TilingError::TileExceedsGrid { root, num_planes, sats_per_plane } => {
                write!(f, "bucket tile edge {root} exceeds the {num_planes}x{sats_per_plane} grid")
            }
        }
    }
}

impl std::error::Error for TilingError {}

/// A √L×√L bucket tiling over the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketTiling {
    /// Number of buckets L.
    pub num_buckets: u32,
    /// √L — the tile edge.
    pub root: u32,
}

impl BucketTiling {
    /// Create a tiling with `L` buckets. `L` must be a perfect square
    /// (the paper uses L = 4 and L = 9; Fig. 9 sweeps 1, 4, 9, 16, 25).
    pub fn new(num_buckets: u32) -> Result<Self, TilingError> {
        if num_buckets == 0 {
            return Err(TilingError::NotPerfectSquare(num_buckets));
        }
        let root = (num_buckets as f64).sqrt().round() as u32;
        if root * root != num_buckets {
            return Err(TilingError::NotPerfectSquare(num_buckets));
        }
        Ok(BucketTiling { num_buckets, root })
    }

    /// The bucket a satellite slot is responsible for.
    ///
    /// Tiles repeat every √L planes and √L slots:
    /// `bucket = (orbit mod √L)·√L + (slot mod √L)`.
    pub fn bucket_of_sat(&self, id: SatelliteId) -> BucketId {
        let r = self.root as u16;
        BucketId(((id.orbit % r) as u32) * self.root + (id.slot % r) as u32)
    }

    /// The bucket an object belongs to, from its (already well-mixed) hash.
    pub fn bucket_of_object(&self, object_hash: u64) -> BucketId {
        BucketId((object_hash % self.num_buckets as u64) as u32)
    }

    /// Worst-case ISL hops from any satellite to the nearest owner of any
    /// bucket: `2⌊√L/2⌋` (one `⌊√L/2⌋` per grid axis).
    pub fn worst_case_hops(&self) -> u16 {
        2 * (self.root / 2) as u16
    }

    /// Per-axis worst-case hop count `⌊√L/2⌋`.
    pub fn worst_case_hops_per_axis(&self) -> u16 {
        (self.root / 2) as u16
    }

    /// The nearest satellite (in wrap-around grid distance) owning
    /// `bucket`, starting from `from`. Ties prefer the smaller offset on
    /// the plane axis, then the slot axis, eastward/northward first —
    /// deterministic so every satellite routes identically.
    pub fn nearest_owner(
        &self,
        grid: &GridTopology,
        from: SatelliteId,
        bucket: BucketId,
    ) -> SatelliteId {
        debug_assert!(bucket.0 < self.num_buckets);
        // Scan offsets outward on each axis independently: the bucket
        // pattern is axis-separable, so the nearest owner combines the
        // nearest plane residue with the nearest slot residue.
        let want_plane_mod = (bucket.0 / self.root) as u16;
        let want_slot_mod = (bucket.0 % self.root) as u16;
        let plane =
            nearest_with_residue(from.orbit, want_plane_mod, self.root as u16, grid.num_planes);
        let slot =
            nearest_with_residue(from.slot, want_slot_mod, self.root as u16, grid.sats_per_plane);
        SatelliteId::new(plane, slot)
    }
}

/// Every satellite's nearest owner of every bucket on one grid: the
/// dense `(first-contact slot, bucket) → owner` table behind the serve
/// path's preferred-owner lookup. Built once per fleet from
/// [`BucketTiling::nearest_owner`], so a lookup returns exactly what that
/// scan would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnerTable {
    tiling: BucketTiling,
    num_planes: u16,
    sats_per_plane: u16,
    /// Row-major by slot index (`SatelliteId::index`), `L` owners a row.
    owners: Box<[SatelliteId]>,
}

impl OwnerTable {
    /// Tabulate `tiling` over `grid`. Fails when the tile edge exceeds a
    /// grid axis (some bucket would have no owner at all).
    pub fn new(grid: &GridTopology, tiling: BucketTiling) -> Result<Self, TilingError> {
        if tiling.root > grid.num_planes as u32 || tiling.root > grid.sats_per_plane as u32 {
            return Err(TilingError::TileExceedsGrid {
                root: tiling.root,
                num_planes: grid.num_planes,
                sats_per_plane: grid.sats_per_plane,
            });
        }
        let owners = grid
            .iter_ids()
            .flat_map(|from| {
                (0..tiling.num_buckets).map(move |b| tiling.nearest_owner(grid, from, BucketId(b)))
            })
            .collect();
        Ok(OwnerTable {
            tiling,
            num_planes: grid.num_planes,
            sats_per_plane: grid.sats_per_plane,
            owners,
        })
    }

    /// The tiling this table was built from.
    pub fn tiling(&self) -> &BucketTiling {
        &self.tiling
    }

    /// The nearest owner of `bucket` from `from`, which must be a slot of
    /// the grid the table was built for.
    #[inline]
    pub fn owner(&self, from: SatelliteId, bucket: BucketId) -> SatelliteId {
        debug_assert!(from.orbit < self.num_planes && from.slot < self.sats_per_plane);
        debug_assert!(bucket.0 < self.tiling.num_buckets);
        let row = from.index(self.sats_per_plane) * self.tiling.num_buckets as usize;
        self.owners[row + bucket.0 as usize]
    }
}

/// Nearest coordinate to `from` (cyclic, size `n`) whose value mod `r`
/// equals `residue`. Scans outward: offset 0, +1, -1, +2, -2, …
fn nearest_with_residue(from: u16, residue: u16, r: u16, n: u16) -> u16 {
    debug_assert!(residue < r);
    for d in 0..=(n / 2 + 1) {
        let up = (from + d) % n;
        if up % r == residue {
            return up;
        }
        let down = (from + n - d % n) % n;
        if down % r == residue {
            return down;
        }
    }
    // r ≤ n always yields a hit within ⌈r/2⌉ steps when r | n; when r ∤ n
    // the wrap seam may distort residues but a hit still exists within n.
    unreachable!("no coordinate with residue {residue} (mod {r}) in 0..{n}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid() -> GridTopology {
        GridTopology::starlink()
    }

    #[test]
    fn rejects_non_squares() {
        for l in [0u32, 2, 3, 5, 8, 10, 24] {
            assert_eq!(BucketTiling::new(l), Err(TilingError::NotPerfectSquare(l)), "{l}");
        }
        for l in [1u32, 4, 9, 16, 25, 36] {
            assert!(BucketTiling::new(l).is_ok(), "{l}");
        }
    }

    #[test]
    fn l4_tile_pattern_matches_paper_figure() {
        // Fig. 5a: the 2×2 grid S1,N1,S2,N2 holds 4 distinct buckets.
        let t = BucketTiling::new(4).unwrap();
        let b = |o, s| t.bucket_of_sat(SatelliteId::new(o, s));
        let tile = [b(0, 0), b(0, 1), b(1, 0), b(1, 1)];
        let mut uniq = tile.to_vec();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "2×2 tile must hold all four buckets");
        // Pattern repeats.
        assert_eq!(b(0, 0), b(2, 2));
        assert_eq!(b(1, 0), b(3, 16));
        assert_eq!(b(0, 1), b(70, 17));
    }

    #[test]
    fn every_bucket_present_in_every_tile_l9() {
        let t = BucketTiling::new(9).unwrap();
        for base_o in [0u16, 3, 33, 69] {
            for base_s in [0u16, 3, 15] {
                let mut seen = [false; 9];
                for dol in 0..3u16 {
                    for dsl in 0..3u16 {
                        let b = t.bucket_of_sat(SatelliteId::new(base_o + dol, base_s + dsl));
                        seen[b.0 as usize] = true;
                    }
                }
                assert!(seen.iter().all(|&x| x), "tile at ({base_o},{base_s})");
            }
        }
    }

    #[test]
    fn worst_case_hops_same_for_l4_and_l9() {
        // §5.3: "the routing overhead ... remains the same as when we have
        // L = 4 buckets (2⌊√L/2⌋ is the same for both configurations)".
        assert_eq!(BucketTiling::new(4).unwrap().worst_case_hops(), 2);
        assert_eq!(BucketTiling::new(9).unwrap().worst_case_hops(), 2);
        assert_eq!(BucketTiling::new(16).unwrap().worst_case_hops(), 4);
        assert_eq!(BucketTiling::new(25).unwrap().worst_case_hops(), 4);
        assert_eq!(BucketTiling::new(1).unwrap().worst_case_hops(), 0);
    }

    #[test]
    fn object_hash_maps_into_range() {
        let t = BucketTiling::new(9).unwrap();
        for h in [0u64, 1, 8, 9, u64::MAX] {
            assert!(t.bucket_of_object(h).0 < 9);
        }
        assert_eq!(t.bucket_of_object(9).0, 0);
    }

    #[test]
    fn nearest_owner_owns_the_bucket() {
        let g = grid();
        for l in [1u32, 4, 9] {
            let t = BucketTiling::new(l).unwrap();
            for from in [SatelliteId::new(0, 0), SatelliteId::new(71, 17), SatelliteId::new(36, 8)]
            {
                for b in 0..l {
                    let owner = t.nearest_owner(&g, from, BucketId(b));
                    assert_eq!(t.bucket_of_sat(owner), BucketId(b), "L={l} from={from} b={b}");
                }
            }
        }
    }

    #[test]
    fn own_bucket_owner_is_self() {
        let g = grid();
        let t = BucketTiling::new(9).unwrap();
        let id = SatelliteId::new(13, 7);
        assert_eq!(t.nearest_owner(&g, id, t.bucket_of_sat(id)), id);
    }

    #[test]
    fn owner_table_matches_nearest_owner_everywhere() {
        // Every slot × bucket, on the paper's grid and on small grids
        // whose axes √L does not divide (so the wrap seam breaks the tile
        // pattern), with and without the east-west seam.
        let mut grids = vec![grid()];
        for (num_planes, sats_per_plane) in [(7u16, 6u16), (5, 7), (13, 9), (6, 5)] {
            for seamless in [true, false] {
                grids.push(GridTopology { num_planes, sats_per_plane, seamless });
            }
        }
        for g in &grids {
            for l in [1u32, 4, 9, 16, 25] {
                let t = BucketTiling::new(l).unwrap();
                let table = OwnerTable::new(g, t).unwrap();
                assert_eq!(table.tiling(), &t);
                for from in g.iter_ids() {
                    for b in 0..l {
                        let want = t.nearest_owner(g, from, BucketId(b));
                        assert_eq!(
                            table.owner(from, BucketId(b)),
                            want,
                            "{g:?} L={l} {from} b={b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn owner_table_rejects_tiles_larger_than_the_grid() {
        let g = GridTopology { num_planes: 4, sats_per_plane: 6, seamless: true };
        let t = BucketTiling::new(25).unwrap();
        assert_eq!(
            OwnerTable::new(&g, t),
            Err(TilingError::TileExceedsGrid { root: 5, num_planes: 4, sats_per_plane: 6 })
        );
        let g = GridTopology { num_planes: 6, sats_per_plane: 4, seamless: false };
        assert!(OwnerTable::new(&g, t).is_err());
        assert!(OwnerTable::new(&g, BucketTiling::new(16).unwrap()).is_ok());
    }

    proptest! {
        #[test]
        fn prop_nearest_owner_within_worst_case(
            l_idx in 0usize..3, o in 0u16..72, s in 0u16..18, h in any::<u64>(),
        ) {
            // L ∈ {4, 9, 36}: tile edges 2, 3, 6 all divide 72 and 18.
            let l = [4u32, 9, 36][l_idx];
            let g = grid();
            let t = BucketTiling::new(l).unwrap();
            let from = SatelliteId::new(o, s);
            let bucket = t.bucket_of_object(h);
            let owner = t.nearest_owner(&g, from, bucket);
            prop_assert_eq!(t.bucket_of_sat(owner), bucket);
            prop_assert!(
                g.hop_distance(from, owner) <= t.worst_case_hops(),
                "L={} from={} bucket={:?} owner={} dist={} bound={}",
                l, from, bucket, owner, g.hop_distance(from, owner), t.worst_case_hops()
            );
        }

        #[test]
        fn prop_worst_case_bound_tight_per_axis(l_idx in 0usize..3, o in 0u16..72, s in 0u16..18) {
            let l = [4u32, 9, 36][l_idx];
            let g = grid();
            let t = BucketTiling::new(l).unwrap();
            let from = SatelliteId::new(o, s);
            for b in 0..l {
                let owner = t.nearest_owner(&g, from, BucketId(b));
                prop_assert!(g.plane_distance(from.orbit, owner.orbit) <= t.worst_case_hops_per_axis());
                prop_assert!(g.slot_distance(from.slot, owner.slot) <= t.worst_case_hops_per_axis());
            }
        }

        #[test]
        fn prop_buckets_evenly_distributed(l_idx in 0usize..3) {
            let l = [4u32, 9, 36][l_idx];
            let g = grid();
            let t = BucketTiling::new(l).unwrap();
            let mut counts = vec![0usize; l as usize];
            for id in g.iter_ids() {
                counts[t.bucket_of_sat(id).0 as usize] += 1;
            }
            let expect = g.total_slots() / l as usize;
            for (b, c) in counts.iter().enumerate() {
                prop_assert_eq!(*c, expect, "bucket {} has {} owners", b, c);
            }
        }
    }
}
