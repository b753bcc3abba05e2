//! Relayed fetch (§3.3): neighbour selection.
//!
//! On a cache miss at a bucket owner, StarCDN probes the *same-bucket*
//! inter-orbit neighbours — `√L` planes west (the satellite that just
//! retraced this ground track, per Fig. 3) and/or `√L` planes east.
//! Intra-orbit neighbours are never used: at 8 ms per hop they are ~4×
//! costlier than inter-orbit hops (Table 1).
//!
//! Under failures a neighbour slot may be out of service; its bucket
//! responsibilities were remapped (§3.4), so the probe follows the remap
//! to the satellite actually holding that neighbour's content.

use crate::config::RelayPolicy;
use crate::system::ServedFrom;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::grid::GridTopology;
use starcdn_orbit::walker::SatelliteId;

/// One relay candidate: the serve-source tag and the satellite probed.
pub type RelayCandidate = (ServedFrom, SatelliteId);

/// The (at most two) relay candidates of one miss, in probe order. A
/// fixed two-slot value, so choosing candidates never allocates; it
/// derefs to a slice and iterates by value.
#[derive(Clone, Copy)]
pub struct RelayCandidates {
    items: [RelayCandidate; 2],
    len: usize,
}

impl RelayCandidates {
    const EMPTY: RelayCandidates = RelayCandidates {
        items: [(ServedFrom::Ground, SatelliteId { orbit: 0, slot: 0 }); 2],
        len: 0,
    };

    fn push(&mut self, c: RelayCandidate) {
        self.items[self.len] = c;
        self.len += 1;
    }
}

impl std::ops::Deref for RelayCandidates {
    type Target = [RelayCandidate];

    fn deref(&self) -> &[RelayCandidate] {
        &self.items[..self.len]
    }
}

impl IntoIterator for RelayCandidates {
    type Item = RelayCandidate;
    type IntoIter = std::iter::Take<std::array::IntoIter<RelayCandidate, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len)
    }
}

impl std::fmt::Debug for RelayCandidates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq<Vec<RelayCandidate>> for RelayCandidates {
    fn eq(&self, other: &Vec<RelayCandidate>) -> bool {
        **self == other[..]
    }
}

/// The neighbours a miss at `owner` may relay to, in probe order
/// (west first — the historically-useful direction — then east).
///
/// Each candidate is `(source_tag, satellite)`. Candidates equal to the
/// owner itself (possible after failure remapping collapses neighbours)
/// are dropped.
pub fn relay_candidates(
    grid: &GridTopology,
    owner: SatelliteId,
    span_planes: u16,
    policy: RelayPolicy,
    failures: &FailureModel,
) -> RelayCandidates {
    let mut out = RelayCandidates::EMPTY;
    let mut push = |tag: ServedFrom, slot: SatelliteId| {
        if let Some(resolved) = failures.resolve_owner(grid, slot) {
            if resolved != owner && !out.iter().any(|&(_, s)| s == resolved) {
                out.push((tag, resolved));
            }
        }
    };
    match policy {
        RelayPolicy::None => {}
        RelayPolicy::WestOnly => push(ServedFrom::RelayWest, grid.west_by(owner, span_planes)),
        RelayPolicy::EastOnly => push(ServedFrom::RelayEast, grid.east_by(owner, span_planes)),
        RelayPolicy::Both => {
            push(ServedFrom::RelayWest, grid.west_by(owner, span_planes));
            push(ServedFrom::RelayEast, grid.east_by(owner, span_planes));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridTopology {
        GridTopology::starlink()
    }

    #[test]
    fn none_policy_no_candidates() {
        let c = relay_candidates(
            &grid(),
            SatelliteId::new(10, 5),
            2,
            RelayPolicy::None,
            &FailureModel::none(),
        );
        assert!(c.is_empty());
    }

    #[test]
    fn both_policy_west_first() {
        let owner = SatelliteId::new(10, 5);
        let c = relay_candidates(&grid(), owner, 3, RelayPolicy::Both, &FailureModel::none());
        assert_eq!(c.len(), 2);
        assert_eq!(c[0], (ServedFrom::RelayWest, SatelliteId::new(7, 5)));
        assert_eq!(c[1], (ServedFrom::RelayEast, SatelliteId::new(13, 5)));
    }

    #[test]
    fn wraps_across_seam() {
        let c = relay_candidates(
            &grid(),
            SatelliteId::new(0, 5),
            2,
            RelayPolicy::WestOnly,
            &FailureModel::none(),
        );
        assert_eq!(c, vec![(ServedFrom::RelayWest, SatelliteId::new(70, 5))]);
    }

    #[test]
    fn dead_neighbor_follows_remap() {
        let owner = SatelliteId::new(10, 5);
        let west_slot = SatelliteId::new(8, 5);
        let failures = FailureModel::from_dead([west_slot]);
        let c = relay_candidates(&grid(), owner, 2, RelayPolicy::WestOnly, &failures);
        assert_eq!(c.len(), 1);
        // Remap walks north along the plane: (8, 6).
        assert_eq!(c[0].1, SatelliteId::new(8, 6));
    }

    #[test]
    fn candidate_equal_to_owner_dropped() {
        // Span that wraps all the way around to the owner itself.
        let owner = SatelliteId::new(10, 5);
        let c = relay_candidates(&grid(), owner, 72, RelayPolicy::Both, &FailureModel::none());
        assert!(c.is_empty(), "self-relay must be dropped: {c:?}");
    }

    #[test]
    fn duplicate_candidates_dedup() {
        // On a tiny 2-plane grid, west and east neighbours coincide.
        let g = GridTopology { num_planes: 2, sats_per_plane: 4, seamless: true };
        let owner = SatelliteId::new(0, 1);
        let c = relay_candidates(&g, owner, 1, RelayPolicy::Both, &FailureModel::none());
        assert_eq!(c.len(), 1, "{c:?}");
        assert_eq!(c[0].1, SatelliteId::new(1, 1));
    }
}
