//! Shortest-path routing on the ISL grid.
//!
//! On the healthy torus, a shortest path is any monotone staircase along
//! the two wrap-minimal axes; we return the canonical "planes first, then
//! slots" path. With failures (missing satellites or cut links),
//! [`surviving_hop_mix_recorded`] gives the hop mix of a shortest
//! surviving path: it first checks whether some staircase survives (then
//! the healthy-torus distance still holds) and only otherwise runs a
//! breadth-first search over the surviving grid.
//!
//! Routing starts from a known owner. Which satellite owns a request's
//! bucket is a table lookup (`buckets::OwnerTable`, built once per
//! fleet), so the per-request cost here is the hop mix alone: two wrap
//! distances on the healthy torus, the staircase check (rarely the
//! search) under faults.

use crate::grid::{Direction, GridTopology};
use crate::isl::{IslKind, LinkModel};
use starcdn_orbit::walker::SatelliteId;
use starcdn_telemetry::{Counter, Histo, Noop, Recorder};
use std::collections::VecDeque;

/// A path across the grid: the sequence of hops (directions taken) plus
/// the satellites visited (including both endpoints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridPath {
    pub hops: Vec<Direction>,
    pub nodes: Vec<SatelliteId>,
}

impl GridPath {
    /// Number of ISL hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True for a zero-hop (self) path.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Total one-way propagation delay along the path under `model`, ms.
    pub fn delay_ms(&self, model: &LinkModel) -> f64 {
        self.hops.iter().map(|&d| model.delay_ms(IslKind::of_direction(d))).sum()
    }

    /// Count of (intra, inter) hops.
    pub fn hop_mix(&self) -> (usize, usize) {
        let inter = self.hops.iter().filter(|d| d.is_inter_orbit()).count();
        (self.hops.len() - inter, inter)
    }
}

/// Canonical shortest path on the healthy torus: wrap-minimal plane moves
/// first, then wrap-minimal slot moves.
///
/// Panics when the grid is degenerate (an axis without a wrap
/// neighbour); hot paths that must survive a broken topology use
/// [`try_shortest_path`] and treat `None` as a partition.
pub fn shortest_path(grid: &GridTopology, from: SatelliteId, to: SatelliteId) -> GridPath {
    try_shortest_path(grid, from, to).expect("canonical walk needs a torus with wrap neighbours")
}

/// Fallible [`shortest_path`]: returns `None` instead of panicking when
/// a neighbour lookup fails mid-walk (degenerate or partitioned grid),
/// so callers can degrade to the origin bent-pipe path.
pub fn try_shortest_path(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
) -> Option<GridPath> {
    if !grid.contains(from) || !grid.contains(to) {
        return None;
    }
    let mut hops = Vec::new();
    let mut nodes = vec![from];
    let mut cur = from;

    // Plane axis: choose the wrap direction with fewer hops (east = +1).
    let p = grid.num_planes;
    let fwd = (to.orbit + p - cur.orbit) % p; // hops going east
    let (pd, psteps) =
        if fwd <= p - fwd { (Direction::East, fwd) } else { (Direction::West, p - fwd) };
    for _ in 0..psteps {
        cur = grid.neighbor(cur, pd)?;
        hops.push(pd);
        nodes.push(cur);
    }

    // Slot axis (north = +1).
    let s = grid.sats_per_plane;
    let fwd = (to.slot + s - cur.slot) % s;
    let (sd, ssteps) =
        if fwd <= s - fwd { (Direction::North, fwd) } else { (Direction::South, s - fwd) };
    for _ in 0..ssteps {
        cur = grid.neighbor(cur, sd)?;
        hops.push(sd);
        nodes.push(cur);
    }

    if cur != to {
        return None;
    }
    Some(GridPath { hops, nodes })
}

/// BFS shortest path avoiding satellites for which `alive` returns false.
/// Endpoints must be alive. Returns `None` if `to` is unreachable.
pub fn shortest_path_avoiding(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    alive: impl Fn(SatelliteId) -> bool,
) -> Option<GridPath> {
    shortest_path_avoiding_links(grid, from, to, alive, |_, _| true)
}

/// BFS shortest path avoiding both dead satellites (`alive` false) and
/// individually cut ISLs (`link_ok` false for the unordered endpoint
/// pair). Endpoints must be alive. Returns `None` if `to` is
/// unreachable over the surviving grid.
pub fn shortest_path_avoiding_links(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    alive: impl Fn(SatelliteId) -> bool,
    link_ok: impl Fn(SatelliteId, SatelliteId) -> bool,
) -> Option<GridPath> {
    shortest_path_avoiding_links_recorded(grid, from, to, alive, link_ok, &Noop)
}

/// [`shortest_path_avoiding_links`] with telemetry: counts the route
/// resolution ([`Counter::BfsRoutes`]) and observes the hop length of the
/// path found ([`Histo::BfsPathHops`]), as [`surviving_hop_mix_recorded`]
/// does, so either records the same values for the same query. The plain
/// entry point passes [`Noop`], which compiles down to the uninstrumented
/// search.
pub fn shortest_path_avoiding_links_recorded(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    alive: impl Fn(SatelliteId) -> bool,
    link_ok: impl Fn(SatelliteId, SatelliteId) -> bool,
    rec: &dyn Recorder,
) -> Option<GridPath> {
    let enabled = rec.is_enabled();
    if enabled {
        rec.add(Counter::BfsRoutes, 1);
    }
    let path = bfs_avoiding_links(grid, from, to, alive, link_ok);
    if enabled {
        if let Some(p) = &path {
            rec.observe(Histo::BfsPathHops, p.len() as u64);
        }
    }
    path
}

/// Hop mix `(intra, inter)` of a shortest path from `from` to `to` that
/// avoids dead satellites (`alive` false) and cut ISLs (`link_ok` false);
/// its length is `intra + inter`. `None` when an endpoint is dead or `to`
/// is unreachable over the surviving grid. `link_ok` is asked only about
/// links whose two ends both passed `alive`.
///
/// Any path needs at least the plane distance in inter-orbit hops and the
/// slot distance in intra-orbit hops, so when a monotone staircase of
/// healthy-torus length survives, every shortest surviving path has
/// exactly that mix. The staircase check visits only the box between the
/// endpoints; the breadth-first search runs only when no staircase
/// survives. Records the same telemetry as
/// [`shortest_path_avoiding_links_recorded`]: one [`Counter::BfsRoutes`]
/// per call and the length in [`Histo::BfsPathHops`] when a path exists.
pub fn surviving_hop_mix_recorded(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    alive: impl Fn(SatelliteId) -> bool,
    link_ok: impl Fn(SatelliteId, SatelliteId) -> bool,
    rec: &dyn Recorder,
) -> Option<(usize, usize)> {
    let enabled = rec.is_enabled();
    if enabled {
        rec.add(Counter::BfsRoutes, 1);
    }
    let mix = staircase_hop_mix(grid, from, to, &alive, &link_ok)
        .or_else(|| bfs_avoiding_links(grid, from, to, alive, link_ok).map(|p| p.hop_mix()));
    if enabled {
        if let Some((intra, inter)) = mix {
            rec.observe(Histo::BfsPathHops, (intra + inter) as u64);
        }
    }
    mix
}

/// The hop mix of the healthy torus when some monotone staircase from
/// `from` to `to` survives, trying every wrap-minimal direction on each
/// axis (both on an axis whose distance is half its ring). `None` means
/// no staircase survives (or an endpoint is dead, or the slot distance
/// does not fit one `u64` row), so the caller must search.
fn staircase_hop_mix(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    alive: &impl Fn(SatelliteId) -> bool,
    link_ok: &impl Fn(SatelliteId, SatelliteId) -> bool,
) -> Option<(usize, usize)> {
    // A dead `to` fails the box's last cell (or equals a dead `from`).
    if !grid.contains(from) || !grid.contains(to) || !alive(from) {
        return None;
    }
    let inter = grid.plane_distance(from.orbit, to.orbit);
    let intra = grid.slot_distance(from.slot, to.slot);
    if intra >= 64 {
        return None;
    }
    // Steps from `a` to `b` going up the ring of `n`.
    let up = |a: u16, b: u16, n: u16| (u32::from(b) + u32::from(n) - u32::from(a)) % u32::from(n);
    let (p, s) = (grid.num_planes, grid.sats_per_plane);
    // Without the seam's wrap, the only plane walk is the direct one.
    let east = up(from.orbit, to.orbit, p) == u32::from(inter)
        && (grid.seamless || to.orbit >= from.orbit);
    let west = inter > 0
        && up(to.orbit, from.orbit, p) == u32::from(inter)
        && (grid.seamless || from.orbit >= to.orbit);
    let north = up(from.slot, to.slot, s) == u32::from(intra);
    let south = intra > 0 && up(to.slot, from.slot, s) == u32::from(intra);
    let planes = [east.then_some(Direction::East), west.then_some(Direction::West)];
    let slots = [north.then_some(Direction::North), south.then_some(Direction::South)];
    for pd in planes.into_iter().flatten() {
        for sd in slots.into_iter().flatten() {
            if staircase_survives(grid, from, (pd, inter), (sd, intra), alive, link_ok) {
                return Some((usize::from(intra), usize::from(inter)));
            }
        }
    }
    None
}

/// Whether a monotone path survives from `from` across the box of
/// `inter` steps in direction `pd` by `intra` (< 64) steps in `sd`.
/// Row by row along the plane axis, bit `j` of a row marks the cell `j`
/// slot steps in that is reachable from `from` by such a path; `from`
/// must be alive.
fn staircase_survives(
    grid: &GridTopology,
    from: SatelliteId,
    (pd, inter): (Direction, u16),
    (sd, intra): (Direction, u16),
    alive: &impl Fn(SatelliteId) -> bool,
    link_ok: &impl Fn(SatelliteId, SatelliteId) -> bool,
) -> bool {
    let mut reach = 0u64; // the previous row
    let mut above_start = from;
    for i in 0..=inter {
        let row_start = match i {
            0 => from,
            _ => {
                let Some(n) = grid.neighbor(above_start, pd) else { return false };
                n
            }
        };
        let mut row = u64::from(i == 0);
        let (mut above, mut cur) = (above_start, row_start);
        for j in 0..=intra {
            let left = cur;
            if j > 0 {
                let (Some(a), Some(c)) = (grid.neighbor(above, sd), grid.neighbor(cur, sd)) else {
                    return false;
                };
                (above, cur) = (a, c);
            }
            let from_left = j > 0 && row >> (j - 1) & 1 == 1;
            let from_above = i > 0 && reach >> j & 1 == 1;
            if (from_left || from_above)
                && alive(cur)
                && ((from_left && link_ok(left, cur)) || (from_above && link_ok(above, cur)))
            {
                row |= 1 << j;
            }
        }
        if row == 0 {
            return false;
        }
        reach = row;
        above_start = row_start;
    }
    reach >> intra & 1 == 1
}

fn bfs_avoiding_links(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    alive: impl Fn(SatelliteId) -> bool,
    link_ok: impl Fn(SatelliteId, SatelliteId) -> bool,
) -> Option<GridPath> {
    if !alive(from) || !alive(to) {
        return None;
    }
    if from == to {
        return Some(GridPath { hops: vec![], nodes: vec![from] });
    }
    let spp = grid.sats_per_plane;
    let mut prev: Vec<Option<(SatelliteId, Direction)>> = vec![None; grid.total_slots()];
    let mut visited = vec![false; grid.total_slots()];
    visited[from.index(spp)] = true;
    let mut q = VecDeque::from([from]);
    while let Some(cur) = q.pop_front() {
        for d in Direction::ALL {
            let Some(n) = grid.neighbor(cur, d) else { continue };
            if visited[n.index(spp)] || !alive(n) || !link_ok(cur, n) {
                continue;
            }
            visited[n.index(spp)] = true;
            prev[n.index(spp)] = Some((cur, d));
            if n == to {
                // Reconstruct.
                let mut hops = Vec::new();
                let mut nodes = vec![to];
                let mut walk = to;
                while walk != from {
                    let (p, d) = prev[walk.index(spp)].expect(
                        "BFS invariant: every visited node except `from` has a predecessor",
                    );
                    hops.push(d);
                    nodes.push(p);
                    walk = p;
                }
                hops.reverse();
                nodes.reverse();
                return Some(GridPath { hops, nodes });
            }
            q.push_back(n);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failures::FailureModel;
    use proptest::prelude::*;

    fn grid() -> GridTopology {
        GridTopology::starlink()
    }

    #[test]
    fn self_path_is_empty() {
        let g = grid();
        let p = shortest_path(&g, SatelliteId::new(3, 4), SatelliteId::new(3, 4));
        assert!(p.is_empty());
        assert_eq!(p.nodes, vec![SatelliteId::new(3, 4)]);
        assert_eq!(p.delay_ms(&LinkModel::table1()), 0.0);
    }

    #[test]
    fn single_hop_paths() {
        let g = grid();
        let p = shortest_path(&g, SatelliteId::new(0, 0), SatelliteId::new(1, 0));
        assert_eq!(p.hops, vec![Direction::East]);
        let p = shortest_path(&g, SatelliteId::new(0, 0), SatelliteId::new(0, 1));
        assert_eq!(p.hops, vec![Direction::North]);
    }

    #[test]
    fn wrap_around_paths_take_short_side() {
        let g = grid();
        // Plane 71 → plane 0 is one hop east via the seam.
        let p = shortest_path(&g, SatelliteId::new(71, 5), SatelliteId::new(0, 5));
        assert_eq!(p.len(), 1);
        assert_eq!(p.hops, vec![Direction::East]);
        // Slot 0 → slot 17 is one hop south via the wrap.
        let p = shortest_path(&g, SatelliteId::new(4, 0), SatelliteId::new(4, 17));
        assert_eq!(p.hops, vec![Direction::South]);
    }

    #[test]
    fn path_delay_accounts_link_kinds() {
        let g = grid();
        let m = LinkModel::table1();
        // 2 east + 1 north = 2×2.15 + 8.03 = 12.33 ms.
        let p = shortest_path(&g, SatelliteId::new(0, 0), SatelliteId::new(2, 1));
        assert_eq!(p.hop_mix(), (1, 2));
        assert!((p.delay_ms(&m) - 12.33).abs() < 1e-9);
    }

    #[test]
    fn try_shortest_path_matches_panicking_walk() {
        let g = grid();
        for (a, b) in [
            (SatelliteId::new(0, 0), SatelliteId::new(5, 3)),
            (SatelliteId::new(71, 5), SatelliteId::new(0, 5)),
            (SatelliteId::new(3, 4), SatelliteId::new(3, 4)),
        ] {
            let fallible = try_shortest_path(&g, a, b).expect("healthy torus always routes");
            assert_eq!(fallible, shortest_path(&g, a, b));
        }
    }

    #[test]
    fn try_shortest_path_recovers_on_degenerate_grid() {
        // A seamless-less grid has no east/west wrap at the seam: the
        // canonical walk would panic; the fallible walk reports None.
        let g = GridTopology { num_planes: 4, sats_per_plane: 4, seamless: false };
        let a = SatelliteId::new(3, 0);
        let b = SatelliteId::new(0, 0);
        assert!(try_shortest_path(&g, a, b).is_none(), "seam crossing must not route");
        // Off-grid endpoints are rejected rather than walked.
        let g = grid();
        assert!(try_shortest_path(&g, SatelliteId::new(99, 0), SatelliteId::new(0, 0)).is_none());
    }

    #[test]
    fn bfs_agrees_with_manhattan_when_healthy() {
        let g = grid();
        for (a, b) in [
            (SatelliteId::new(0, 0), SatelliteId::new(5, 3)),
            (SatelliteId::new(70, 16), SatelliteId::new(1, 1)),
            (SatelliteId::new(36, 9), SatelliteId::new(0, 0)),
        ] {
            let direct = shortest_path(&g, a, b);
            let bfs = shortest_path_avoiding(&g, a, b, |_| true).unwrap();
            assert_eq!(direct.len(), bfs.len(), "{a} -> {b}");
            assert_eq!(direct.len() as u16, g.hop_distance(a, b));
        }
    }

    #[test]
    fn bfs_routes_around_dead_satellite() {
        let g = grid();
        let from = SatelliteId::new(0, 0);
        let to = SatelliteId::new(2, 0);
        let dead = SatelliteId::new(1, 0);
        let p = shortest_path_avoiding(&g, from, to, |id| id != dead).unwrap();
        assert!(!p.nodes.contains(&dead));
        assert_eq!(p.len(), 4, "detour adds two hops");
    }

    #[test]
    fn bfs_none_when_endpoint_dead() {
        let g = grid();
        let a = SatelliteId::new(0, 0);
        let b = SatelliteId::new(1, 0);
        assert!(shortest_path_avoiding(&g, a, b, |id| id != a).is_none());
        assert!(shortest_path_avoiding(&g, a, b, |id| id != b).is_none());
    }

    #[test]
    fn bfs_routes_around_cut_link() {
        let g = grid();
        let from = SatelliteId::new(0, 0);
        let to = SatelliteId::new(2, 0);
        let mut f = crate::failures::FailureModel::none();
        f.cut_link(SatelliteId::new(0, 0), SatelliteId::new(1, 0));
        let p = shortest_path_avoiding_links(
            &g,
            from,
            to,
            |id| f.is_alive(id),
            |a, b| f.is_link_alive(a, b),
        )
        .expect("a single cut link always leaves a detour on the torus");
        assert_eq!(p.len(), 4, "one cut link forces a two-hop detour");
        for w in p.nodes.windows(2) {
            assert!(f.is_link_alive(w[0], w[1]), "path uses cut link {:?}->{:?}", w[0], w[1]);
        }
        // Both endpoints of the cut link are still reachable themselves.
        assert!(shortest_path_avoiding_links(
            &g,
            from,
            SatelliteId::new(1, 0),
            |id| f.is_alive(id),
            |a, b| f.is_link_alive(a, b),
        )
        .is_some());
    }

    #[test]
    fn bfs_none_when_all_links_of_endpoint_cut() {
        let g = grid();
        let target = SatelliteId::new(10, 10);
        let mut f = crate::failures::FailureModel::none();
        for (_, n) in g.neighbors(target) {
            f.cut_link(target, n);
        }
        let p = shortest_path_avoiding_links(
            &g,
            SatelliteId::new(0, 0),
            target,
            |id| f.is_alive(id),
            |a, b| f.is_link_alive(a, b),
        );
        assert!(p.is_none(), "satellite with every ISL cut is unreachable");
    }

    #[test]
    fn bfs_none_when_isolated() {
        let g = grid();
        let target = SatelliteId::new(10, 10);
        let ring: Vec<SatelliteId> = g.neighbors(target).into_iter().map(|(_, n)| n).collect();
        let p =
            shortest_path_avoiding(&g, SatelliteId::new(0, 0), target, |id| !ring.contains(&id));
        assert!(p.is_none());
    }

    /// `(len, intra, inter)` of [`surviving_hop_mix_recorded`] under `f`.
    fn fast_mix(
        g: &GridTopology,
        f: &FailureModel,
        a: SatelliteId,
        b: SatelliteId,
    ) -> Option<(usize, usize, usize)> {
        surviving_hop_mix_recorded(
            g,
            a,
            b,
            |id| f.is_alive(id),
            |x, y| f.is_link_alive(x, y),
            &Noop,
        )
        .map(|(intra, inter)| (intra + inter, intra, inter))
    }

    /// `(len, intra, inter)` of the breadth-first search alone under `f`.
    fn bfs_mix(
        g: &GridTopology,
        f: &FailureModel,
        a: SatelliteId,
        b: SatelliteId,
    ) -> Option<(usize, usize, usize)> {
        shortest_path_avoiding_links(g, a, b, |id| f.is_alive(id), |x, y| f.is_link_alive(x, y))
            .map(|p| {
                let (intra, inter) = p.hop_mix();
                (p.len(), intra, inter)
            })
    }

    /// The staircase check alone (no search behind it) under `f`.
    fn staircase(
        g: &GridTopology,
        f: &FailureModel,
        a: SatelliteId,
        b: SatelliteId,
    ) -> Option<(usize, usize)> {
        staircase_hop_mix(g, a, b, &|id| f.is_alive(id), &|x, y| f.is_link_alive(x, y))
    }

    /// Grids for the differential test: the paper's shell, small odd and
    /// even tori, and degenerate rings, each with and without the seam.
    fn differential_grids() -> Vec<GridTopology> {
        [(72, 18), (4, 4), (5, 3), (2, 2), (3, 1), (1, 5), (6, 5)]
            .into_iter()
            .flat_map(|(p, s)| {
                [true, false].map(|seamless| GridTopology {
                    num_planes: p,
                    sats_per_plane: s,
                    seamless,
                })
            })
            .collect()
    }

    #[test]
    fn staircase_takes_west_on_plane_half_ring_tie() {
        // 36 planes either way: kill the east-going line, keep the west.
        let g = grid();
        let (a, b) = (SatelliteId::new(0, 3), SatelliteId::new(36, 3));
        let mut f = FailureModel::none();
        f.kill(SatelliteId::new(18, 3));
        assert_eq!(staircase(&g, &f, a, b), Some((0, 36)), "west staircase survives");
        assert_eq!(fast_mix(&g, &f, a, b), bfs_mix(&g, &f, a, b));
        assert_eq!(fast_mix(&g, &f, a, b), Some((36, 0, 36)));
        // Cutting one west-going link too leaves no staircase: the search
        // must find the detour.
        f.cut_link(SatelliteId::new(71, 3), SatelliteId::new(70, 3));
        assert_eq!(staircase(&g, &f, a, b), None);
        assert_eq!(fast_mix(&g, &f, a, b), bfs_mix(&g, &f, a, b));
        assert_eq!(fast_mix(&g, &f, a, b).map(|m| m.0), Some(38));
    }

    #[test]
    fn staircase_takes_south_on_slot_half_ring_tie() {
        // 9 slots either way, plus one plane east: cut the north-going
        // column at both planes so only south-going staircases survive.
        let g = grid();
        let (a, b) = (SatelliteId::new(10, 0), SatelliteId::new(11, 9));
        let mut f = FailureModel::none();
        f.cut_link(SatelliteId::new(10, 4), SatelliteId::new(10, 5));
        f.cut_link(SatelliteId::new(11, 4), SatelliteId::new(11, 5));
        assert_eq!(staircase(&g, &f, a, b), Some((9, 1)), "south staircase survives");
        assert_eq!(fast_mix(&g, &f, a, b), bfs_mix(&g, &f, a, b));
        assert_eq!(fast_mix(&g, &f, a, b), Some((10, 9, 1)));
    }

    #[test]
    fn staircase_respects_the_seam() {
        // Without the seam, plane 3 → plane 0 is three hops west, never
        // one hop east across the seam.
        let g = GridTopology { num_planes: 4, sats_per_plane: 4, seamless: false };
        let (a, b) = (SatelliteId::new(3, 0), SatelliteId::new(0, 0));
        let mut f = FailureModel::none();
        assert_eq!(staircase(&g, &f, a, b), Some((0, 3)));
        f.kill(SatelliteId::new(1, 0));
        assert_eq!(staircase(&g, &f, a, b), None);
        assert_eq!(fast_mix(&g, &f, a, b), bfs_mix(&g, &f, a, b));
        assert_eq!(fast_mix(&g, &f, a, b), Some((5, 2, 3)));
    }

    #[test]
    fn dead_endpoint_skips_staircase_and_stays_unroutable() {
        let g = grid();
        let (a, b) = (SatelliteId::new(0, 0), SatelliteId::new(1, 1));
        let mut f = FailureModel::none();
        f.kill(b);
        assert_eq!(staircase(&g, &f, a, b), None);
        assert_eq!(fast_mix(&g, &f, a, b), None);
        assert_eq!(fast_mix(&g, &f, b, a), None);
        assert_eq!(fast_mix(&g, &f, b, b), None);
    }

    #[test]
    fn long_slot_axis_falls_back_to_search() {
        // A slot distance of 64 or more does not fit one `u64` row.
        let g = GridTopology { num_planes: 2, sats_per_plane: 200, seamless: true };
        let (a, b) = (SatelliteId::new(0, 0), SatelliteId::new(1, 100));
        let mut f = FailureModel::none();
        f.kill(SatelliteId::new(0, 150));
        assert_eq!(staircase(&g, &f, a, b), None);
        assert_eq!(fast_mix(&g, &f, a, b), Some((101, 100, 1)));
        assert_eq!(fast_mix(&g, &f, a, b), bfs_mix(&g, &f, a, b));
        let c = SatelliteId::new(1, 63);
        assert_eq!(staircase(&g, &f, a, c), Some((63, 1)));
    }

    #[test]
    fn hop_mix_records_what_the_search_records() {
        use starcdn_telemetry::MemoryRecorder;
        let g = GridTopology { num_planes: 6, sats_per_plane: 5, seamless: true };
        let mut f = FailureModel::sample(&g, 6, 9);
        f.cut_link(SatelliteId::new(0, 0), SatelliteId::new(0, 1));
        let (fast, bfs) = (MemoryRecorder::new(), MemoryRecorder::new());
        for a in g.iter_ids() {
            for b in g.iter_ids() {
                let alive = |id| f.is_alive(id);
                let link_ok = |x, y| f.is_link_alive(x, y);
                surviving_hop_mix_recorded(&g, a, b, alive, link_ok, &fast);
                shortest_path_avoiding_links_recorded(&g, a, b, alive, link_ok, &bfs);
            }
        }
        assert_eq!(fast.counter(Counter::BfsRoutes), g.total_slots() as u64 * 30);
        assert_eq!(fast.snapshot(), bfs.snapshot());
    }

    #[test]
    fn bfs_visits_neighbours_in_direction_order() {
        // Ties between equal-length detours break by `Direction::ALL`
        // order (north, south, east, west): the dead (1, 0) forces a
        // detour, and north is tried before south.
        let g = grid();
        let p = shortest_path_avoiding(&g, SatelliteId::new(0, 0), SatelliteId::new(2, 0), |id| {
            id != SatelliteId::new(1, 0)
        })
        .expect("a single dead satellite leaves a detour");
        assert_eq!(
            p.hops,
            vec![Direction::North, Direction::East, Direction::East, Direction::South]
        );
    }

    proptest! {
        #[test]
        fn prop_hop_mix_matches_bfs(
            shape in 0usize..14, seed in 1u64..100_000,
            kill in 0usize..1_000, cuts in 0usize..1_000,
            o1 in 0u16..72, s1 in 0u16..18, o2 in 0u16..72, s2 in 0u16..18,
        ) {
            let g = differential_grids()[shape].clone();
            let total = g.total_slots();
            let mut f = FailureModel::sample(&g, kill % (total / 3 + 1), seed);
            let mut rng = crate::failures::rand_like::SmallRng::new(seed ^ 0x5_7A1C);
            for _ in 0..cuts % (total / 2 + 1) {
                let x = SatelliteId::new(
                    rng.gen_range(g.num_planes as u64) as u16,
                    rng.gen_range(g.sats_per_plane as u64) as u16,
                );
                if let Some(n) = g.neighbor(x, Direction::ALL[rng.gen_range(4) as usize]) {
                    f.cut_link(x, n);
                }
            }
            let pick = |o: u16, s: u16| SatelliteId::new(o % g.num_planes, s % g.sats_per_plane);
            let mut pairs = vec![(pick(o1, s1), pick(o2, s2))];
            if total <= 36 {
                pairs.extend(g.iter_ids().flat_map(|a| g.iter_ids().map(move |b| (a, b))));
            }
            for (a, b) in pairs {
                let fast = fast_mix(&g, &f, a, b);
                prop_assert_eq!(fast, bfs_mix(&g, &f, a, b), "{:?}: {} -> {}", g, a, b);
                if let Some((len, _, _)) = fast {
                    prop_assert!(len >= g.hop_distance(a, b) as usize);
                }
                // Liveness alone, with every link between live nodes up.
                let alive = |id| f.is_alive(id);
                prop_assert_eq!(
                    surviving_hop_mix_recorded(&g, a, b, alive, |_, _| true, &Noop),
                    shortest_path_avoiding(&g, a, b, alive).map(|p| p.hop_mix()),
                    "{:?}: {} -> {}", g, a, b
                );
            }
        }

        #[test]
        fn prop_path_length_equals_hop_distance(
            o1 in 0u16..72, s1 in 0u16..18, o2 in 0u16..72, s2 in 0u16..18,
        ) {
            let g = grid();
            let a = SatelliteId::new(o1, s1);
            let b = SatelliteId::new(o2, s2);
            let p = shortest_path(&g, a, b);
            prop_assert_eq!(p.len() as u16, g.hop_distance(a, b));
            // Path is connected and ends at b.
            prop_assert_eq!(*p.nodes.first().unwrap(), a);
            prop_assert_eq!(*p.nodes.last().unwrap(), b);
            for w in p.nodes.windows(2) {
                prop_assert_eq!(g.hop_distance(w[0], w[1]), 1);
            }
        }

        #[test]
        fn prop_bfs_no_longer_than_manhattan_plus_detours(
            o1 in 0u16..72, s1 in 0u16..18, o2 in 0u16..72, s2 in 0u16..18,
            dead_o in 0u16..72, dead_s in 0u16..18,
        ) {
            let g = grid();
            let a = SatelliteId::new(o1, s1);
            let b = SatelliteId::new(o2, s2);
            let dead = SatelliteId::new(dead_o, dead_s);
            prop_assume!(a != dead && b != dead);
            let p = shortest_path_avoiding(&g, a, b, |id| id != dead).unwrap();
            // One dead satellite can add at most 2 hops on a torus.
            prop_assert!(p.len() as u16 <= g.hop_distance(a, b) + 2);
            prop_assert!(p.len() as u16 >= g.hop_distance(a, b));
        }

        #[test]
        fn prop_paths_avoid_cut_links_and_dead_nodes(
            o1 in 0u16..72, s1 in 0u16..18, o2 in 0u16..72, s2 in 0u16..18,
            seed in 1u64..200, kill in 0usize..60, cuts in 0usize..60,
        ) {
            let g = grid();
            let a = SatelliteId::new(o1, s1);
            let b = SatelliteId::new(o2, s2);
            // Random dead set plus random cut links, deterministic in seed.
            let mut f = crate::failures::FailureModel::sample(&g, kill, seed);
            let mut rng = crate::failures::rand_like::SmallRng::new(seed ^ 0xDEAD_15E5);
            for _ in 0..cuts {
                let x = SatelliteId::new(
                    rng.gen_range(g.num_planes as u64) as u16,
                    rng.gen_range(g.sats_per_plane as u64) as u16,
                );
                let (_, n) = g.neighbors(x)[rng.gen_range(4) as usize];
                f.cut_link(x, n);
            }
            prop_assume!(f.is_alive(a) && f.is_alive(b));
            if let Some(p) = shortest_path_avoiding_links(
                &g, a, b, |id| f.is_alive(id), |x, y| f.is_link_alive(x, y),
            ) {
                prop_assert_eq!(*p.nodes.first().unwrap(), a);
                prop_assert_eq!(*p.nodes.last().unwrap(), b);
                for n in &p.nodes {
                    prop_assert!(f.is_alive(*n), "path visits dead satellite {:?}", n);
                }
                for w in p.nodes.windows(2) {
                    prop_assert_eq!(g.hop_distance(w[0], w[1]), 1);
                    prop_assert!(
                        f.is_link_alive(w[0], w[1]),
                        "path crosses cut link {:?} -> {:?}", w[0], w[1]
                    );
                }
            }
        }
    }
}
