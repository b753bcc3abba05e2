//! The StarCDN system: request handling across the satellite fleet.
//!
//! [`SpaceCdn`] owns one cache per grid slot and implements the full
//! request pipeline of Fig. 5a:
//!
//! 1. the user's request arrives at its *first-contact* satellite
//!    (chosen by the link scheduler — outside StarCDN's control);
//! 2. with hashing enabled, the request is routed over ISLs to the
//!    nearest owner of the object's bucket (≤ `2⌊√L/2⌋` hops), after
//!    §3.4 failure remapping;
//! 3. the owner serves from cache, or relay-fetches from its same-bucket
//!    inter-orbit neighbours (§3.3), or downlinks to the ground origin —
//!    always caching what it fetched;
//! 4. latency is accounted leg by leg and uplink bytes are charged only
//!    for ground fetches.

use crate::config::StarCdnConfig;
use crate::latency::LatencyModel;
use crate::metrics::SystemMetrics;
use crate::relay::relay_candidates;
use serde::{Deserialize, Serialize};
use starcdn_cache::object::ObjectId;
use starcdn_cache::policy::{AccessOutcome, Cache};
use starcdn_cache::{InflightQueue, InflightState};
use starcdn_constellation::buckets::{BucketTiling, OwnerTable};
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::grid::GridTopology;
use starcdn_constellation::routing::surviving_hop_mix_recorded;
use starcdn_orbit::walker::SatelliteId;

/// Where a request was ultimately served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServedFrom {
    /// The bucket owner's own cache (or the first-contact satellite's,
    /// without hashing).
    LocalHit,
    /// The west same-bucket inter-orbit neighbour.
    RelayWest,
    /// The east same-bucket inter-orbit neighbour.
    RelayEast,
    /// Fetched from the origin via a ground-satellite link.
    Ground,
}

impl ServedFrom {
    /// True when the request never touched the ground.
    pub fn is_space_hit(self) -> bool {
        !matches!(self, ServedFrom::Ground)
    }
}

/// The result of handling one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOutcome {
    pub served_from: ServedFrom,
    /// End-to-end RTT, ms.
    pub latency_ms: f64,
    /// Bytes charged to the ground-to-satellite uplink.
    pub uplink_bytes: u64,
    /// The satellite that handled (and now caches) the object.
    pub owner: SatelliteId,
    /// ISL hops from the first-contact satellite to the owner (one way).
    pub route_hops: u16,
    /// Residual fetch wait charged to this request, in epochs. Nonzero
    /// exactly when the request was a delayed hit (coalesced onto an
    /// in-flight fetch); always 0 with the delayed-hit model off.
    pub residual_epochs: u64,
    /// An in-flight fetch for this object completed and retired
    /// (admitting the object) when this request arrived.
    pub fetch_retired: bool,
    /// Followers that were aboard the retired fetch.
    pub coalesced: u64,
}

/// The owner a request routes to, with the degraded-mode context the
/// metrics layer needs: whether §3.4 remapping redirected it and how many
/// extra ISL hops the fault-avoiding route cost over the healthy torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedRoute {
    /// The satellite that serves the request.
    pub owner: SatelliteId,
    /// One-way intra-orbit hops from the first contact.
    pub intra: u16,
    /// One-way inter-orbit hops from the first contact.
    pub inter: u16,
    /// True when the preferred bucket owner was dead and the request was
    /// remapped to the next available satellite.
    pub remapped: bool,
    /// Hops beyond the healthy-torus distance to the serving owner, paid
    /// to route around dead satellites or cut links.
    pub extra_hops: u16,
}

impl ResolvedRoute {
    /// Total one-way ISL hops.
    pub fn hops(&self) -> u16 {
        self.intra + self.inter
    }
}

/// How a route resolution ended: the explicit three-way split the
/// degraded-serving paths need. `Partitioned` (owner alive but
/// unreachable across a severed grid) and `Unroutable` (owner and every
/// remap candidate dead) both degrade to the origin bent-pipe path, but
/// are distinct failure modes with distinct counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// A live owner with a surviving route.
    Routed(ResolvedRoute),
    /// The owner resolved to a live satellite, but no surviving ISL path
    /// connects the first contact to it: they sit in different connected
    /// components of the damaged grid.
    Partitioned {
        /// The live-but-unreachable owner.
        owner: SatelliteId,
    },
    /// The preferred owner (and, with remapping, every candidate in its
    /// bucket chain) is dead.
    Unroutable,
}

impl RouteOutcome {
    /// The resolved route, dropping the degraded outcomes.
    pub fn routed(self) -> Option<ResolvedRoute> {
        match self {
            RouteOutcome::Routed(r) => Some(r),
            RouteOutcome::Partitioned { .. } | RouteOutcome::Unroutable => None,
        }
    }
}

/// [`resolve_route_in_recorded`] with the explicit three-way outcome.
#[allow(clippy::too_many_arguments)]
pub fn classify_route_in_recorded(
    grid: &GridTopology,
    owners: Option<&OwnerTable>,
    failures: &FailureModel,
    remap_on_failure: bool,
    first_contact: SatelliteId,
    object: ObjectId,
    rec: &dyn starcdn_telemetry::Recorder,
) -> RouteOutcome {
    let preferred = preferred_owner(owners, first_contact, object);
    classify_route_toward_recorded(grid, failures, remap_on_failure, first_contact, preferred, rec)
}

/// Resolve the serving owner and route for `object` arriving at
/// `first_contact`, under an arbitrary failure view. Free function so the
/// parallel replayer's pre-pass can resolve against a churn cursor's view
/// without rebuilding a [`SpaceCdn`] (and its per-slot caches) per epoch.
pub fn resolve_route_in(
    grid: &GridTopology,
    owners: Option<&OwnerTable>,
    failures: &FailureModel,
    remap_on_failure: bool,
    first_contact: SatelliteId,
    object: ObjectId,
) -> Option<ResolvedRoute> {
    resolve_route_in_recorded(
        grid,
        owners,
        failures,
        remap_on_failure,
        first_contact,
        object,
        &starcdn_telemetry::Noop,
    )
}

/// [`resolve_route_in`] with telemetry: fault-view routing reports route
/// counts and surviving-path hop lengths through `rec` (see
/// [`surviving_hop_mix_recorded`]). The plain entry point
/// passes a no-op recorder.
#[allow(clippy::too_many_arguments)]
pub fn resolve_route_in_recorded(
    grid: &GridTopology,
    owners: Option<&OwnerTable>,
    failures: &FailureModel,
    remap_on_failure: bool,
    first_contact: SatelliteId,
    object: ObjectId,
    rec: &dyn starcdn_telemetry::Recorder,
) -> Option<ResolvedRoute> {
    let preferred = preferred_owner(owners, first_contact, object);
    resolve_route_toward_recorded(grid, failures, remap_on_failure, first_contact, preferred, rec)
}

/// The owner `object` hashes to under the fleet's bucket tiling (the
/// first contact itself without hashing), before any failure remapping:
/// one lookup in the fleet's [`OwnerTable`]. `first_contact` must be a
/// slot of the grid the table was built for.
pub fn preferred_owner(
    owners: Option<&OwnerTable>,
    first_contact: SatelliteId,
    object: ObjectId,
) -> SatelliteId {
    match owners {
        Some(t) => t.owner(first_contact, t.tiling().bucket_of_object(object.hash64())),
        None => first_contact,
    }
}

/// Resolve the route toward an explicit `preferred` owner (rather than
/// the one the object hashes to): §3.4 remapping, then hop mix on the
/// healthy torus or the shortest surviving path. The overload retry path uses
/// this to probe successive same-bucket replicas. `None` collapses both
/// degraded outcomes; use [`classify_route_toward_recorded`] to tell a
/// partition from a dead owner chain.
pub fn resolve_route_toward_recorded(
    grid: &GridTopology,
    failures: &FailureModel,
    remap_on_failure: bool,
    first_contact: SatelliteId,
    preferred: SatelliteId,
    rec: &dyn starcdn_telemetry::Recorder,
) -> Option<ResolvedRoute> {
    classify_route_toward_recorded(grid, failures, remap_on_failure, first_contact, preferred, rec)
        .routed()
}

/// [`resolve_route_toward_recorded`] with the explicit three-way
/// outcome: `Routed`, `Partitioned` (live owner, no surviving path — a
/// dead first contact counts, it is trivially disconnected), or
/// `Unroutable` (owner chain dead). Telemetry recording is identical to
/// the `Option` form — the fault-view routing runs exactly once either way.
pub fn classify_route_toward_recorded(
    grid: &GridTopology,
    failures: &FailureModel,
    remap_on_failure: bool,
    first_contact: SatelliteId,
    preferred: SatelliteId,
    rec: &dyn starcdn_telemetry::Recorder,
) -> RouteOutcome {
    let owner = if remap_on_failure {
        match failures.resolve_owner(grid, preferred) {
            Some(o) => o,
            None => return RouteOutcome::Unroutable,
        }
    } else if failures.is_alive(preferred) {
        preferred
    } else {
        // Transient failure response (§3.4): report a miss and forward
        // the request to the ground.
        return RouteOutcome::Unroutable;
    };
    let remapped = owner != preferred;
    if owner == first_contact {
        return RouteOutcome::Routed(ResolvedRoute {
            owner,
            intra: 0,
            inter: 0,
            remapped,
            extra_hops: 0,
        });
    }
    if !failures.has_faults() {
        // Healthy torus: the canonical path's hop mix is the wrap
        // distance on each axis.
        let inter = grid.plane_distance(first_contact.orbit, owner.orbit);
        let intra = grid.slot_distance(first_contact.slot, owner.slot);
        RouteOutcome::Routed(ResolvedRoute { owner, intra, inter, remapped, extra_hops: 0 })
    } else {
        // Routing asks about a link only once both its ends passed
        // `is_alive`, so the cut set alone decides `is_link_alive` there.
        let Some((intra, inter)) = surviving_hop_mix_recorded(
            grid,
            first_contact,
            owner,
            |id| failures.is_alive(id),
            |a, b| !failures.is_link_cut(a, b),
            rec,
        ) else {
            // The owner is alive but no path survives between them: first
            // contact and owner are in different components.
            return RouteOutcome::Partitioned { owner };
        };
        let extra_hops =
            ((intra + inter) as u16).saturating_sub(grid.hop_distance(first_contact, owner));
        RouteOutcome::Routed(ResolvedRoute {
            owner,
            intra: intra as u16,
            inter: inter as u16,
            remapped,
            extra_hops,
        })
    }
}

/// The satellite CDN fleet.
pub struct SpaceCdn {
    cfg: StarCdnConfig,
    /// Preferred owner per (first contact, bucket); `None` without hashing.
    owners: Option<OwnerTable>,
    failures: FailureModel,
    caches: Vec<Box<dyn Cache + Send>>,
    /// Per-slot cold-restart flag: set when a satellite recovers from an
    /// outage with an empty cache, cleared by its first local hit.
    cold: Vec<bool>,
    /// Per-slot outstanding origin fetches (empty unless the delayed-hit
    /// model is enabled).
    inflight: Vec<InflightQueue>,
    /// Current scheduler epoch, the delayed-hit clock. Drivers call
    /// [`SpaceCdn::set_now_epoch`] at every epoch boundary.
    now_epoch: u64,
    latency: LatencyModel,
    /// Aggregate run metrics.
    pub metrics: SystemMetrics,
}

impl SpaceCdn {
    /// Build the fleet described by `cfg` with no failures.
    pub fn new(cfg: StarCdnConfig) -> Self {
        Self::with_failures(cfg, FailureModel::none())
    }

    /// Build the fleet with an outage set; bucket responsibilities of
    /// dead satellites are remapped per §3.4.
    pub fn with_failures(cfg: StarCdnConfig, failures: FailureModel) -> Self {
        let owners = cfg.owner_table();
        let caches = (0..cfg.grid.total_slots())
            .map(|_| cfg.policy.build(cfg.cache_capacity_bytes))
            .collect();
        let latency = LatencyModel { link: cfg.link_model.clone(), ..LatencyModel::default() };
        let cold = vec![false; cfg.grid.total_slots()];
        let inflight = (0..cfg.grid.total_slots()).map(|_| InflightQueue::new()).collect();
        SpaceCdn {
            cfg,
            owners,
            failures,
            caches,
            cold,
            inflight,
            now_epoch: 0,
            latency,
            metrics: SystemMetrics::default(),
        }
    }

    /// Advance the delayed-hit clock to `epoch`. Drivers call this at
    /// every scheduler epoch boundary; with the model disabled it only
    /// stores a number.
    pub fn set_now_epoch(&mut self, epoch: u64) {
        self.now_epoch = epoch;
    }

    /// The current delayed-hit clock.
    pub fn now_epoch(&self) -> u64 {
        self.now_epoch
    }

    /// Read-only view of one satellite's outstanding-fetch queue.
    pub fn inflight_of(&self, id: SatelliteId) -> &InflightQueue {
        &self.inflight[self.cache_idx(id)]
    }

    /// The configuration in force.
    pub fn config(&self) -> &StarCdnConfig {
        &self.cfg
    }

    /// The failure model in force.
    pub fn failures(&self) -> &FailureModel {
        &self.failures
    }

    /// The latency model (calibration constants + link model).
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// The bucket tiling, when hashing is enabled.
    pub fn tiling(&self) -> Option<&BucketTiling> {
        self.owners.as_ref().map(OwnerTable::tiling)
    }

    /// The fleet's preferred-owner table, when hashing is enabled.
    pub fn owner_table(&self) -> Option<&OwnerTable> {
        self.owners.as_ref()
    }

    fn cache_idx(&self, id: SatelliteId) -> usize {
        id.index(self.cfg.grid.sats_per_plane)
    }

    /// Read-only view of one satellite's cache.
    pub fn cache_of(&self, id: SatelliteId) -> &dyn Cache {
        self.caches[self.cache_idx(id)].as_ref()
    }

    /// The satellite that owns requests for `object` arriving at
    /// `first_contact`, with the route hop mix and degraded-mode context.
    /// `None` when every candidate owner is dead or unreachable.
    pub fn resolve_route(
        &self,
        first_contact: SatelliteId,
        object: ObjectId,
    ) -> Option<ResolvedRoute> {
        resolve_route_in(
            &self.cfg.grid,
            self.owners.as_ref(),
            &self.failures,
            self.cfg.remap_on_failure,
            first_contact,
            object,
        )
    }

    /// [`SpaceCdn::resolve_route`] with the explicit three-way outcome
    /// (routed / partitioned / unroutable).
    pub fn classify_route(&self, first_contact: SatelliteId, object: ObjectId) -> RouteOutcome {
        classify_route_in_recorded(
            &self.cfg.grid,
            self.owners.as_ref(),
            &self.failures,
            self.cfg.remap_on_failure,
            first_contact,
            object,
            &starcdn_telemetry::Noop,
        )
    }

    /// Handle one request arriving at `first_contact` with the given
    /// one-way user↔satellite GSL delay.
    pub fn handle_request(
        &mut self,
        first_contact: SatelliteId,
        object: ObjectId,
        size: u64,
        gsl_oneway_ms: f64,
    ) -> ServeOutcome {
        let route = match self.classify_route(first_contact, object) {
            RouteOutcome::Routed(route) => route,
            degraded @ (RouteOutcome::Partitioned { .. } | RouteOutcome::Unroutable) => {
                // No reachable owner: downlink straight from the
                // first-contact satellite (transient-failure path of
                // §3.4). A partition — live owner across a severed grid —
                // additionally bumps its own counter; the serve itself is
                // identical degraded bent-pipe either way.
                if matches!(degraded, RouteOutcome::Partitioned { .. }) {
                    self.metrics.partitioned_requests += 1;
                }
                let latency_ms = self.latency.ground_miss_rtt_ms(gsl_oneway_ms, 0, 0, 0);
                self.metrics.record(first_contact, ServedFrom::Ground, size, latency_ms);
                return ServeOutcome {
                    served_from: ServedFrom::Ground,
                    latency_ms,
                    uplink_bytes: size,
                    owner: first_contact,
                    route_hops: 0,
                    residual_epochs: 0,
                    fetch_retired: false,
                    coalesced: 0,
                };
            }
        };
        self.serve_routed(route, object, size, gsl_oneway_ms, 0.0)
    }

    /// Serve a request over an already-resolved route. The split from
    /// [`SpaceCdn::handle_request`] lets the overload lifecycle admit or
    /// shed on the route *before* any cache state is touched;
    /// `extra_latency_ms` carries the accumulated retry penalty (0.0 adds
    /// nothing and leaves the latency sample bit-identical).
    pub fn serve_routed(
        &mut self,
        route: ResolvedRoute,
        object: ObjectId,
        size: u64,
        gsl_oneway_ms: f64,
        extra_latency_ms: f64,
    ) -> ServeOutcome {
        let ResolvedRoute { owner, intra, inter, remapped, extra_hops } = route;
        if remapped {
            self.metrics.remapped_requests += 1;
        }
        self.metrics.reroute_extra_hops += extra_hops as u64;

        let owner_idx = self.cache_idx(owner);
        let span = self.cfg.relay_span_planes();

        // Delayed-hit preamble, mirroring `starcdn_cache::simulate::
        // access_delayed` branch for branch: retire a landed fetch
        // (admission + eviction-delay charge), then classify against the
        // cache and the outstanding queue. Fully gated — with the model
        // off, the plain auto-admitting access below runs unchanged.
        let delayed_cfg = self.cfg.delayed;
        let mut fetch_retired = false;
        let mut coalesced = 0u64;
        let mut residual_epochs = 0u64;
        if delayed_cfg.is_enabled() {
            if let Some(r) = self.inflight[owner_idx].take_completed(object, self.now_epoch) {
                self.caches[owner_idx].insert(object, r.size);
                self.caches[owner_idx].record_fetch_delay(object, r.delay_epochs);
                fetch_retired = true;
                coalesced = r.followers;
                self.metrics.coalesced_requests += r.followers;
            }
            if !self.caches[owner_idx].contains(object) {
                if let Some(res) = self.inflight[owner_idx].coalesce(object, self.now_epoch) {
                    residual_epochs = res;
                    self.metrics.delayed_hits += 1;
                    *self.metrics.residual_epoch_hist.entry(res).or_insert(0) += 1;
                }
            }
        }

        // Owner cache access. Plain model: a miss auto-admits (the owner
        // will cache the object wherever it ends up coming from).
        // Delayed model: a delayed hit counts as a space hit without
        // touching the cache, and a true miss does NOT admit — the
        // object is only admitted when its fetch retires.
        let local = if !delayed_cfg.is_enabled() {
            self.caches[owner_idx].access(object, size)
        } else if residual_epochs > 0 {
            AccessOutcome::Hit
        } else if self.caches[owner_idx].contains(object) {
            let hit = self.caches[owner_idx].access(object, size);
            debug_assert!(hit.is_hit());
            hit
        } else {
            AccessOutcome::Miss
        };
        if self.cold[owner_idx] {
            if local.is_hit() {
                // Re-warmed: cached content is flowing again.
                self.cold[owner_idx] = false;
            } else {
                self.metrics.cold_restart_misses += 1;
            }
        }

        let (served_from, latency_ms, uplink) = if local.is_hit() {
            (ServedFrom::LocalHit, self.latency.space_hit_rtt_ms(gsl_oneway_ms, intra, inter), 0)
        } else {
            // Table-3 monitor: neighbour availability at miss time.
            if self.cfg.probe_neighbors_on_miss {
                let west = self.neighbor_has(owner, span, true, object);
                let east = self.neighbor_has(owner, span, false, object);
                self.metrics.neighbor_availability.record(west, east, size);
            }

            let mut result = None;
            for (tag, neighbor) in
                relay_candidates(&self.cfg.grid, owner, span, self.cfg.relay, &self.failures)
            {
                let n_idx = self.cache_idx(neighbor);
                if self.caches[n_idx].contains(object) {
                    // Serving refreshes the neighbour's recency state.
                    self.caches[n_idx].access(object, size);
                    result = Some((
                        tag,
                        self.latency.relay_hit_rtt_ms(gsl_oneway_ms, intra, inter, span),
                        0u64,
                    ));
                    break;
                }
            }
            result.unwrap_or_else(|| {
                let relay_penalty = if self.cfg.relay.enabled() { span } else { 0 };
                (
                    ServedFrom::Ground,
                    self.latency.ground_miss_rtt_ms(gsl_oneway_ms, intra, inter, relay_penalty),
                    size,
                )
            })
        };

        let latency_ms = if self.cfg.model_transmission_delay {
            latency_ms + self.transmission_ms(served_from, size, intra + inter, span)
        } else {
            latency_ms
        };
        // Gated: `x + 0.0` is not a bitwise no-op for every float (-0.0),
        // and the no-penalty path must stay byte-identical.
        let latency_ms =
            if extra_latency_ms > 0.0 { latency_ms + extra_latency_ms } else { latency_ms };

        // The relayed copy crosses the ISL within the epoch: the owner
        // caches it immediately, with no origin fetch to wait out (the
        // plain model admits it through the auto-admitting access above).
        if delayed_cfg.is_enabled()
            && matches!(served_from, ServedFrom::RelayWest | ServedFrom::RelayEast)
        {
            self.caches[owner_idx].insert(object, size);
        }

        // Delayed-hit wait accounting: a ground miss starts a fetch and
        // waits it out in full; a delayed hit waits only the residual.
        // Relay hits wait nothing (served from a neighbour's cache).
        let latency_ms = if delayed_cfg.is_enabled() {
            if served_from == ServedFrom::Ground {
                let fetch_epochs = delayed_cfg.fetch_epochs_for(object);
                self.inflight[owner_idx].register(object, size, self.now_epoch, fetch_epochs);
                latency_ms + fetch_epochs as f64 * delayed_cfg.wait_ms_per_epoch
            } else if residual_epochs > 0 {
                latency_ms + residual_epochs as f64 * delayed_cfg.wait_ms_per_epoch
            } else {
                latency_ms
            }
        } else {
            latency_ms
        };

        self.metrics.record(owner, served_from, size, latency_ms);
        ServeOutcome {
            served_from,
            latency_ms,
            uplink_bytes: uplink,
            owner,
            route_hops: intra + inter,
            residual_epochs,
            fetch_retired,
            coalesced,
        }
    }

    /// First-order serialization delay of the response body: once per
    /// store-and-forward ISL hop (100 Gbps) plus the user service link
    /// (20 Gbps), plus the feeder uplink for ground fetches.
    fn transmission_ms(&self, from: ServedFrom, size: u64, route_hops: u16, span: u16) -> f64 {
        use crate::latency::transmission_delay_ms;
        let isl_bw = self.latency.link.inter_orbit.bandwidth_gbps;
        let gsl_bw = self.latency.link.gsl.bandwidth_gbps;
        let isl_hops = route_hops
            + match from {
                ServedFrom::RelayWest | ServedFrom::RelayEast => span,
                _ => 0,
            };
        let mut ms = isl_hops as f64 * transmission_delay_ms(size, isl_bw)
            + transmission_delay_ms(size, gsl_bw);
        if from == ServedFrom::Ground {
            // The object also crossed the feeder uplink.
            ms += transmission_delay_ms(size, gsl_bw);
        }
        ms
    }

    fn neighbor_has(&self, owner: SatelliteId, span: u16, west: bool, object: ObjectId) -> bool {
        let slot = if west {
            self.cfg.grid.west_by(owner, span)
        } else {
            self.cfg.grid.east_by(owner, span)
        };
        self.failures
            .resolve_owner(&self.cfg.grid, slot)
            .filter(|&s| s != owner)
            .map(|s| self.caches[self.cache_idx(s)].contains(object))
            .unwrap_or(false)
    }

    /// One proactive-prefetch round (the §3.3 rejected alternative):
    /// every alive satellite copies the `top_k` hottest objects of its
    /// west same-bucket neighbour into its own cache. Call once per
    /// scheduler epoch. Copies are charged to `metrics.prefetch_bytes`
    /// whether or not anyone ever requests them — that waste is exactly
    /// why the paper chose reactive relayed fetch instead.
    pub fn prefetch_round(&mut self) {
        let Some(top_k) = self.cfg.prefetch_top_k else { return };
        let span = self.cfg.relay_span_planes();
        // Plan all transfers against the pre-round state (the real system
        // runs them in parallel over ISLs), then apply — otherwise content
        // would cascade across the whole ring within a single round.
        let mut planned: Vec<(usize, ObjectId, u64)> = Vec::new();
        for id in self.cfg.grid.iter_ids() {
            if !self.failures.is_alive(id) {
                continue;
            }
            let west_slot = self.cfg.grid.west_by(id, span);
            let Some(west) =
                self.failures.resolve_owner(&self.cfg.grid, west_slot).filter(|&w| w != id)
            else {
                continue;
            };
            let own_idx = self.cache_idx(id);
            for (obj, size) in self.caches[self.cache_idx(west)].hottest(top_k) {
                if !self.caches[own_idx].contains(obj) {
                    planned.push((own_idx, obj, size));
                }
            }
        }
        for (idx, obj, size) in planned {
            if !self.caches[idx].contains(obj) {
                self.caches[idx].insert(obj, size);
                self.metrics.prefetch_bytes += size;
                self.metrics.prefetch_copies += 1;
            }
        }
    }

    /// Serve a request origin-direct from its first-contact satellite —
    /// the overload lifecycle's last resort after every replica shed it.
    /// Bent-pipe latency (no ISL legs) plus the accumulated retry
    /// penalty; bytes are charged to the uplink like any ground serve.
    pub fn serve_origin_fallback(
        &mut self,
        first_contact: SatelliteId,
        size: u64,
        gsl_oneway_ms: f64,
        extra_latency_ms: f64,
    ) -> f64 {
        let base = self.latency.ground_miss_rtt_ms(gsl_oneway_ms, 0, 0, 0);
        let latency_ms = if extra_latency_ms > 0.0 { base + extra_latency_ms } else { base };
        self.metrics.record(first_contact, ServedFrom::Ground, size, latency_ms);
        self.metrics.served_origin_fallback += 1;
        latency_ms
    }

    /// Record a request that could not reach any satellite (no satellite
    /// in view): served bent-pipe from the ground, like today's Starlink.
    pub fn handle_unreachable(&mut self, size: u64) -> f64 {
        let latency_ms = self.latency.starlink_no_cache_rtt_ms(self.latency.link.gsl.avg_delay_ms);
        self.metrics.record(
            SatelliteId::new(u16::MAX, u16::MAX),
            ServedFrom::Ground,
            size,
            latency_ms,
        );
        latency_ms
    }

    /// Swap in a new failure view (churn: the live view changes at epoch
    /// boundaries). Cache contents are untouched — use
    /// [`SpaceCdn::wipe_cache`] for satellites that actually went down.
    pub fn set_failures(&mut self, failures: FailureModel) {
        self.failures = failures;
    }

    /// Drop one satellite's cached content (it went out of service; its
    /// state does not survive the outage). Outstanding fetches die with
    /// it — their followers were already counted as delayed hits.
    pub fn wipe_cache(&mut self, id: SatelliteId) {
        let idx = self.cache_idx(id);
        self.caches[idx].clear();
        self.inflight[idx].clear();
        self.cold[idx] = false;
    }

    /// Mark a satellite as freshly recovered: its next misses count as
    /// cold-restart misses until the first local hit.
    pub fn mark_cold(&mut self, id: SatelliteId) {
        let idx = self.cache_idx(id);
        self.cold[idx] = true;
    }

    /// Is this satellite still in its post-recovery warm-up?
    pub fn is_cold(&self, id: SatelliteId) -> bool {
        self.cold[self.cache_idx(id)]
    }

    /// Append one availability sample for the epoch that just started.
    pub fn record_availability(&mut self, epoch: u64) {
        let total = self.cfg.grid.total_slots();
        let alive = (total - self.failures.dead_count()) as u32;
        self.metrics.availability.push(crate::metrics::AvailabilityPoint {
            epoch,
            alive_sats: alive,
            cut_links: self.failures.cut_link_count() as u32,
        });
    }

    /// Drop all cached content and metrics (fresh run, same config).
    pub fn reset(&mut self) {
        for c in &mut self.caches {
            c.clear();
        }
        for q in &mut self.inflight {
            q.clear();
        }
        self.cold.fill(false);
        self.now_epoch = 0;
        self.metrics = SystemMetrics::default();
    }

    /// Zero the metrics but keep all cached content — used to discount a
    /// warm-up phase from measurements (the paper's 5-day replays make
    /// cold-start negligible; shorter runs subtract it explicitly).
    pub fn reset_metrics(&mut self) {
        self.metrics = SystemMetrics::default();
    }

    /// Export every piece of run-dependent fleet state (checkpoint
    /// hook): per-slot cache states in slot order, cold flags, the live
    /// failure view, and the accumulated metrics. Everything else
    /// (tiling, latency model) is derivable from the config.
    pub fn export_state(&self) -> CdnState {
        CdnState {
            failures: self.failures.clone(),
            caches: self.caches.iter().map(|c| c.to_state()).collect(),
            cold: self.cold.clone(),
            inflight: self.inflight.iter().map(|q| q.to_state()).collect(),
            metrics: self.metrics.clone(),
        }
    }

    /// Restore fleet state exported by [`SpaceCdn::export_state`] into a
    /// freshly built fleet of the same config. Validates shape and cache
    /// invariants; on error the fleet is left unchanged.
    pub fn import_state(&mut self, state: CdnState) -> Result<(), CdnStateError> {
        let slots = self.cfg.grid.total_slots();
        if state.caches.len() != slots || state.cold.len() != slots || state.inflight.len() != slots
        {
            return Err(CdnStateError::SlotCountMismatch {
                expected: slots,
                got: state.caches.len().max(state.cold.len()).max(state.inflight.len()),
            });
        }
        let expected = self.cfg.policy.name();
        let mut rebuilt = Vec::with_capacity(slots);
        for (slot, cs) in state.caches.iter().enumerate() {
            if cs.policy_name() != expected {
                return Err(CdnStateError::PolicyMismatch {
                    slot,
                    expected,
                    got: cs.policy_name(),
                });
            }
            rebuilt.push(cs.build().map_err(CdnStateError::Cache)?);
        }
        let mut queues = Vec::with_capacity(slots);
        for qs in &state.inflight {
            queues.push(InflightQueue::from_state(qs).map_err(CdnStateError::Inflight)?);
        }
        self.caches = rebuilt;
        self.cold = state.cold;
        self.inflight = queues;
        self.failures = state.failures;
        self.metrics = state.metrics;
        Ok(())
    }
}

/// The run-dependent state of a [`SpaceCdn`], as exported by
/// [`SpaceCdn::export_state`]. Plain data: the checkpoint layer decides
/// how each part is encoded on disk.
#[derive(Debug, Clone)]
pub struct CdnState {
    pub failures: FailureModel,
    pub caches: Vec<starcdn_cache::CacheState>,
    pub cold: Vec<bool>,
    /// Per-slot outstanding-fetch queues, slot order (all empty unless
    /// the delayed-hit model is enabled).
    pub inflight: Vec<InflightState>,
    pub metrics: SystemMetrics,
}

/// Why a [`CdnState`] could not be imported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdnStateError {
    /// The state was exported from a different constellation size.
    SlotCountMismatch { expected: usize, got: usize },
    /// A slot's cache state belongs to a different eviction policy.
    PolicyMismatch { slot: usize, expected: &'static str, got: &'static str },
    /// A cache state failed its structural validation.
    Cache(starcdn_cache::StateError),
    /// An outstanding-fetch queue failed its structural validation.
    Inflight(starcdn_cache::StateError),
}

impl std::fmt::Display for CdnStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdnStateError::SlotCountMismatch { expected, got } => {
                write!(f, "fleet state has {got} slots, this constellation has {expected}")
            }
            CdnStateError::PolicyMismatch { slot, expected, got } => {
                write!(f, "slot {slot} cache state is `{got}`, config wants `{expected}`")
            }
            CdnStateError::Cache(e) => write!(f, "cache state: {e}"),
            CdnStateError::Inflight(e) => write!(f, "in-flight fetch state: {e}"),
        }
    }
}

impl std::error::Error for CdnStateError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StarCdnConfig;

    const CAP: u64 = 10_000;

    fn system(l: u32) -> SpaceCdn {
        SpaceCdn::new(StarCdnConfig::starcdn(l, CAP))
    }

    #[test]
    fn first_request_is_ground_second_is_hit() {
        let mut cdn = system(4);
        let sat = SatelliteId::new(10, 5);
        let o1 = cdn.handle_request(sat, ObjectId(1), 100, 2.9);
        assert_eq!(o1.served_from, ServedFrom::Ground);
        assert_eq!(o1.uplink_bytes, 100);
        let o2 = cdn.handle_request(sat, ObjectId(1), 100, 2.9);
        assert_eq!(o2.served_from, ServedFrom::LocalHit);
        assert_eq!(o2.uplink_bytes, 0);
        assert!(o2.latency_ms < o1.latency_ms);
        assert_eq!(o1.owner, o2.owner, "same object routes to the same owner");
    }

    #[test]
    fn requests_from_different_sats_share_one_owner_cache() {
        // §5.2.1's core claim: adjacent users scheduled to different
        // satellites still hit the same cache under hashing.
        let mut cdn = system(4);
        let a = SatelliteId::new(10, 5);
        let b = SatelliteId::new(11, 5); // different first contact, same tile
        cdn.handle_request(a, ObjectId(7), 100, 2.9);
        let o = cdn.handle_request(b, ObjectId(7), 100, 2.9);
        assert_eq!(o.served_from, ServedFrom::LocalHit);
    }

    #[test]
    fn without_hashing_no_sharing() {
        let mut cdn = SpaceCdn::new(StarCdnConfig::naive_lru(CAP));
        let a = SatelliteId::new(10, 5);
        let b = SatelliteId::new(11, 5);
        cdn.handle_request(a, ObjectId(7), 100, 2.9);
        let o = cdn.handle_request(b, ObjectId(7), 100, 2.9);
        assert_eq!(o.served_from, ServedFrom::Ground, "naive LRU caches independently");
        assert_eq!(o.owner, b);
        assert_eq!(o.route_hops, 0);
    }

    #[test]
    fn route_hops_within_worst_case() {
        let mut cdn = system(9);
        let bound = cdn.tiling().unwrap().worst_case_hops();
        for s in 0..18u16 {
            for o in (0..72u16).step_by(7) {
                let out = cdn.handle_request(
                    SatelliteId::new(o, s),
                    ObjectId((o * 31 + s) as u64),
                    10,
                    2.9,
                );
                assert!(out.route_hops <= bound, "hops {} > bound {bound}", out.route_hops);
            }
        }
    }

    #[test]
    fn relay_west_serves_after_west_owner_cached() {
        let mut cdn = system(4);
        // Find the owner of an object from one first-contact satellite.
        let fc = SatelliteId::new(10, 5);
        let owner = cdn.resolve_route(fc, ObjectId(3)).unwrap().owner;
        // Seed the object at the owner's west same-bucket neighbour by
        // sending a request whose first contact *is* that neighbour.
        let west = cdn.config().grid.west_by(owner, 2);
        let o1 = cdn.handle_request(west, ObjectId(3), 100, 2.9);
        assert_eq!(o1.owner, west, "west neighbour owns the same bucket");
        assert_eq!(o1.served_from, ServedFrom::Ground);
        // Now request via the original first contact: owner misses, west
        // relay hits.
        let o2 = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        assert_eq!(o2.served_from, ServedFrom::RelayWest);
        assert_eq!(o2.uplink_bytes, 0, "relay saves the uplink");
        // And the owner cached the relayed copy: next time is a local hit.
        let o3 = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        assert_eq!(o3.served_from, ServedFrom::LocalHit);
    }

    #[test]
    fn no_relay_variant_goes_to_ground() {
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn_no_relay(4, CAP));
        let fc = SatelliteId::new(10, 5);
        let owner = cdn.resolve_route(fc, ObjectId(3)).unwrap().owner;
        let west = cdn.config().grid.west_by(owner, 2);
        cdn.handle_request(west, ObjectId(3), 100, 2.9);
        let o = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        assert_eq!(o.served_from, ServedFrom::Ground, "no relay configured");
    }

    #[test]
    fn relay_latency_between_hit_and_miss() {
        let mut cdn = system(4);
        let fc = SatelliteId::new(10, 5);
        let owner = cdn.resolve_route(fc, ObjectId(3)).unwrap().owner;
        let west = cdn.config().grid.west_by(owner, 2);
        cdn.handle_request(west, ObjectId(3), 100, 2.9);
        let relay = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        let hit = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        let miss = cdn.handle_request(fc, ObjectId(999), 100, 2.9);
        assert!(
            hit.latency_ms < relay.latency_ms,
            "hit {} relay {}",
            hit.latency_ms,
            relay.latency_ms
        );
        assert!(
            relay.latency_ms < miss.latency_ms,
            "relay {} miss {}",
            relay.latency_ms,
            miss.latency_ms
        );
    }

    #[test]
    fn failure_remap_still_serves() {
        let cfg = StarCdnConfig::starcdn(9, CAP);
        let fc = SatelliteId::new(10, 5);
        // Kill the preferred owner for this object.
        let probe = SpaceCdn::new(cfg.clone());
        let preferred = probe.resolve_route(fc, ObjectId(5)).unwrap().owner;
        let failures = FailureModel::from_dead([preferred]);
        let mut cdn = SpaceCdn::with_failures(cfg, failures);
        let o1 = cdn.handle_request(fc, ObjectId(5), 100, 2.9);
        assert_ne!(o1.owner, preferred);
        assert!(cdn.failures().is_alive(o1.owner));
        let o2 = cdn.handle_request(fc, ObjectId(5), 100, 2.9);
        assert_eq!(o2.served_from, ServedFrom::LocalHit, "remapped owner caches");
        assert_eq!(cdn.metrics.remapped_requests, 2, "both requests were remapped");
    }

    #[test]
    fn cold_restart_misses_tracked_until_first_hit() {
        let mut cdn = system(4);
        let fc = SatelliteId::new(10, 5);
        let owner = cdn.resolve_route(fc, ObjectId(3)).unwrap().owner;
        // Warm the owner, then restart it: wipe + mark cold.
        cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        cdn.wipe_cache(owner);
        cdn.mark_cold(owner);
        assert!(cdn.is_cold(owner));
        let o = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        assert_eq!(o.served_from, ServedFrom::Ground, "restart lost the cache");
        assert_eq!(cdn.metrics.cold_restart_misses, 1);
        // The fetch re-admitted the object: the next access is the first
        // local hit, which ends the warm-up.
        cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        assert!(!cdn.is_cold(owner));
        let before = cdn.metrics.cold_restart_misses;
        cdn.handle_request(fc, ObjectId(99), 100, 2.9);
        assert_eq!(cdn.metrics.cold_restart_misses, before, "warm again: plain miss");
    }

    #[test]
    fn cut_link_on_route_costs_extra_hops() {
        let cfg = StarCdnConfig::starcdn(4, CAP);
        let fc = SatelliteId::new(10, 5);
        let probe = SpaceCdn::new(cfg.clone());
        let route = probe.resolve_route(fc, ObjectId(3)).unwrap();
        if route.hops() == 0 {
            return; // owner is the first contact; nothing to cut
        }
        // Cut the first link of the canonical path.
        let grid = cfg.grid.clone();
        let path = starcdn_constellation::routing::shortest_path(&grid, fc, route.owner);
        let failures = FailureModel::from_outages([], [(path.nodes[0], path.nodes[1])]);
        let mut cdn = SpaceCdn::with_failures(cfg, failures);
        let rerouted = cdn.resolve_route(fc, ObjectId(3)).unwrap();
        assert_eq!(rerouted.owner, route.owner, "link cuts never change ownership");
        assert!(!rerouted.remapped);
        assert!(rerouted.hops() >= route.hops(), "detour cannot shorten the route");
        cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        assert_eq!(cdn.metrics.reroute_extra_hops, rerouted.extra_hops as u64);
    }

    #[test]
    fn partitioned_owner_degrades_to_bent_pipe() {
        // Sever every ISL of the first contact: the owner stays alive,
        // but no surviving path connects them — a partition, not an
        // unroutable request.
        let cfg = StarCdnConfig::starcdn(9, CAP);
        let fc = SatelliteId::new(10, 5);
        let probe = SpaceCdn::new(cfg.clone());
        let route = probe.resolve_route(fc, ObjectId(5)).unwrap();
        assert!(route.hops() > 0, "pick an object owned elsewhere");
        let grid = cfg.grid.clone();
        let failures =
            FailureModel::from_outages([], grid.neighbors(fc).into_iter().map(|(_, n)| (fc, n)));
        let mut cdn = SpaceCdn::with_failures(cfg, failures);
        match cdn.classify_route(fc, ObjectId(5)) {
            RouteOutcome::Partitioned { owner } => assert_eq!(owner, route.owner),
            other => panic!("expected a partition, got {other:?}"),
        }
        assert_eq!(cdn.resolve_route(fc, ObjectId(5)), None, "Option view collapses to None");
        let out = cdn.handle_request(fc, ObjectId(5), 100, 2.9);
        assert_eq!(out.served_from, ServedFrom::Ground, "degrades to the bent pipe");
        assert_eq!(out.uplink_bytes, 100);
        assert_eq!(out.route_hops, 0);
        assert_eq!(cdn.metrics.partitioned_requests, 1);
    }

    #[test]
    fn dead_owner_chain_is_unroutable_not_partitioned() {
        // Without remapping, a dead preferred owner is Unroutable: the
        // degraded serve is identical but the partition counter stays 0.
        let cfg = StarCdnConfig { remap_on_failure: false, ..StarCdnConfig::starcdn(9, CAP) };
        let fc = SatelliteId::new(10, 5);
        let probe = SpaceCdn::new(cfg.clone());
        let owner = probe.resolve_route(fc, ObjectId(5)).unwrap().owner;
        assert_ne!(owner, fc);
        let mut cdn = SpaceCdn::with_failures(cfg, FailureModel::from_dead([owner]));
        assert_eq!(cdn.classify_route(fc, ObjectId(5)), RouteOutcome::Unroutable);
        let out = cdn.handle_request(fc, ObjectId(5), 100, 2.9);
        assert_eq!(out.served_from, ServedFrom::Ground);
        assert_eq!(cdn.metrics.partitioned_requests, 0);
    }

    #[test]
    fn record_availability_snapshots_failure_view() {
        let g = StarCdnConfig::starcdn(4, CAP).grid;
        let total = g.total_slots() as u32;
        let mut failures = FailureModel::from_dead([SatelliteId::new(1, 1)]);
        failures.cut_link(SatelliteId::new(2, 2), SatelliteId::new(2, 3));
        let mut cdn = SpaceCdn::with_failures(StarCdnConfig::starcdn(4, CAP), failures);
        cdn.record_availability(0);
        cdn.set_failures(FailureModel::none());
        cdn.record_availability(1);
        assert_eq!(cdn.metrics.availability.len(), 2);
        assert_eq!(cdn.metrics.availability[0].alive_sats, total - 1);
        assert_eq!(cdn.metrics.availability[0].cut_links, 1);
        assert_eq!(cdn.metrics.availability[1].alive_sats, total);
        assert_eq!(cdn.metrics.availability[1].cut_links, 0);
    }

    #[test]
    fn neighbor_probe_populates_table3_monitor() {
        let mut cfg = StarCdnConfig::starcdn(4, CAP);
        cfg.probe_neighbors_on_miss = true;
        let mut cdn = SpaceCdn::new(cfg);
        let fc = SatelliteId::new(10, 5);
        let owner = cdn.resolve_route(fc, ObjectId(3)).unwrap().owner;
        let west = cdn.config().grid.west_by(owner, 2);
        cdn.handle_request(west, ObjectId(3), 100, 2.9); // seed west
        cdn.handle_request(fc, ObjectId(3), 100, 2.9); // owner miss: west has it
        cdn.handle_request(fc, ObjectId(42), 50, 2.9); // owner miss: nobody has it
        let n = cdn.metrics.neighbor_availability;
        assert_eq!(n.west_only_requests, 1);
        assert_eq!(n.west_only_bytes, 100);
        assert_eq!(n.neither_requests, 2, "seed miss + unseeded miss");
    }

    #[test]
    fn prefetch_round_copies_west_content() {
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn_prefetch(4, CAP, 8));
        // Seed an object at some owner by sending a request there.
        let fc = SatelliteId::new(10, 5);
        let o = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        let owner = o.owner;
        // The owner's *east* same-bucket neighbour prefetches from its
        // west neighbour — which is `owner`.
        let east = cdn.config().grid.east_by(owner, 2);
        assert!(!cdn.cache_of(east).contains(ObjectId(3)));
        cdn.prefetch_round();
        assert!(cdn.cache_of(east).contains(ObjectId(3)), "prefetch should copy west→east");
        assert_eq!(cdn.metrics.prefetch_bytes, 100, "exactly one 100 B copy in round one");
        assert_eq!(cdn.metrics.prefetch_copies, 1);
        // Each further round moves the object one more hop east (it does
        // not cascade within a round).
        cdn.prefetch_round();
        assert_eq!(cdn.metrics.prefetch_copies, 2);
        let east2 = cdn.config().grid.east_by(owner, 4);
        assert!(cdn.cache_of(east2).contains(ObjectId(3)));
    }

    #[test]
    fn prefetch_disabled_is_noop() {
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, CAP));
        cdn.handle_request(SatelliteId::new(10, 5), ObjectId(3), 100, 2.9);
        cdn.prefetch_round();
        assert_eq!(cdn.metrics.prefetch_bytes, 0);
        assert_eq!(cdn.metrics.prefetch_copies, 0);
    }

    #[test]
    fn transmission_delay_raises_latency_by_size() {
        // Caches big enough to admit the multi-MiB object.
        let cap = 64 << 20;
        let mut idle = SpaceCdn::new(StarCdnConfig::starcdn(4, cap));
        let mut cfg = StarCdnConfig::starcdn(4, cap);
        cfg.model_transmission_delay = true;
        let mut loaded = SpaceCdn::new(cfg);
        let fc = SatelliteId::new(10, 5);
        let size = 5 << 20; // 5 MiB
        let a = idle.handle_request(fc, ObjectId(1), size, 2.9);
        let b = loaded.handle_request(fc, ObjectId(1), size, 2.9);
        assert!(b.latency_ms > a.latency_ms, "{} !> {}", b.latency_ms, a.latency_ms);
        // A ground miss serializes the object over the GSL twice
        // (up + down): ≥ 2 × 2.1 ms for 5 MiB at 20 Gbps.
        assert!(b.latency_ms - a.latency_ms >= 4.0, "delta {}", b.latency_ms - a.latency_ms);
        // Hits pay less extra (no feeder uplink).
        let a2 = idle.handle_request(fc, ObjectId(1), size, 2.9);
        let b2 = loaded.handle_request(fc, ObjectId(1), size, 2.9);
        assert!(b2.latency_ms - a2.latency_ms < b.latency_ms - a.latency_ms);
        // Tiny objects barely notice.
        let a3 = idle.handle_request(fc, ObjectId(2), 100, 2.9);
        let b3 = loaded.handle_request(fc, ObjectId(2), 100, 2.9);
        assert!((b3.latency_ms - a3.latency_ms) < 0.01);
    }

    #[test]
    fn metrics_accumulate_and_reset() {
        let mut cdn = system(4);
        let sat = SatelliteId::new(0, 0);
        cdn.handle_request(sat, ObjectId(1), 100, 2.9);
        cdn.handle_request(sat, ObjectId(1), 100, 2.9);
        assert_eq!(cdn.metrics.stats.requests, 2);
        assert_eq!(cdn.metrics.served_ground, 1);
        assert_eq!(cdn.metrics.served_local, 1);
        assert!((cdn.metrics.uplink_fraction() - 0.5).abs() < 1e-12);
        cdn.reset();
        assert_eq!(cdn.metrics.stats.requests, 0);
        let o = cdn.handle_request(sat, ObjectId(1), 100, 2.9);
        assert_eq!(o.served_from, ServedFrom::Ground, "caches cleared");
    }

    mod delayed {
        use super::*;
        use crate::config::DelayedHitConfig;

        fn delayed_system(fetch_epochs: u64, wait_ms: f64) -> SpaceCdn {
            let cfg = StarCdnConfig::starcdn(4, CAP)
                .with_delayed_hits(DelayedHitConfig::with_latency(fetch_epochs, wait_ms));
            SpaceCdn::new(cfg)
        }

        #[test]
        fn miss_registers_fetch_and_does_not_admit() {
            let mut cdn = delayed_system(2, 10.0);
            let fc = SatelliteId::new(10, 5);
            cdn.set_now_epoch(0);
            let o = cdn.handle_request(fc, ObjectId(1), 100, 2.9);
            assert_eq!(o.served_from, ServedFrom::Ground);
            assert_eq!(o.residual_epochs, 0);
            assert!(!o.fetch_retired);
            let owner = o.owner;
            assert!(!cdn.cache_of(owner).contains(ObjectId(1)), "no admission before retirement");
            assert_eq!(cdn.inflight_of(owner).len(), 1);
            // The miss waited out the whole fetch: 2 epochs × 10 ms.
            let plain = SpaceCdn::new(StarCdnConfig::starcdn(4, CAP))
                .handle_request(fc, ObjectId(1), 100, 2.9)
                .latency_ms;
            assert!((o.latency_ms - plain - 20.0).abs() < 1e-9);
        }

        #[test]
        fn coalesced_request_is_a_delayed_hit_with_residual() {
            let mut cdn = delayed_system(3, 10.0);
            let fc = SatelliteId::new(10, 5);
            cdn.set_now_epoch(0);
            cdn.handle_request(fc, ObjectId(1), 100, 2.9); // miss, completes at 3
            cdn.set_now_epoch(1);
            let o = cdn.handle_request(fc, ObjectId(1), 100, 2.9);
            assert_eq!(o.served_from, ServedFrom::LocalHit, "delayed hit is a space hit");
            assert_eq!(o.residual_epochs, 2);
            assert_eq!(o.uplink_bytes, 0);
            assert_eq!(cdn.metrics.delayed_hits, 1);
            assert_eq!(cdn.metrics.residual_epoch_hist[&2], 1);
            assert_eq!(cdn.metrics.coalesced_requests, 0, "follower not yet retired");
            // Retirement: the next touch at/after epoch 3 admits the
            // object and credits the follower.
            cdn.set_now_epoch(3);
            let o = cdn.handle_request(fc, ObjectId(1), 100, 2.9);
            assert_eq!(o.served_from, ServedFrom::LocalHit);
            assert!(o.fetch_retired);
            assert_eq!(o.coalesced, 1);
            assert_eq!(o.residual_epochs, 0);
            assert_eq!(cdn.metrics.coalesced_requests, 1);
            assert!(cdn.cache_of(o.owner).contains(ObjectId(1)));
            assert!(cdn.inflight_of(o.owner).is_empty());
        }

        #[test]
        fn relay_hit_admits_owner_copy_without_a_fetch() {
            let mut cdn = delayed_system(2, 10.0);
            let fc = SatelliteId::new(10, 5);
            let owner = cdn.resolve_route(fc, ObjectId(3)).unwrap().owner;
            let west = cdn.config().grid.west_by(owner, 2);
            // Seed the west neighbour: miss at epoch 0, retire at 2.
            cdn.set_now_epoch(0);
            cdn.handle_request(west, ObjectId(3), 100, 2.9);
            cdn.set_now_epoch(2);
            cdn.handle_request(west, ObjectId(3), 100, 2.9);
            assert!(cdn.cache_of(west).contains(ObjectId(3)));
            // Owner miss → relay west hit; the ISL copy admits instantly.
            let o = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
            assert_eq!(o.served_from, ServedFrom::RelayWest);
            assert!(cdn.cache_of(owner).contains(ObjectId(3)));
            assert!(cdn.inflight_of(owner).is_empty(), "relay hit starts no origin fetch");
            let o2 = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
            assert_eq!(o2.served_from, ServedFrom::LocalHit);
        }

        #[test]
        fn wipe_clears_outstanding_fetches() {
            let mut cdn = delayed_system(4, 10.0);
            let fc = SatelliteId::new(10, 5);
            cdn.set_now_epoch(0);
            let o = cdn.handle_request(fc, ObjectId(1), 100, 2.9);
            assert_eq!(cdn.inflight_of(o.owner).len(), 1);
            cdn.wipe_cache(o.owner);
            assert!(cdn.inflight_of(o.owner).is_empty());
        }

        #[test]
        fn state_roundtrip_preserves_inflight_queues() {
            let mut cdn = delayed_system(5, 10.0);
            let fc = SatelliteId::new(10, 5);
            cdn.set_now_epoch(1);
            let o = cdn.handle_request(fc, ObjectId(1), 100, 2.9); // completes at 6
            cdn.set_now_epoch(2);
            cdn.handle_request(fc, ObjectId(1), 100, 2.9); // follower, residual 4
            let state = cdn.export_state();
            let mut fresh = delayed_system(5, 10.0);
            fresh.import_state(state).unwrap();
            fresh.set_now_epoch(3);
            let q = fresh.inflight_of(o.owner);
            assert_eq!(q.len(), 1);
            let f = q.get(ObjectId(1)).unwrap();
            assert_eq!(f.completes_at, 6);
            assert_eq!(f.followers, 1);
            // The restored queue keeps coalescing where it left off.
            let o2 = fresh.handle_request(fc, ObjectId(1), 100, 2.9);
            assert_eq!(o2.residual_epochs, 3);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn prop_serve_invariants(
                reqs in proptest::collection::vec(
                    (0u16..72, 0u16..18, 0u64..200, 1u64..5000), 1..300),
                l_idx in 0usize..2,
            ) {
                let l = [4u32, 9][l_idx];
                let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(l, 200_000));
                let bound = cdn.tiling().unwrap().worst_case_hops();
                let mut expected_uplink = 0u64;
                let mut expected_bytes = 0u64;
                for (o, s, obj, size) in reqs {
                    let out = cdn.handle_request(
                        SatelliteId::new(o, s), ObjectId(obj), size, 2.9,
                    );
                    prop_assert!(out.latency_ms > 0.0);
                    prop_assert!(out.route_hops <= bound);
                    prop_assert_eq!(out.uplink_bytes > 0, out.served_from == ServedFrom::Ground);
                    expected_uplink += out.uplink_bytes;
                    expected_bytes += size;
                    // Owner serves the object's bucket.
                    let t = cdn.tiling().unwrap();
                    prop_assert_eq!(
                        t.bucket_of_sat(out.owner),
                        t.bucket_of_object(ObjectId(obj).hash64())
                    );
                }
                prop_assert_eq!(cdn.metrics.uplink_bytes, expected_uplink);
                prop_assert_eq!(cdn.metrics.stats.bytes_requested, expected_bytes);
                let served = cdn.metrics.served_local
                    + cdn.metrics.served_relay_west
                    + cdn.metrics.served_relay_east
                    + cdn.metrics.served_ground;
                prop_assert_eq!(served, cdn.metrics.stats.requests);
            }

            #[test]
            fn prop_classify_route_matches_nearest_owner_reference(
                l_idx in 0usize..6,
                dead in 0usize..700,
                seed in 0u64..1_000,
                cuts in 0u16..500,
                remap in 0u8..2,
                reqs in proptest::collection::vec((0u16..72, 0u16..18, any::<u64>()), 1..200),
            ) {
                // The owner table against its definition: the fleet's
                // `classify_route` equals `nearest_owner` (the first
                // contact itself without hashing) fed to the fault-view
                // classifier, under random outages and cut links.
                let grid = GridTopology::starlink();
                let mut cfg = match [1u32, 4, 9, 16, 25].get(l_idx) {
                    Some(&l) => StarCdnConfig::starcdn(l, CAP),
                    None => StarCdnConfig::naive_lru(CAP),
                };
                cfg.remap_on_failure = remap == 1;
                let tiling = cfg.num_buckets.map(|l| BucketTiling::new(l).unwrap());
                let mut failures = FailureModel::sample(&grid, dead, seed);
                for k in 0..cuts {
                    let x = SatelliteId::new(
                        (k as u64 * 37 + seed) as u16 % 72,
                        (k as u64 * 11 + seed / 7) as u16 % 18,
                    );
                    let d = starcdn_constellation::grid::Direction::ALL[usize::from(k % 4)];
                    failures.cut_link(x, grid.neighbor(x, d).expect("torus"));
                }
                let cdn = SpaceCdn::with_failures(cfg.clone(), failures.clone());
                for (o, s, obj) in reqs {
                    let (fc, object) = (SatelliteId::new(o, s), ObjectId(obj));
                    let preferred = match &tiling {
                        Some(t) => t.nearest_owner(&grid, fc, t.bucket_of_object(object.hash64())),
                        None => fc,
                    };
                    let want = classify_route_toward_recorded(
                        &grid, &failures, cfg.remap_on_failure, fc, preferred,
                        &starcdn_telemetry::Noop,
                    );
                    prop_assert_eq!(cdn.classify_route(fc, object), want);
                    prop_assert_eq!(cdn.resolve_route(fc, object), want.routed());
                }
            }

            #[test]
            fn prop_latency_ordering_hit_vs_miss(
                o in 0u16..72, s in 0u16..18, size in 1u64..10_000,
            ) {
                let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
                let fc = SatelliteId::new(o, s);
                let miss = cdn.handle_request(fc, ObjectId(1), size, 2.9);
                let hit = cdn.handle_request(fc, ObjectId(1), size, 2.9);
                prop_assert_eq!(miss.served_from, ServedFrom::Ground);
                prop_assert_eq!(hit.served_from, ServedFrom::LocalHit);
                prop_assert!(hit.latency_ms < miss.latency_ms);
            }
        }
    }

    #[test]
    fn cache_eviction_under_pressure() {
        // Tiny caches: streaming distinct objects through one owner must
        // keep used_bytes bounded.
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, 500));
        let sat = SatelliteId::new(3, 3);
        for i in 0..100u64 {
            cdn.handle_request(sat, ObjectId(i * 4), 100, 2.9); // same bucket-ish spread
        }
        for idx in 0..cdn.config().grid.total_slots() {
            let id = SatelliteId::from_index(idx, 18);
            assert!(cdn.cache_of(id).used_bytes() <= 500);
        }
    }

    /// Reference for `classify_route_toward_recorded`: remap, then the
    /// breadth-first search alone, with no staircase check in front.
    fn bfs_only_route(
        grid: &GridTopology,
        failures: &FailureModel,
        remap_on_failure: bool,
        first_contact: SatelliteId,
        preferred: SatelliteId,
        rec: &dyn starcdn_telemetry::Recorder,
    ) -> RouteOutcome {
        let owner = match (remap_on_failure, failures.is_alive(preferred)) {
            (true, _) => match failures.resolve_owner(grid, preferred) {
                Some(o) => o,
                None => return RouteOutcome::Unroutable,
            },
            (false, true) => preferred,
            (false, false) => return RouteOutcome::Unroutable,
        };
        let remapped = owner != preferred;
        if owner == first_contact {
            let route = ResolvedRoute { owner, intra: 0, inter: 0, remapped, extra_hops: 0 };
            return RouteOutcome::Routed(route);
        }
        let Some(path) = starcdn_constellation::routing::shortest_path_avoiding_links_recorded(
            grid,
            first_contact,
            owner,
            |id| failures.is_alive(id),
            |a, b| failures.is_link_alive(a, b),
            rec,
        ) else {
            return RouteOutcome::Partitioned { owner };
        };
        let (intra, inter) = path.hop_mix();
        RouteOutcome::Routed(ResolvedRoute {
            owner,
            intra: intra as u16,
            inter: inter as u16,
            remapped,
            extra_hops: path.len() as u16 - grid.hop_distance(first_contact, owner),
        })
    }

    #[test]
    fn fault_view_routes_match_bfs_only_reference() {
        use starcdn_telemetry::MemoryRecorder;
        let grid = GridTopology::starlink();
        let tiling = BucketTiling::new(9).unwrap();
        // §3.4's outage size, then a dense one that partitions the grid.
        for (dead, seed) in [(126, 7), (126, 8), (650, 9)] {
            let mut failures = FailureModel::sample(&grid, dead, seed);
            for k in 0..438u16 {
                let x = SatelliteId::new(k * 37 % 72, k * 11 % 18);
                let d = starcdn_constellation::grid::Direction::ALL[usize::from(k % 4)];
                let n = grid.neighbor(x, d).expect("the starlink grid is a torus");
                failures.cut_link(x, n);
            }
            let dead_sats: Vec<SatelliteId> = failures.dead().take(8).collect();
            for remap in [true, false] {
                let (fast_rec, bfs_rec) = (MemoryRecorder::new(), MemoryRecorder::new());
                let mut seen = [0usize; 5];
                // Every fifth slot plus some dead ones as first contact;
                // hashed owners plus dead ones (remapped) as preferred.
                let contacts = grid.iter_ids().step_by(5).chain(dead_sats.iter().copied());
                for fc in contacts {
                    let hashed = (0..4u64).map(|o| {
                        tiling.nearest_owner(&grid, fc, tiling.bucket_of_object(o * 0x9E37))
                    });
                    let far = SatelliteId::new((fc.orbit + 30) % 72, (fc.slot + 7) % 18);
                    for preferred in hashed.chain([far, fc]).chain(dead_sats.iter().copied()) {
                        let got = classify_route_toward_recorded(
                            &grid, &failures, remap, fc, preferred, &fast_rec,
                        );
                        let want = bfs_only_route(&grid, &failures, remap, fc, preferred, &bfs_rec);
                        assert_eq!(got, want, "{fc} -> {preferred} (remap {remap})");
                        seen[match got {
                            RouteOutcome::Routed(r) if r.extra_hops > 0 => 0,
                            RouteOutcome::Routed(r) if r.remapped => 1,
                            RouteOutcome::Routed(_) => 2,
                            RouteOutcome::Partitioned { .. } => 3,
                            RouteOutcome::Unroutable => 4,
                        }] += 1;
                    }
                }
                assert_eq!(fast_rec.snapshot(), bfs_rec.snapshot(), "telemetry must not move");
                assert!(seen[0] > 0 && seen[2] > 0 && seen[3] > 0, "{seen:?}");
                assert!(if remap { seen[1] > 0 } else { seen[4] > 0 }, "{seen:?}");
            }
        }
    }
}
