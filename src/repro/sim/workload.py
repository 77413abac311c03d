"""Synthetic Shanghai-like trip workloads.

The paper replays 432,327 real taxi trips of one Shanghai day (May 29,
2009) over a 122,319-vertex road network. That dataset is proprietary, so
this module generates the closest synthetic equivalent (see README.md,
"Deviations from the paper"):

* **spatial structure** — origins/destinations drawn from a mixture of
  hotspot zones (airport/station/CBD analogues, which drive kinetic-tree
  blowup and hotspot clustering) and a uniform background;
* **temporal structure** — an inhomogeneous Poisson process with morning
  and evening rush-hour peaks over the simulated horizon;
* **intensity calibration** — ``trips_per_vehicle_hour`` defaults to the
  paper's ratio (432,327 trips / 17,000 taxis / 24 h ≈ 1.06).

Matching difficulty for every algorithm is a function of request density
per server, spatial clustering, and constraint tightness — all preserved
by construction and parameterized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    SHANGHAI_DAY_SECONDS,
    SHANGHAI_NUM_TAXIS,
    SHANGHAI_NUM_TRIPS,
)
from repro.roadnet.graph import RoadNetwork

#: The paper dataset's request intensity.
PAPER_TRIPS_PER_VEHICLE_HOUR = SHANGHAI_NUM_TRIPS / SHANGHAI_NUM_TAXIS / (
    SHANGHAI_DAY_SECONDS / 3600.0
)


@dataclass(frozen=True, slots=True)
class TripSpec:
    """A raw workload trip: where, where to, and when — the paper's
    ``t.s``, ``t.e``, ``t.time``, pre-mapped to road vertices."""

    origin: int
    destination: int
    request_time: float


def _rush_hour_weights(hours: np.ndarray) -> np.ndarray:
    """Relative request intensity by hour-of-day: base load plus morning
    (~8h) and evening (~18h) Gaussian peaks."""
    morning = np.exp(-0.5 * ((hours - 8.0) / 1.5) ** 2)
    evening = np.exp(-0.5 * ((hours - 18.0) / 2.0) ** 2)
    return 0.35 + 1.0 * morning + 1.2 * evening


class ShanghaiLikeWorkload:
    """Synthetic trip-stream generator over a road network.

    Parameters
    ----------
    network:
        Road network with coordinates.
    num_hotspots:
        Number of high-demand zones.
    hotspot_weight:
        Probability that a trip endpoint is drawn from a hotspot rather
        than the uniform background.
    hotspot_radius_meters:
        Spatial spread of each hotspot (Gaussian).
    min_trip_meters:
        Discard trips whose straight-line length is below this (degenerate
        micro-trips do not occur in taxi data).
    seed:
        RNG seed; the generator is fully deterministic given it.
    """

    def __init__(
        self,
        network: RoadNetwork,
        num_hotspots: int = 6,
        hotspot_weight: float = 0.55,
        hotspot_radius_meters: float = 600.0,
        min_trip_meters: float = 800.0,
        seed: int = 0,
    ):
        if network.coords is None:
            raise ValueError("workload generation needs vertex coordinates")
        if not 0.0 <= hotspot_weight <= 1.0:
            raise ValueError("hotspot_weight must be in [0, 1]")
        self.network = network
        self.rng = np.random.default_rng(seed)
        self.hotspot_weight = hotspot_weight
        self.hotspot_radius = hotspot_radius_meters
        self.min_trip_meters = min_trip_meters
        self.hotspots = self.rng.choice(
            network.num_vertices, size=min(num_hotspots, network.num_vertices),
            replace=False,
        )
        self._kdtree = None

    # ------------------------------------------------------------------
    def _nearest_vertices(self, points: np.ndarray) -> np.ndarray:
        from scipy.spatial import cKDTree

        if self._kdtree is None:
            self._kdtree = cKDTree(self.network.coords)
        return self._kdtree.query(points)[1]

    def _sample_endpoints(self, count: int) -> np.ndarray:
        """Sample ``count`` vertices from the hotspot/background mixture."""
        from_hotspot = self.rng.random(count) < self.hotspot_weight
        n_hot = int(from_hotspot.sum())
        out = np.empty(count, dtype=np.int64)
        # Background: uniform over vertices.
        out[~from_hotspot] = self.rng.integers(
            0, self.network.num_vertices, size=count - n_hot
        )
        if n_hot:
            centers = self.rng.choice(self.hotspots, size=n_hot)
            jitter = self.rng.normal(0.0, self.hotspot_radius, size=(n_hot, 2))
            points = self.network.coords[centers] + jitter
            out[from_hotspot] = self._nearest_vertices(points)
        return out

    def _sample_times(self, count: int, duration: float, start: float) -> np.ndarray:
        """Arrival times from the rush-hour intensity profile (inverse-CDF
        over a piecewise-constant hourly profile)."""
        grid = np.linspace(0.0, duration, num=max(2, int(duration // 600) + 2))
        hours = ((start + grid) % SHANGHAI_DAY_SECONDS) / 3600.0
        weights = _rush_hour_weights(hours)
        cdf = np.cumsum(weights)
        cdf = cdf / cdf[-1]
        u = self.rng.random(count)
        times = start + np.interp(u, cdf, grid)
        times.sort()
        return times

    # ------------------------------------------------------------------
    def generate(
        self,
        num_trips: int,
        duration_seconds: float,
        start_seconds: float = 7 * 3600.0,
    ) -> list[TripSpec]:
        """Generate ``num_trips`` trips over ``[start, start + duration]``,
        sorted by request time."""
        if num_trips < 0:
            raise ValueError("num_trips must be non-negative")
        specs: list[TripSpec] = []
        times = self._sample_times(num_trips, duration_seconds, start_seconds)
        produced = 0
        guard = 0
        while produced < num_trips and guard < 20:
            need = num_trips - produced
            origins = self._sample_endpoints(need)
            destinations = self._sample_endpoints(need)
            coords = self.network.coords
            spans = np.hypot(
                coords[origins, 0] - coords[destinations, 0],
                coords[origins, 1] - coords[destinations, 1],
            )
            ok = (origins != destinations) & (spans >= self.min_trip_meters)
            for o, d_, keep in zip(origins, destinations, ok):
                if keep:
                    specs.append(TripSpec(int(o), int(d_), float(times[produced])))
                    produced += 1
                    if produced == num_trips:
                        break
            guard += 1
        if produced < num_trips:
            raise ValueError(
                "could not generate enough valid trips; relax min_trip_meters "
                "or use a larger network"
            )
        specs.sort(key=lambda s: s.request_time)
        return specs

    def generate_for_fleet(
        self,
        num_vehicles: int,
        duration_seconds: float,
        trips_per_vehicle_hour: float = PAPER_TRIPS_PER_VEHICLE_HOUR,
        start_seconds: float = 7 * 3600.0,
    ) -> list[TripSpec]:
        """Generate a stream whose intensity matches the paper's
        trips-per-taxi ratio for the given fleet size and horizon."""
        num_trips = int(
            round(num_vehicles * trips_per_vehicle_hour * duration_seconds / 3600.0)
        )
        return self.generate(num_trips, duration_seconds, start_seconds)


def burst_workload(
    network: RoadNetwork,
    center_vertex: int,
    num_trips: int,
    request_time: float,
    spread_meters: float = 150.0,
    trip_length_meters: float = 4000.0,
    dest_center_vertex: int | None = None,
    dest_spread_meters: float = 150.0,
    seed: int = 0,
) -> list[TripSpec]:
    """A co-located request burst (airport-terminal scenario, Section V):
    ``num_trips`` pickups within ``spread_meters`` of one center at nearly
    the same instant.

    With ``dest_center_vertex`` set, destinations also cluster (the
    airport -> downtown flow): then almost *any* interleaving of the
    pickups and of the dropoffs is a valid schedule, which is exactly the
    factorial blowup Section V describes ("8 pickups ... 8! = 40,320
    possibilities") and what hotspot clustering collapses. Without it,
    destinations scatter on a ring ``trip_length_meters`` away.
    """
    if network.coords is None:
        raise ValueError("burst workload needs vertex coordinates")
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    tree = cKDTree(network.coords)
    center = network.coords[center_vertex]
    pickups = tree.query(
        center + rng.normal(0.0, spread_meters, size=(num_trips, 2))
    )[1]
    if dest_center_vertex is not None:
        dest_center = network.coords[dest_center_vertex]
        targets = dest_center + rng.normal(
            0.0, dest_spread_meters, size=(num_trips, 2)
        )
    else:
        angles = rng.uniform(0, 2 * np.pi, size=num_trips)
        targets = center + trip_length_meters * np.column_stack(
            [np.cos(angles), np.sin(angles)]
        )
    dropoffs = tree.query(targets)[1]
    specs = []
    for i, (o, d) in enumerate(zip(pickups, dropoffs)):
        if int(o) == int(d):
            continue
        specs.append(TripSpec(int(o), int(d), request_time + 0.5 * i))
    return specs


def bimodal_trips(
    city,
    seed: int,
    offpeak_s: float,
    peak_s: float,
    offpeak_trips: int,
    peak_trips: int,
    min_trip_meters: float,
):
    """An off-peak lull followed by a rush-hour surge.

    One workload generator (one endpoint RNG stream) emits both phases,
    so the only thing that changes at the boundary is the arrival
    intensity. Returns ``(trips, split)`` with ``split`` the
    phase-boundary time.
    """
    workload = ShanghaiLikeWorkload(
        city, seed=seed, min_trip_meters=min_trip_meters
    )
    off = workload.generate(offpeak_trips, offpeak_s, start_seconds=0.0)
    peak = workload.generate(peak_trips, peak_s, start_seconds=offpeak_s)
    trips = sorted(off + peak, key=lambda t: t.request_time)
    return trips, offpeak_s

