"""Grid-based spatial index over moving vehicles.

The paper's design: vehicles report locations periodically; "the index is
updated when a vehicle moves across boundaries of the index bounding box.
For each request, it identifies the vehicles possibly within ``w`` of the
request, asks the vehicle's actual location, and then tests if these
vehicles can accommodate the request."

The index therefore only needs to be *conservative*: a radius query must
return a superset of the vehicles whose road-network distance is within
``w`` (straight-line distance lower-bounds network distance on planar
street graphs with metric weights). Exact feasibility is re-checked by the
matcher against actual positions.
"""

from __future__ import annotations

from math import ceil, floor

from repro.spatial.geometry import BoundingBox


class GridIndex:
    """Uniform grid over a bounding box mapping cells -> vehicle ids.

    Parameters
    ----------
    bounds:
        Spatial extent (meters). Out-of-box points clamp to the border
        cells, so slightly stray coordinates degrade gracefully.
    cell_meters:
        Cell edge length. The paper's choice trades maintenance cost
        against query precision; a few hundred meters works well for taxi
        densities.
    """

    def __init__(self, bounds: BoundingBox, cell_meters: float = 500.0):
        if cell_meters <= 0:
            raise ValueError("cell_meters must be positive")
        self.bounds = bounds
        self.cell_meters = float(cell_meters)
        self.num_cols = max(1, ceil(bounds.width / cell_meters))
        self.num_rows = max(1, ceil(bounds.height / cell_meters))
        self._cells: dict[tuple[int, int], set[int]] = {}
        self._where: dict[int, tuple[int, int]] = {}
        self.updates = 0
        self.moves_within_cell = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Grid cell containing the (clamped) point."""
        cx, cy = self.bounds.clamp(x, y)
        col = min(int((cx - self.bounds.min_x) / self.cell_meters), self.num_cols - 1)
        row = min(int((cy - self.bounds.min_y) / self.cell_meters), self.num_rows - 1)
        return row, col

    def update(self, vehicle_id: int, x: float, y: float) -> bool:
        """Report a vehicle position.

        Returns True when the vehicle changed cell (an index write);
        within-cell movement is a no-op, the property that makes the grid
        cheap to maintain.
        """
        cell = self.cell_of(x, y)
        old = self._where.get(vehicle_id)
        if old == cell:
            self.moves_within_cell += 1
            return False
        if old is not None:
            members = self._cells[old]
            members.discard(vehicle_id)
            if not members:
                del self._cells[old]
        self._cells.setdefault(cell, set()).add(vehicle_id)
        self._where[vehicle_id] = cell
        self.updates += 1
        return True

    def remove(self, vehicle_id: int) -> None:
        """Drop a vehicle from the index (e.g. going off shift)."""
        old = self._where.pop(vehicle_id, None)
        if old is not None:
            members = self._cells[old]
            members.discard(vehicle_id)
            if not members:
                del self._cells[old]

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, vehicle_id: int) -> bool:
        return vehicle_id in self._where

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_radius(self, x: float, y: float, radius: float) -> list[int]:
        """Vehicle ids possibly within ``radius`` meters of the point.

        Conservative: covers every cell intersecting the disc, so the
        result is a superset of vehicles whose *reported* position is
        within ``radius``.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        min_row = floor((y - radius - self.bounds.min_y) / self.cell_meters)
        max_row = floor((y + radius - self.bounds.min_y) / self.cell_meters)
        min_col = floor((x - radius - self.bounds.min_x) / self.cell_meters)
        max_col = floor((x + radius - self.bounds.min_x) / self.cell_meters)
        min_row = max(min_row, 0)
        min_col = max(min_col, 0)
        max_row = min(max_row, self.num_rows - 1)
        max_col = min(max_col, self.num_cols - 1)
        found: list[int] = []
        for row in range(min_row, max_row + 1):
            for col in range(min_col, max_col + 1):
                members = self._cells.get((row, col))
                if members:
                    found.extend(members)
        return found

    def all_vehicles(self) -> list[int]:
        """Every indexed vehicle id."""
        return list(self._where)

    def stats(self) -> dict[str, float]:
        """Maintenance counters for the harness."""
        return {
            "vehicles": len(self._where),
            "occupied_cells": len(self._cells),
            "updates": self.updates,
            "moves_within_cell": self.moves_within_cell,
        }
