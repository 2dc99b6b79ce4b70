"""Power delivery network (PDN) model: a resistive mesh solved with sparse LA.

The paper validates AIM with RedHawk post-layout IR-drop maps (Fig. 16) and
bump current/voltage traces (Fig. 17).  This module substitutes a classical
resistive-grid PDN: supply bumps at fixed pads feed a 2-D mesh of on-chip power
rails; each macro injects its demand current at its floorplan node; nodal
analysis (a sparse Laplacian solve) yields the voltage at every node, and the
IR-drop map is ``V_supply - V_node``.

The mesh preserves exactly the properties AIM depends on: IR-drop grows with
local current density, neighbouring macros couple through shared rails, and
the worst drop concentrates where the most active macros cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["PDNResult", "PowerDeliveryNetwork"]


@dataclass
class PDNResult:
    """Solved PDN state for one current injection pattern."""

    node_voltage: np.ndarray        #: (rows, cols) node voltages in volts
    ir_drop: np.ndarray             #: (rows, cols) V_supply - V_node
    bump_current: np.ndarray        #: per-bump current in amperes
    total_current: float

    @property
    def worst_drop(self) -> float:
        return float(self.ir_drop.max()) if self.ir_drop.size else 0.0

    @property
    def mean_drop(self) -> float:
        return float(self.ir_drop.mean()) if self.ir_drop.size else 0.0


class PowerDeliveryNetwork:
    """Resistive mesh PDN with supply bumps at the grid corners and edges."""

    def __init__(self, rows: int, cols: int, supply_voltage: float = 0.75,
                 rail_resistance: float = 0.05, bump_resistance: float = 0.01,
                 bumps_per_edge: int = 2) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("grid dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.supply_voltage = supply_voltage
        self.rail_resistance = rail_resistance
        self.bump_resistance = bump_resistance
        self.bump_nodes = self._place_bumps(bumps_per_edge)
        self._laplacian = self._build_laplacian()
        # scipy.sparse is imported on first use: the sweep and service paths
        # never build a PDN and so never pay for it.
        import scipy.sparse.linalg as spla
        self._factorized = spla.factorized(self._laplacian.tocsc())

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _node_index(self, row: int, col: int) -> int:
        return row * self.cols + col

    def _place_bumps(self, bumps_per_edge: int) -> List[int]:
        """Distribute supply bumps along the grid perimeter (plus corners)."""
        positions = set()
        for i in range(max(2, bumps_per_edge)):
            frac = i / max(1, bumps_per_edge - 1) if bumps_per_edge > 1 else 0.0
            r = int(round(frac * (self.rows - 1)))
            c = int(round(frac * (self.cols - 1)))
            positions.add(self._node_index(0, c))
            positions.add(self._node_index(self.rows - 1, c))
            positions.add(self._node_index(r, 0))
            positions.add(self._node_index(r, self.cols - 1))
        return sorted(positions)

    def _build_laplacian(self) -> "scipy.sparse.csr_matrix":
        """Conductance (Laplacian) matrix of the mesh plus bump conductances."""
        import scipy.sparse as sp
        n = self.rows * self.cols
        g_rail = 1.0 / self.rail_resistance
        g_bump = 1.0 / self.bump_resistance
        rows_idx: List[int] = []
        cols_idx: List[int] = []
        values: List[float] = []

        def add(i: int, j: int, g: float) -> None:
            rows_idx.extend([i, j, i, j])
            cols_idx.extend([j, i, i, j])
            values.extend([-g, -g, g, g])

        for r in range(self.rows):
            for c in range(self.cols):
                node = self._node_index(r, c)
                if c + 1 < self.cols:
                    add(node, self._node_index(r, c + 1), g_rail)
                if r + 1 < self.rows:
                    add(node, self._node_index(r + 1, c), g_rail)
        matrix = sp.coo_matrix((values, (rows_idx, cols_idx)), shape=(n, n)).tolil()
        # Bump conductance to the ideal supply acts as a diagonal term.
        for node in self.bump_nodes:
            matrix[node, node] += g_bump
        return matrix.tocsr()

    # ------------------------------------------------------------------ #
    # solve
    # ------------------------------------------------------------------ #
    def solve(self, current_map: np.ndarray) -> PDNResult:
        """Solve node voltages for a (rows, cols) map of demand currents (amperes).

        Nodal analysis with the supply folded in: ``G * v = i_bump - i_demand``
        where bump nodes source ``g_bump * V_supply``.
        """
        current_map = np.asarray(current_map, dtype=np.float64)
        if current_map.shape != (self.rows, self.cols):
            raise ValueError(
                f"current map shape {current_map.shape} != grid {(self.rows, self.cols)}")
        if np.any(current_map < 0):
            raise ValueError("demand currents must be non-negative")
        injection = -current_map.reshape(-1).copy()
        g_bump = 1.0 / self.bump_resistance
        for node in self.bump_nodes:
            injection[node] += g_bump * self.supply_voltage
        voltages = self._factorized(injection)
        grid_v = voltages.reshape(self.rows, self.cols)
        ir_drop = self.supply_voltage - grid_v
        bump_current = np.array([
            (self.supply_voltage - voltages[node]) * g_bump for node in self.bump_nodes])
        return PDNResult(node_voltage=grid_v, ir_drop=ir_drop,
                         bump_current=bump_current,
                         total_current=float(current_map.sum()))

    def solve_for_macros(self, macro_currents: Sequence[float],
                         macro_positions: Sequence[Tuple[int, int]]) -> PDNResult:
        """Solve with per-macro currents placed at their floorplan positions."""
        current_map = np.zeros((self.rows, self.cols))
        for current, (r, c) in zip(macro_currents, macro_positions):
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise IndexError(f"macro position {(r, c)} outside the PDN grid")
            current_map[r, c] += current
        return self.solve(current_map)
