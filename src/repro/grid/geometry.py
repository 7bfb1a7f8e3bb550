"""The semi-regular 3D grid HPCG discretises its PDE on.

HPCG models heat diffusion on an ``nx x ny x nz`` point grid with
halo-1 (27-point) interactions.  This module owns the index arithmetic:
linearisation, neighbour enumeration, and the 2x-per-dimension
coarsening used by the multigrid hierarchy.

Linearisation follows the reference implementation: ``x`` fastest,
then ``y``, then ``z`` — ``i = iz*ny*nx + iy*nx + ix``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.util.errors import InvalidValue


@dataclass(frozen=True)
class Grid3D:
    """An immutable ``nx x ny x nz`` grid of points."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        if any(isinstance(d, bool) or not isinstance(d, numbers.Integral)
               for d in self.dims):
            raise InvalidValue(f"grid dimensions must be ints: {self.dims!r}")
        for name in ("nx", "ny", "nz"):                 # numpy ints -> int
            object.__setattr__(self, name, int(getattr(self, name)))
        if min(self.dims) < 1:
            raise InvalidValue(f"grid dimensions must be >= 1, got {self.dims}")

    # --- basic properties ---------------------------------------------------
    @property
    def dims(self) -> Tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def npoints(self) -> int:
        return self.nx * self.ny * self.nz

    # --- index arithmetic -----------------------------------------------------
    def index(self, ix, iy, iz):
        """Linear index of point ``(ix, iy, iz)``; accepts arrays."""
        return (np.asarray(iz) * self.ny + np.asarray(iy)) * self.nx + np.asarray(ix)

    def coords(self, i):
        """Inverse of :meth:`index`; accepts arrays."""
        i = np.asarray(i)
        ix = i % self.nx
        iy = (i // self.nx) % self.ny
        iz = i // (self.nx * self.ny)
        return ix, iy, iz

    def all_coords(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinates of every point, in linear-index order."""
        return self.coords(np.arange(self.npoints, dtype=np.int64))

    def in_bounds(self, ix, iy, iz):
        """Boolean validity of coordinates; accepts arrays."""
        ix, iy, iz = np.asarray(ix), np.asarray(iy), np.asarray(iz)
        return (
            (0 <= ix) & (ix < self.nx)
            & (0 <= iy) & (iy < self.ny)
            & (0 <= iz) & (iz < self.nz)
        )

    def neighbours(self, i: int) -> Iterator[int]:
        """Linear indices of the (up to 26) halo-1 neighbours of ``i``."""
        ix, iy, iz = (int(c) for c in self.coords(i))
        for dz in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == dy == dz == 0:
                        continue
                    jx, jy, jz = ix + dx, iy + dy, iz + dz
                    if self.in_bounds(jx, jy, jz):
                        yield int(self.index(jx, jy, jz))

    def row_degree(self) -> np.ndarray:
        """Stencil row sizes (8..27): number of in-bounds stencil points."""
        ix, iy, iz = self.all_coords()
        fx = 3 - (ix == 0) - (ix == self.nx - 1) if self.nx > 1 else np.ones_like(ix)
        fy = 3 - (iy == 0) - (iy == self.ny - 1) if self.ny > 1 else np.ones_like(iy)
        fz = 3 - (iz == 0) - (iz == self.nz - 1) if self.nz > 1 else np.ones_like(iz)
        return (fx * fy * fz).astype(np.int64)

    # --- multigrid coarsening ----------------------------------------------------
    def can_coarsen(self) -> bool:
        """True when every dimension is divisible by two (HPCG requirement)."""
        return (
            self.nx % 2 == 0 and self.ny % 2 == 0 and self.nz % 2 == 0
            and min(self.nx, self.ny, self.nz) >= 2
        )

    def coarsen(self) -> "Grid3D":
        """The 2x-coarser grid (each dimension halved)."""
        if not self.can_coarsen():
            raise InvalidValue(
                f"grid {self.dims} cannot be coarsened: dimensions must be even"
            )
        return Grid3D(self.nx // 2, self.ny // 2, self.nz // 2)

    def injection_indices(self) -> np.ndarray:
        """For each coarse point, the fine linear index it injects from.

        HPCG's straight injection takes the fine point at the lowest
        coordinates of each 2x2x2 octet: coarse ``(x, y, z)`` maps to
        fine ``(2x, 2y, 2z)`` (paper Section II-F).
        """
        coarse = self.coarsen()
        cx, cy, cz = coarse.all_coords()
        return np.asarray(self.index(2 * cx, 2 * cy, 2 * cz), dtype=np.int64)

    def max_mg_levels(self) -> int:
        """How many grids a multigrid hierarchy can have, including this one."""
        levels = 1
        g = self
        while g.can_coarsen():
            g = g.coarsen()
            levels += 1
        return levels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Grid3D({self.nx}x{self.ny}x{self.nz})"
