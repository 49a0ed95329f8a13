"""Block grids: the geometry partition underlying the ranking cube.

A :class:`BlockGrid` is the meta information ``M`` of Section 3.1.3: per
ranking dimension, a strictly increasing list of bin boundaries.  Base
blocks (Section 3.1.2) are the grid cells; block ids (*bid*) enumerate them
in row-major order with the first ranking dimension varying fastest, which
matches the paper's running example (the four blocks of the first row are
b1..b4, the next row b5..b8, ...).

The grid answers the geometric questions the query algorithm asks:

* which block contains a point (``locate``),
* what axis-aligned box a block covers (``box``),
* which blocks are (face-)adjacent to a block (``neighbors`` — the
  ``neighbor(b, c)`` relation of Lemma 1).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence


class GridError(Exception):
    """Raised for malformed grids or out-of-range block ids."""


@dataclass(frozen=True)
class BlockGrid:
    """An axis-aligned grid over the space of ranking dimensions.

    Parameters
    ----------
    dims:
        Names of the ranking dimensions, in storage order.
    boundaries:
        One strictly increasing boundary list per dimension; dimension ``d``
        with boundaries ``[e0, e1, .., eb]`` has ``b`` bins, bin ``i``
        covering ``[e_i, e_{i+1}]`` (closed boxes — the shared faces make
        Lemma 1's face-adjacent frontier sound for convex functions).
    """

    dims: tuple[str, ...]
    boundaries: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.dims) != len(self.boundaries):
            raise GridError("one boundary list per dimension required")
        if not self.dims:
            raise GridError("grid needs at least one dimension")
        for dim, edges in zip(self.dims, self.boundaries):
            if len(edges) < 2:
                raise GridError(f"dimension {dim!r} needs >= 2 boundaries")
            if any(a >= b for a, b in zip(edges, edges[1:])):
                raise GridError(f"boundaries of {dim!r} must be strictly increasing")

    def __getstate__(self) -> dict:
        # the cached shape below is derived, not state: pickles (and so
        # workspace snapshots) hold the two fields only
        return {"dims": self.dims, "boundaries": self.boundaries}

    # ------------------------------------------------------------------
    # shape (derived once per grid object; read on every frontier step)
    # ------------------------------------------------------------------
    @property
    def num_dims(self) -> int:
        return len(self.dims)

    @cached_property
    def bins_per_dim(self) -> tuple[int, ...]:
        return tuple(len(edges) - 1 for edges in self.boundaries)

    @cached_property
    def num_blocks(self) -> int:
        return self.strides[-1] * self.bins_per_dim[-1]

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Row-major bid step per dimension (dim 0 fastest)."""
        strides = [1]
        for bins in self.bins_per_dim[:-1]:
            strides.append(strides[-1] * bins)
        return tuple(strides)

    # ------------------------------------------------------------------
    # bid <-> coordinates
    # ------------------------------------------------------------------
    def bid_of(self, coords: Sequence[int]) -> int:
        """Row-major block id of grid coordinates (dim 0 fastest)."""
        bins = self.bins_per_dim
        if len(coords) != len(bins):
            raise GridError(f"expected {len(bins)} coordinates, got {len(coords)}")
        bid = 0
        for coord, bin_count, stride in zip(coords, bins, self.strides):
            if not 0 <= coord < bin_count:
                raise GridError(f"coordinate {coord} out of range [0, {bin_count})")
            bid += coord * stride
        return bid

    def coords_of(self, bid: int) -> tuple[int, ...]:
        """Grid coordinates of a block id."""
        if not 0 <= bid < self.num_blocks:
            raise GridError(f"bid {bid} out of range [0, {self.num_blocks})")
        coords = []
        for bins in self.bins_per_dim:
            coords.append(bid % bins)
            bid //= bins
        return tuple(coords)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def locate(self, point: Sequence[float]) -> int:
        """Block id of the bin containing ``point``.

        Points on an interior boundary go to the higher bin (half-open
        binning); points outside the grid clamp to the nearest edge bin, so
        every tuple gets a bid even if it strays past the boundaries the
        partitioner observed.
        """
        coords = []
        for value, edges in zip(point, self.boundaries):
            idx = bisect.bisect_right(edges, value) - 1
            idx = min(max(idx, 0), len(edges) - 2)
            coords.append(idx)
        return self.bid_of(coords)

    def locate_many(self, points) -> "list[int]":
        """Vectorized :meth:`locate` over many points.

        ``points`` is a sequence of R-tuples (or an ``(n, R)`` array);
        returns one bid per point with identical semantics to
        :meth:`locate` (half-open bins, clamped extremes).  Used by the
        bulk cube build, where per-tuple Python bisects dominate.
        """
        import numpy as np

        array = np.asarray(points, dtype=float)
        if array.ndim != 2 or array.shape[1] != self.num_dims:
            raise GridError(
                f"expected an (n, {self.num_dims}) point array, got {array.shape}"
            )
        bids = np.zeros(len(array), dtype=np.int64)
        for d, (edges, stride) in enumerate(zip(self.boundaries, self.strides)):
            edges_arr = np.asarray(edges)
            coords = np.searchsorted(edges_arr, array[:, d], side="right") - 1
            np.clip(coords, 0, len(edges) - 2, out=coords)
            bids += coords * stride
        return [int(b) for b in bids]

    def box(self, bid: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Closed box ``(lower, upper)`` covered by a block."""
        return self.sub_box(bid, range(len(self.boundaries)))

    def full_box(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The box covering the whole grid."""
        return (
            tuple(edges[0] for edges in self.boundaries),
            tuple(edges[-1] for edges in self.boundaries),
        )

    def neighbors(self, bid: int) -> Iterator[int]:
        """Face-adjacent blocks (one step along one dimension), dim 0
        first, the lower neighbor before the upper one."""
        if not 0 <= bid < self.num_blocks:
            raise GridError(f"bid {bid} out of range [0, {self.num_blocks})")
        for stride, bins in zip(self.strides, self.bins_per_dim):
            coord = bid // stride % bins
            if coord > 0:
                yield bid - stride
            if coord < bins - 1:
                yield bid + stride

    def project(self, dims: Sequence[str]) -> tuple[int, ...]:
        """Positions of ``dims`` within the grid's dimension order."""
        positions = []
        for dim in dims:
            try:
                positions.append(self.dims.index(dim))
            except ValueError:
                raise GridError(f"grid has no dimension {dim!r}") from None
        return tuple(positions)

    def sub_box(
        self, bid: int, dim_positions: Sequence[int]
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """A block's box restricted to the given dimension positions.

        Used when a query ranks on a subset of the grid's dimensions
        (Figure 6's r < R setting): the lower bound of f over the block
        only involves the dimensions f reads.
        """
        coords = self.coords_of(bid)
        edges = self.boundaries
        return (
            tuple(edges[p][coords[p]] for p in dim_positions),
            tuple(edges[p][coords[p] + 1] for p in dim_positions),
        )
