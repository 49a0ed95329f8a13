"""Grid geometry equals a plain reference computed from the boundaries.

:class:`BlockGrid` and :class:`PseudoBlockMap` derive their shape once per
object and walk bids with strides; the reference here enumerates the
cells with ``itertools.product`` and looks everything up by coordinates.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BlockGrid, GridError, PseudoBlockMap


def edges(bins: int):
    return st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        min_size=bins + 1, max_size=bins + 1, unique=True,
    ).map(lambda values: tuple(sorted(values)))


grids = (
    st.lists(st.integers(1, 5), min_size=1, max_size=4)
    .flatmap(lambda bins: st.tuples(*(edges(b) for b in bins)))
    .map(lambda bounds: BlockGrid(
        tuple(f"n{d}" for d in range(len(bounds))), bounds
    ))
)


def reference_cells(boundaries):
    """Coordinates of every cell, indexed by row-major bid (dim 0 fastest)."""
    ranges = [range(len(e) - 1) for e in reversed(boundaries)]
    return [tuple(reversed(c)) for c in itertools.product(*ranges)]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid=grids, data=st.data())
def test_geometry_matches_reference(grid, data):
    bounds = grid.boundaries
    bins = [len(e) - 1 for e in bounds]
    cells = reference_cells(bounds)
    bid_of = {coords: bid for bid, coords in enumerate(cells)}
    assert grid.bins_per_dim == tuple(bins)
    assert grid.num_blocks == len(cells)
    positions = data.draw(
        st.lists(st.integers(0, len(bins) - 1), max_size=4), label="positions"
    )
    for bid, coords in enumerate(cells):
        assert grid.coords_of(bid) == coords
        assert grid.bid_of(coords) == bid
        expected = []
        for d in range(len(bins)):
            for step in (-1, 1):
                moved = list(coords)
                moved[d] += step
                if 0 <= moved[d] < bins[d]:
                    expected.append(bid_of[tuple(moved)])
        assert list(grid.neighbors(bid)) == expected
        lower = tuple(bounds[d][c] for d, c in enumerate(coords))
        upper = tuple(bounds[d][c + 1] for d, c in enumerate(coords))
        assert grid.box(bid) == (lower, upper)
        assert grid.sub_box(bid, positions) == (
            tuple(lower[p] for p in positions),
            tuple(upper[p] for p in positions),
        )

    for bad in (-1, len(cells)):
        with pytest.raises(GridError):
            grid.coords_of(bad)
        with pytest.raises(GridError):
            list(grid.neighbors(bad))
        with pytest.raises(GridError):
            grid.box(bad)
    d = data.draw(st.integers(0, len(bins) - 1), label="bad_dim")
    for bad in (-1, bins[d]):
        coords = [0] * len(bins)
        coords[d] = bad
        with pytest.raises(GridError):
            grid.bid_of(coords)
    with pytest.raises(GridError):
        grid.bid_of([0] * (len(bins) + 1))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid=grids, sf=st.integers(1, 4))
def test_pseudo_map_matches_reference(grid, sf):
    cells = reference_cells(grid.boundaries)
    pbins = [-(-(len(e) - 1) // sf) for e in grid.boundaries]
    pcells = reference_cells([range(b + 1) for b in pbins])
    pid_of = {pcoords: pid for pid, pcoords in enumerate(pcells)}
    pseudo = PseudoBlockMap(grid, sf)
    assert pseudo.pbins_per_dim == tuple(pbins)
    assert pseudo.num_pseudo_blocks == len(pcells)
    members: dict[int, list[int]] = {}
    for bid, coords in enumerate(cells):
        pid = pid_of[tuple(c // sf for c in coords)]
        assert pseudo.pid_of_bid(bid) == pid
        members.setdefault(pid, []).append(bid)
    for pid in range(len(pcells)):
        assert pseudo.bids_of_pid(pid) == members[pid]
    for bad in (-1, len(pcells)):
        with pytest.raises(GridError):
            pseudo.bids_of_pid(bad)
    with pytest.raises(GridError):
        pseudo.pid_of_bid(len(cells))
