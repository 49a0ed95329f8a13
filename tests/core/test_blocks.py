"""Unit tests for the block grid."""

import pickle

import pytest

from repro.core import BlockGrid, GridError, PseudoBlockMap


def make_grid():
    # 3 bins on n1, 2 bins on n2
    return BlockGrid(
        ("n1", "n2"),
        ((0.0, 0.3, 0.6, 1.0), (0.0, 0.5, 1.0)),
    )


#: ``make_grid()`` and ``PseudoBlockMap(make_grid(), 2)`` pickled at
#: protocol 5 before the derived shape existed: their state holds the
#: dataclass fields only.  Snapshots must keep these bytes and load them.
LEGACY_GRID_PICKLE = (
    b"\x80\x05\x95\x91\x00\x00\x00\x00\x00\x00\x00\x8c\x11repro.core.blocks"
    b"\x94\x8c\tBlockGrid\x94\x93\x94)\x81\x94}\x94(\x8c\x04dims\x94\x8c\x02n1"
    b"\x94\x8c\x02n2\x94\x86\x94\x8c\nboundaries\x94(G\x00\x00\x00\x00\x00\x00"
    b"\x00\x00G?\xd3333333G?\xe3333333G?\xf0\x00\x00\x00\x00\x00\x00t\x94G"
    b"\x00\x00\x00\x00\x00\x00\x00\x00G?\xe0\x00\x00\x00\x00\x00\x00G?\xf0"
    b"\x00\x00\x00\x00\x00\x00\x87\x94\x86\x94ub."
)
LEGACY_PSEUDO_PICKLE = (
    b"\x80\x05\x95\xce\x00\x00\x00\x00\x00\x00\x00\x8c\x11repro.core.pseudo"
    b"\x94\x8c\x0ePseudoBlockMap\x94\x93\x94)\x81\x94}\x94(\x8c\x04grid\x94"
    b"\x8c\x11repro.core.blocks\x94\x8c\tBlockGrid\x94\x93\x94)\x81\x94}\x94("
    b"\x8c\x04dims\x94\x8c\x02n1\x94\x8c\x02n2\x94\x86\x94\x8c\nboundaries\x94"
    b"(G\x00\x00\x00\x00\x00\x00\x00\x00G?\xd3333333G?\xe3333333G?\xf0\x00"
    b"\x00\x00\x00\x00\x00t\x94G\x00\x00\x00\x00\x00\x00\x00\x00G?\xe0\x00"
    b"\x00\x00\x00\x00\x00G?\xf0\x00\x00\x00\x00\x00\x00\x87\x94\x86\x94ub"
    b"\x8c\x02sf\x94K\x02ub."
)

class TestPickle:
    def test_bytes_hold_only_the_fields(self):
        grid = make_grid()
        assert pickle.dumps(grid, protocol=5) == LEGACY_GRID_PICKLE
        pseudo = PseudoBlockMap(grid, 2)
        assert pickle.dumps(pseudo, protocol=5) == LEGACY_PSEUDO_PICKLE

    def test_legacy_bytes_derive_the_shape_on_load(self):
        grid = pickle.loads(LEGACY_GRID_PICKLE)
        assert grid == make_grid()
        assert grid.bins_per_dim == (3, 2)
        assert grid.strides == (1, 3)
        assert grid.num_blocks == 6
        assert list(grid.neighbors(4)) == [3, 5, 1]
        pseudo = pickle.loads(LEGACY_PSEUDO_PICKLE)
        assert pseudo.pbins_per_dim == (2, 1)
        assert [pseudo.pid_of_bid(b) for b in range(6)] == [0, 0, 1, 0, 0, 1]


class TestShape:
    def test_bins_and_blocks(self):
        grid = make_grid()
        assert grid.bins_per_dim == (3, 2)
        assert grid.num_blocks == 6
        assert grid.num_dims == 2

    def test_dimension_count_mismatch(self):
        with pytest.raises(GridError):
            BlockGrid(("n1",), ((0.0, 1.0), (0.0, 1.0)))

    def test_too_few_boundaries(self):
        with pytest.raises(GridError):
            BlockGrid(("n1",), ((0.5,),))

    def test_non_increasing_boundaries(self):
        with pytest.raises(GridError):
            BlockGrid(("n1",), ((0.0, 0.5, 0.5, 1.0),))

    def test_empty_grid_rejected(self):
        with pytest.raises(GridError):
            BlockGrid((), ())


class TestBidMapping:
    def test_row_major_first_dim_fastest(self):
        grid = make_grid()
        assert grid.bid_of((0, 0)) == 0
        assert grid.bid_of((1, 0)) == 1
        assert grid.bid_of((2, 0)) == 2
        assert grid.bid_of((0, 1)) == 3

    def test_roundtrip_all(self):
        grid = make_grid()
        for bid in range(grid.num_blocks):
            assert grid.bid_of(grid.coords_of(bid)) == bid

    def test_out_of_range_coords(self):
        with pytest.raises(GridError):
            make_grid().bid_of((3, 0))

    def test_out_of_range_bid(self):
        with pytest.raises(GridError):
            make_grid().coords_of(6)

    def test_wrong_arity(self):
        with pytest.raises(GridError):
            make_grid().bid_of((1,))


class TestLocate:
    def test_interior_points(self):
        grid = make_grid()
        assert grid.locate((0.1, 0.2)) == grid.bid_of((0, 0))
        assert grid.locate((0.4, 0.7)) == grid.bid_of((1, 1))

    def test_boundary_goes_to_higher_bin(self):
        grid = make_grid()
        assert grid.locate((0.3, 0.0)) == grid.bid_of((1, 0))

    def test_last_edge_stays_in_last_bin(self):
        grid = make_grid()
        assert grid.locate((1.0, 1.0)) == grid.bid_of((2, 1))

    def test_outside_clamps(self):
        grid = make_grid()
        assert grid.locate((-5.0, 2.0)) == grid.bid_of((0, 1))
        assert grid.locate((99.0, -1.0)) == grid.bid_of((2, 0))


class TestGeometry:
    def test_box(self):
        grid = make_grid()
        lower, upper = grid.box(grid.bid_of((1, 1)))
        assert lower == (0.3, 0.5)
        assert upper == (0.6, 1.0)

    def test_full_box(self):
        assert make_grid().full_box() == ((0.0, 0.0), (1.0, 1.0))

    def test_sub_box(self):
        grid = make_grid()
        bid = grid.bid_of((2, 0))
        lower, upper = grid.sub_box(bid, (1,))  # only n2
        assert (lower, upper) == ((0.0,), (0.5,))

    def test_project(self):
        grid = make_grid()
        assert grid.project(("n2", "n1")) == (1, 0)

    def test_project_unknown_dim(self):
        with pytest.raises(GridError):
            make_grid().project(("zz",))


class TestNeighbors:
    def test_corner_has_two(self):
        grid = make_grid()
        neighbors = set(grid.neighbors(grid.bid_of((0, 0))))
        assert neighbors == {grid.bid_of((1, 0)), grid.bid_of((0, 1))}

    def test_interior_has_four(self):
        grid = make_grid()
        neighbors = set(grid.neighbors(grid.bid_of((1, 0))))
        assert neighbors == {
            grid.bid_of((0, 0)),
            grid.bid_of((2, 0)),
            grid.bid_of((1, 1)),
        }

    def test_symmetry(self):
        grid = make_grid()
        for bid in range(grid.num_blocks):
            for neighbor in grid.neighbors(bid):
                assert bid in set(grid.neighbors(neighbor))

    def test_one_dimensional_grid(self):
        grid = BlockGrid(("n1",), ((0.0, 0.25, 0.5, 1.0),))
        assert set(grid.neighbors(1)) == {0, 2}
        assert set(grid.neighbors(0)) == {1}

    def test_three_dimensional_grid(self):
        grid = BlockGrid(
            ("x", "y", "z"),
            ((0.0, 0.5, 1.0),) * 3,
        )
        center_neighbors = list(grid.neighbors(grid.bid_of((0, 0, 0))))
        assert len(center_neighbors) == 3


class TestLocateMany:
    def test_matches_scalar_locate(self):
        import random

        grid = make_grid()
        rng = random.Random(17)
        points = [(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)) for _ in range(500)]
        vectorized = grid.locate_many(points)
        assert vectorized == [grid.locate(p) for p in points]

    def test_boundary_semantics_match(self):
        grid = make_grid()
        points = [(0.3, 0.0), (0.6, 0.5), (1.0, 1.0), (0.0, 0.0)]
        assert grid.locate_many(points) == [grid.locate(p) for p in points]

    def test_shape_validation(self):
        grid = make_grid()
        with pytest.raises(GridError):
            grid.locate_many([(0.5,)])  # wrong arity
