import math

import numpy as np
import pytest

from antnav import MapParseError, MovingObstacle, MoverPolicy, OutOfBounds, parse_map
from antnav.world import WorldMap


def world_with(movers=(), size=10, boxes=()):
    static = np.zeros((size, size), bool)
    for r0, c0, r1, c1 in boxes:
        static[r0:r1 + 1, c0:c1 + 1] = True
    return WorldMap(static, 1.0, tuple(movers))


class TestOccupancy:
    def test_empty_map_free_everywhere(self):
        w = world_with()
        assert not w.occupancy_grid().any()

    @pytest.mark.parametrize("cell_size", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_cell_size_must_be_positive_and_finite(self, cell_size):
        # a NaN cell size would fail later in cell_of, an infinite one would
        # make every ray miss
        with pytest.raises(ValueError) as got:
            WorldMap(np.zeros((4, 4), bool), cell_size)
        assert str(got.value) == f"cell_size must be positive and finite, got {cell_size}"

    @pytest.mark.parametrize("waypoints, bad", [
        (((0, 0), (-1, 0)), (-1, 0)),  # reached only at tick 1
        (((4, 4), (4, 5)), (4, 5)),
        (((5, 0),), (5, 0)),
    ])
    def test_every_mover_waypoint_must_lie_on_the_grid(self, waypoints, bad):
        with pytest.raises(ValueError) as got:
            WorldMap(np.zeros((5, 5), bool), 1.0, (MovingObstacle(waypoints),))
        assert str(got.value) == f"mover waypoint {bad} outside the 5x5 world"

    def test_out_of_bounds(self):
        w = world_with()
        with pytest.raises(OutOfBounds):
            w.occupancy_at((10, 0))
        with pytest.raises(OutOfBounds):
            w.occupancy_at((-1, 3))

    def test_union_of_static_and_movers(self):
        m = MovingObstacle(((2, 2), (2, 3)), policy=MoverPolicy.STOP)
        w = world_with([m], size=6, boxes=[(4, 4, 5, 5)])
        occ = w.occupancy_grid()
        for r in range(6):
            for c in range(6):
                expected = w.static_cells[r, c] or (r, c) == m.anchor_at(w.tick)
                assert occ[r, c] == expected


class TestSchedules:
    def test_pingpong_hand_unrolled(self):
        m = MovingObstacle(((5, 5), (5, 6), (5, 7)), ticks_per_move=1,
                           policy=MoverPolicy.PINGPONG)
        expect = [(5, 5), (5, 6), (5, 7), (5, 6), (5, 5), (5, 6), (5, 7), (5, 6)]
        assert [m.anchor_at(t) for t in range(8)] == expect

    def test_pingpong_with_ticks_per_move(self):
        m = MovingObstacle(((5, 5), (5, 6), (5, 7)), ticks_per_move=2,
                           policy=MoverPolicy.PINGPONG)
        assert m.anchor_at(4) == (5, 7)

    def test_stop_freezes_at_final_waypoint(self):
        m = MovingObstacle(((1, 1), (1, 2)), policy=MoverPolicy.STOP)
        assert m.anchor_at(0) == (1, 1)
        for t in range(1, 6):
            assert m.anchor_at(t) == (1, 2)

    def test_loop_periodicity(self):
        m = MovingObstacle(((1, 1), (2, 2), (3, 3), (2, 2)), policy=MoverPolicy.LOOP)
        for t in range(20):
            assert m.anchor_at(t) == m.anchor_at(t + 4)

    def test_movers_advance_independently_and_may_overlap(self):
        m1 = MovingObstacle(((3, 2), (3, 3), (3, 4)), policy=MoverPolicy.STOP)
        m2 = MovingObstacle(((3, 6), (3, 5), (3, 4)), policy=MoverPolicy.STOP)
        w = world_with([m1, m2])
        for _ in range(2):
            w = w.advanced()
        assert w.occupancy_at((3, 4))
        assert m1.anchor_at(w.tick) == m2.anchor_at(w.tick) == (3, 4)

    def test_waypoints_must_be_adjacent(self):
        with pytest.raises(ValueError):
            MovingObstacle(((0, 0), (0, 2)))

    def test_dwell_waypoints_allowed(self):
        m = MovingObstacle(((2, 2), (2, 2), (2, 3)), policy=MoverPolicy.STOP)
        assert m.anchor_at(1) == (2, 2)


class TestAdvance:
    def test_pure_and_bit_identical(self):
        m = MovingObstacle(((1, 1), (1, 2), (2, 3)), ticks_per_move=2,
                           policy=MoverPolicy.PINGPONG)
        w0 = world_with([m])
        a = w0
        b = w0
        for _ in range(7):
            a = a.advanced()
            b = b.advanced()
        assert a.tick == b.tick == 7
        assert (a.occupancy_grid() == b.occupancy_grid()).all()
        assert w0.tick == 0  # original snapshot untouched

    def test_static_shared_not_copied(self):
        w = world_with([MovingObstacle(((1, 1), (1, 2)))])
        assert w.advanced().static_cells is w.static_cells
        assert w.advanced().movers is w.movers  # checked once, at construction


MAP_TEXT = """\
cellsize 1.5
start 1 1 90
goal 3 3
mover 2 pingpong
wp 2 3
wp 2 2
#####
#...#
#...#
#...#
#####
"""


class TestMapParsing:
    def test_round_trip(self):
        parsed = parse_map(MAP_TEXT)
        w = parsed.world
        assert (w.width, w.height) == (5, 5)
        assert w.cell_size == 1.5
        assert w.static_cells[0].all() and w.static_cells[4].all()
        assert not w.static_cells[1:4, 1:4].any()
        assert w.cell_of(*parsed.start.xy) == (1, 1)
        assert abs(parsed.start.psi - math.pi / 2) < 1e-12
        assert parsed.goal == ((3 + 0.5) * 1.5, (3 + 0.5) * 1.5)
        assert len(w.movers) == 1
        assert w.movers[0].waypoints == ((3, 2), (2, 2))
        assert w.movers[0].ticks_per_move == 2

    def test_first_line_is_top_row(self):
        text = "cellsize 1\nstart 0 0 0\ngoal 2 0\n##.\n...\n"
        w = parse_map(text).world
        assert w.static_cells[1, 0] and w.static_cells[1, 1]
        assert not w.static_cells[0].any()

    @pytest.mark.parametrize("text,line", [
        ("cellsize 1\nstart 0 0 0\ngoal 1 0\n..\n.x\n", 5),
        ("cellsize nope\n", 1),
        ("cellsize 1\nstart 0 0\n", 2),
        ("cellsize 1\nstart 0 0 0\ngoal 1 0\n...\n..\n", 5),
        ("cellsize 1\nstart 0 0 0\ngoal 1 0\nwp 1 1\n..\n", 4),
        ("cellsize 1\nstart 0 0 0\ngoal 1 0\nmover 1 sideways\n..\n", 4),
        # mover checks fail at their own line, not where the block closes
        ("cellsize 1\nstart 0 0 0\ngoal 1 0\nmover 0 loop\nwp 0 1\nwp 1 1\n..\n..\n", 4),
        ("cellsize 1\nstart 0 0 0\ngoal 1 0\nmover 1 loop\nwp 0 0\nwp 3 2\n....\n....\n....\n",
         6),
        # an empty mover block, closed by a grid row after two blank lines
        ("cellsize 1\nstart 0 0 0\ngoal 1 0\nmover 1 loop\n\n\n..\n..\n", 4),
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(MapParseError) as err:
            parse_map(text)
        assert err.value.line_no == line

    def test_missing_pieces_rejected(self):
        with pytest.raises(MapParseError):
            parse_map("cellsize 1\nstart 0 0 0\n..\n..\n")
        with pytest.raises(MapParseError):
            parse_map("start 0 0 0\ngoal 1 1\n..\n..\n")

    def test_start_on_obstacle_rejected(self):
        with pytest.raises(MapParseError) as err:
            parse_map("cellsize 1\nstart 0 1 0\ngoal 1 0\n#.\n.#\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("goal", ["goal 1 0", "goal 0 1", "goal 5 0"])
    def test_goal_on_obstacle_or_outside_rejected_at_its_line(self, goal):
        with pytest.raises(MapParseError) as err:
            parse_map(f"cellsize 1\n{goal}\nstart 0 0 0\n#.\n.#\n")
        assert err.value.line_no == 2
