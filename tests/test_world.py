import math

import numpy as np
import pytest

from antnav import MapParseError, MovingObstacle, MoverPolicy, OutOfBounds, parse_map
from antnav.world import WorldMap

from stages import occupancy


def world_with(movers=(), size=10, boxes=()):
    static = np.zeros((size, size), bool)
    for r0, c0, r1, c1 in boxes:
        static[r0:r1 + 1, c0:c1 + 1] = True
    return WorldMap(static, 1.0, tuple(movers))


class TestOccupancy:
    def test_empty_map_free_everywhere(self):
        w = world_with()
        assert not occupancy(w).any()

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
        occ, static = occupancy(w), occupancy(w, static=True)
        for r in range(6):
            for c in range(6):
                expected = static[r, c] or (r, c) == m.anchor_at(w.tick)
                assert occ[r, c] == expected


ONE_MOVER = (MovingObstacle(((2, 3),)),)


class TestStore:
    """A world copies its static occupancy into one immutable byte store at
    construction; a mover world adds one copy per tick, with its movers set."""

    def test_store_holds_row_major_zero_one_bytes(self):
        w = WorldMap(np.array([[0, 2, 0], [0.5, 0, -1]]), 1.0)
        assert (w.height, w.width) == (2, 3)
        assert w.cells == bytes([0, 1, 0, 1, 0, 1])  # the kernel reads each byte as a _Bool
        assert occupancy(w, static=True).tolist() == [[False, True, False], [True, False, True]]
        assert WorldMap([[True, False], [False, False]], 1.0).cells == bytes([1, 0, 0, 0])

    @pytest.mark.parametrize("static", [np.zeros(4, bool), [[False, False], [False]]])
    def test_store_needs_a_rectangular_2d_array(self, static):
        with pytest.raises(ValueError):
            WorldMap(static, 1.0)

    @pytest.mark.parametrize("movers", [(), ONE_MOVER])
    def test_edits_of_the_callers_array_do_not_reach_the_world(self, movers):
        a = np.zeros((3, 4), bool)
        w = WorldMap(a, 1.0, movers)
        a[1, 1] = True
        assert not w.occupancy_at((1, 1))
        assert not occupancy(w, static=True)[1, 1] and not occupancy(w.advanced())[1, 1]

    @pytest.mark.parametrize("movers", [(), ONE_MOVER])
    def test_the_store_is_immutable_and_each_tick_is_built_once(self, movers):
        w = WorldMap(np.zeros((3, 4), bool), 1.0, movers)
        tick = w._occupancy()  # this tick's occupancy, made before the write
        with pytest.raises(TypeError):
            w.cells[0] = 1
        later = w.advanced()
        assert type(w.cells) is bytes and later.cells is w.cells
        assert w._occupancy() is tick and (tick is w.cells) is not bool(movers)
        assert (later._occupancy() is tick) is not bool(movers)
        for world in (w, later):
            assert not world.occupancy_at((0, 0)) and not occupancy(world)[0, 0]

    @pytest.mark.parametrize("movers", [(), ONE_MOVER])
    def test_numpy_views_are_read_only(self, movers):
        w = WorldMap(np.zeros((3, 4), bool), 1.0, movers)
        later = w.advanced()
        for view in (occupancy(w, static=True), occupancy(w), occupancy(later, static=True),
                     occupancy(later)):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view.flags.writeable = True
            with pytest.raises(ValueError):
                view[1, 1] = True
        assert not w.occupancy_at((1, 1)) and not later.occupancy_at((1, 1))
        assert later.occupancy_at((2, 3)) is bool(movers)


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

    @pytest.mark.parametrize("kwargs, error, message", [
        # 1.5 crashed anchor_at in a run of moving.scn, True ran as 1, and a
        # fractional waypoint passed the world's bounds check to fail the run
        ({"ticks_per_move": 1.5}, TypeError, "ticks_per_move must be an integer, got 1.5"),
        ({"ticks_per_move": True}, TypeError, "ticks_per_move must be an integer, got True"),
        ({"ticks_per_move": 0}, ValueError, "ticks_per_move must be >= 1"),
        ({"waypoints": ((4.5, 10),)}, TypeError,
         "mover waypoint row must be an integer, got 4.5"),
        ({"waypoints": ((4, 9), (4, 10.0))}, TypeError,
         "mover waypoint col must be an integer, got 10.0"),
        ({"waypoints": ()}, ValueError, "mover needs at least one waypoint"),
    ])
    def test_mover_integers_are_checked_by_name(self, kwargs, error, message):
        with pytest.raises(error) as got:
            MovingObstacle(**{"waypoints": ((4, 9),), **kwargs})
        assert str(got.value) == message

    @pytest.mark.parametrize("tick, error, message", [
        (1.7, TypeError, "tick must be an integer, got 1.7"),  # became tick 1
        (-1, ValueError, "tick must be >= 0"),  # put a stop mover on its last waypoint
    ])
    def test_tick_is_a_count(self, tick, error, message):
        mover = MovingObstacle(((1, 1), (1, 2)), policy=MoverPolicy.STOP)
        with pytest.raises(error) as got:
            WorldMap(np.zeros((4, 4), bool), 1.0, (mover,), tick=tick)
        assert str(got.value) == message
        assert WorldMap(np.zeros((4, 4), bool), 1.0, (mover,), tick=np.int64(0)).tick == 0

    def test_policy_is_stored_as_the_member_its_value_names(self):
        # "loop" was stored as given and moved as PINGPONG, anchor_at's last branch
        waypoints = ((1, 1), (1, 2), (1, 3))
        m = MovingObstacle(waypoints, 1, "loop")
        assert m.policy is MoverPolicy.LOOP and m.anchor_at(3) == (1, 1)
        with pytest.raises(ValueError, match="^'x' is not a valid MoverPolicy$"):
            MovingObstacle(waypoints, 1, "x")

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
        assert (occupancy(a) == occupancy(b)).all()
        assert w0.tick == 0  # original snapshot untouched

    def test_static_shared_not_copied(self):
        w = world_with([MovingObstacle(((1, 1), (1, 2)))])
        assert w.advanced().cells is w.cells  # one store for every tick
        assert w.advanced().movers is w.movers  # checked once, at construction
        assert w.advanced()._memo is w._memo  # one memo of grids and preludes for every tick


class TestValue:
    """A world is its cells, size, cell size, movers and tick; what it keeps for
    the kernel stays out of equality, copies and pickles."""

    @pytest.mark.parametrize("movers", [(), ONE_MOVER])
    def test_equal_by_value_and_copies_start_empty(self, movers):
        import copy
        import pickle

        from antnav.grid import _scan_args, local_grid
        from antnav.geometry import Pose

        w = WorldMap(np.zeros((3, 4), bool), 1.0, movers).advanced()
        twin = WorldMap(np.zeros((3, 4), bool), 1.0, movers, tick=1)
        assert w == twin and hash(w) == hash(twin) and w is not twin
        local_grid(w, Pose(1.5, 1.5, 0.0), _scan_args(1.0, 8, 1.0, 1, 0))
        w.kernel_occupancy()
        assert w._memo and w._kernel_occ is not None and not twin._memo
        assert w == twin and hash(w) == hash(twin)  # the kept state is no part of the value
        for same in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert same == w and hash(same) == hash(w)
            assert same._memo == {} and same._kernel_occ is None and same._occ is None
            assert same.advanced() == w.advanced()
        assert set(w.__getstate__()) == {"cells", "height", "width", "cell_size", "movers",
                                         "tick"}
        others = [WorldMap(np.ones((3, 4), bool), 1.0, movers, tick=1),
                  WorldMap(np.zeros((4, 4), bool), 1.0, movers, tick=1),
                  WorldMap(np.zeros((3, 4), bool), 1.5, movers, tick=1),
                  WorldMap(np.zeros((3, 4), bool), 1.0, () if movers else ONE_MOVER, tick=1),
                  WorldMap(np.zeros((3, 4), bool), 1.0, movers, tick=2)]
        assert all(other != w for other in others)
        assert w != w.cells and w.__eq__(w.cells) is NotImplemented


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
        static = occupancy(w, static=True)
        assert static[0].all() and static[4].all() and not static[1:4, 1:4].any()
        assert w.cell_of(*parsed.start.xy) == (1, 1)
        assert abs(parsed.start.psi - math.pi / 2) < 1e-12
        assert parsed.goal == ((3 + 0.5) * 1.5, (3 + 0.5) * 1.5)
        assert len(w.movers) == 1
        assert w.movers[0].waypoints == ((3, 2), (2, 2))
        assert w.movers[0].ticks_per_move == 2

    def test_first_line_is_top_row(self):
        text = "cellsize 1\nstart 0 0 0\ngoal 2 0\n##.\n...\n"
        w = parse_map(text).world
        static = occupancy(w, static=True)
        assert static[1, 0] and static[1, 1] and not static[0].any()

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
        ("cellsize 0\nstart 0 0 0\ngoal 1 0\n..\n", 1),  # cellsize must be positive
        ("cellsize 1\nstart 0 0 0\ngoal 1 0", 3),  # no grid rows: the last line
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
