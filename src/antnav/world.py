"""Ground-truth simulation world: static occupancy grid plus movers on waypoint schedules.

World snapshots are immutable; ``advanced()`` returns the next tick. Each
mover occupies the one cell of its current waypoint, a pure function of the
tick, so replays are bit-identical. A world equals another with the same
cells, size, cell size, movers and tick. What a world keeps for the kernel
(its tick's occupancy store and pointer, and the memo of local grids and
cycle preludes that antnav.grid.local_grid and antnav.planner.plan_cycle
fill, which every tick shares) is derived from those, so it stays out of
equality, copies and pickles: a copy starts empty.
"""
from __future__ import annotations

import enum
import math
import operator

from . import kernel
from .errors import MapParseError, OutOfBounds
from .geometry import Cell, Frozen, Point, Pose, check_count


class MoverPolicy(enum.Enum):
    LOOP = "loop"
    PINGPONG = "pingpong"
    STOP = "stop"


class MovingObstacle(Frozen):
    """Obstacle following a waypoint schedule, one waypoint hop per ticks_per_move ticks."""

    waypoints: tuple[Cell, ...]
    ticks_per_move: int = 1
    policy: MoverPolicy = MoverPolicy.STOP

    def __post_init__(self):
        if not self.waypoints:
            raise ValueError("mover needs at least one waypoint")
        object.__setattr__(self, "policy", MoverPolicy(self.policy))  # a member, or ValueError
        check_count("ticks_per_move", self.ticks_per_move, 1)
        for r, c in self.waypoints:  # the world checks their bounds
            check_count("mover waypoint row", r, None)
            check_count("mover waypoint col", c, None)
        for (r0, c0), (r1, c1) in zip(self.waypoints, self.waypoints[1:]):
            if max(abs(r1 - r0), abs(c1 - c0)) > 1:
                raise ValueError(f"waypoints {(r0, c0)} -> {(r1, c1)} are not 8-adjacent or identical")

    def anchor_at(self, tick: int) -> Cell:
        """Waypoint the mover sits on at the given tick."""
        moves = tick // self.ticks_per_move
        n = len(self.waypoints)
        if n == 1:
            return self.waypoints[0]
        if self.policy is MoverPolicy.STOP:
            idx = min(moves, n - 1)
        elif self.policy is MoverPolicy.LOOP:
            idx = moves % n
        else:  # PINGPONG over 0..n-1..0
            period = 2 * (n - 1)
            k = moves % period
            idx = k if k < n else period - k
        return self.waypoints[idx]


class WorldMap:
    """Static occupancy plus movers; an immutable snapshot at one tick.

    The static occupancy is one store: cells, the row-major bytes of a
    height x width grid, 1 for an occupied cell and 0 for a free one, so cell
    (r, c) is byte r * width + c. It is copied from static_cells, a 2D array
    of truth values (rows of equal length, such as lists of bools or a numpy
    array), at construction, so later edits of the caller's array do not
    reach the world, and every tick shares it.
    """

    # what a world is; the rest of its __dict__ is worked out from these
    _FIELDS = ("cells", "height", "width", "cell_size", "movers", "tick")
    _value = operator.attrgetter(*_FIELDS)  # the field tuple, as a Frozen class's _value

    def __init__(self, static_cells, cell_size: float,
                 movers: tuple[MovingObstacle, ...] = (), tick: int = 0):
        try:  # bool(): the kernel reads each byte as a _Bool, which holds only 0 or 1
            rows = [bytes(map(bool, row)) for row in static_cells]
        except (TypeError, ValueError):  # a row that is a scalar, or a cell that is an array
            raise ValueError("static_cells must be a 2D array") from None
        if len({len(row) for row in rows}) > 1:
            raise ValueError("static_cells rows must have equal lengths")
        if not 0 < cell_size < math.inf:
            raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
        self.cells = b"".join(rows)
        self.height = len(rows)
        self.width = len(rows[0]) if rows else 0
        self.cell_size = float(cell_size)
        self.movers = tuple(movers)
        check_count("tick", tick, 0)
        self.tick = int(tick)
        self._occ: bytearray | None = None  # this tick's occupancy, with movers only
        self._kernel_occ: tuple | None = None
        self._memo: dict = {}  # grid.local_grid's entries, shared by every tick
        for m in self.movers:
            for cell in m.waypoints:
                if not self.in_bounds(cell):
                    raise ValueError(f"mover waypoint {cell} outside the "
                                     f"{self.height}x{self.width} world")

    def in_bounds(self, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.height and 0 <= c < self.width

    def _occupancy(self) -> bytes | bytearray:
        """This tick's occupancy store: cells itself without movers, else a copy
        with each mover's cell set, made once per tick."""
        if not self.movers:
            return self.cells
        if self._occ is None:
            occ = bytearray(self.cells)
            for m in self.movers:
                r, c = m.anchor_at(self.tick)
                occ[r * self.width + c] = 1
            self._occ = occ
        return self._occ

    def occupancy_at(self, cell: Cell) -> bool:
        """True when the cell is occupied by the static map or any mover."""
        if not self.in_bounds(cell):
            raise OutOfBounds(f"cell {cell} outside {self.height}x{self.width} world")
        r, c = cell
        return bool(self._occupancy()[r * self.width + c])

    def kernel_occupancy(self) -> tuple:
        """The kernel's (pointer, rows, cols, cell_size) of this tick's occupancy, made once:
        an ffi.from_buffer of the store (of the tick's copy with movers), read as _Bool."""
        if self._kernel_occ is None:
            occ = kernel.module().ffi.from_buffer("_Bool[]", self._occupancy())
            self._kernel_occ = (occ, self.height, self.width, self.cell_size)
        return self._kernel_occ

    def advanced(self) -> "WorldMap":
        """Snapshot at the next tick; the static store, the checked movers and the memo are
        shared, and without movers so is the kernel occupancy, which every tick then reads."""
        world = object.__new__(type(self))
        world.__dict__.update(self.__dict__, tick=self.tick + 1, _occ=None,
                              _kernel_occ=None if self.movers else self._kernel_occ)
        return world

    __eq__, __hash__ = Frozen.__eq__, Frozen.__hash__  # the value types' rule, on _value

    def __getstate__(self):  # a cffi pointer neither copies nor pickles
        return dict(zip(self._FIELDS, self._value(self)))

    def __setstate__(self, state):
        self.__dict__.update(state, _occ=None, _kernel_occ=None, _memo={})

    def cell_of(self, x: float, y: float) -> Cell:
        return (int(math.floor(y / self.cell_size)), int(math.floor(x / self.cell_size)))

    def cell_center(self, cell: Cell) -> Point:
        r, c = cell
        return ((c + 0.5) * self.cell_size, (r + 0.5) * self.cell_size)


def _finite_float(text: str) -> float:
    """float(text); ValueError for nan and infinities too, as for any non-number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


# a grid row's characters as occupancy bytes: "#" occupied, "." free
_GRID_BYTES = bytes.maketrans(b"#.", b"\x01\x00")

# the usage line of each map directive; its word count is the directive's arity
_MAP_USAGE = {"cellsize": "cellsize <meters>", "start": "start <col> <row> <psi_deg>",
              "goal": "goal <col> <row>", "mover": "mover <ticks_per_move> <policy>",
              "wp": "wp <col> <row>"}


class ParsedMap(Frozen):
    """Result of parsing a map file: the world plus start pose and goal point."""

    world: WorldMap
    start: Pose
    goal: Point


def parse_map(text: str) -> ParsedMap:
    """Parse the ASCII map format.

    Grid rows are lines of ``#`` (occupied) and ``.`` (free); the first grid
    line in the file is the top row of the world (highest row index).
    Directives: ``cellsize <m>``, ``start <col> <row> <psi_deg>``,
    ``goal <col> <row>``, and mover blocks ``mover <ticks_per_move> <policy>``
    followed by ``wp <col> <row>`` lines. Raises MapParseError with the
    offending line number.
    """
    cell_size: float | None = None
    start_spec: tuple[int, int, float, int] | None = None  # col, row, psi_deg, line_no
    goal_spec: tuple[int, int, int] | None = None  # col, row, line_no
    grid_rows: list[tuple[int, str]] = []  # (line_no, row text), file order
    movers: list[MovingObstacle] = []
    pending: tuple[int, MoverPolicy, list[Cell], int] | None = None  # open block, its mover line
    wp_lines: list[tuple[Cell, int]] = []  # every waypoint with its line number

    def checked_mover(line_no: int, *args) -> MovingObstacle:
        # MovingObstacle's own checks, reported at the line that broke them
        try:
            return MovingObstacle(*args)
        except ValueError as exc:
            raise MapParseError(str(exc), line_no) from exc

    def close_pending():
        nonlocal pending
        if pending is None:
            return
        ticks, policy, wps, mover_line = pending
        if not wps:
            raise MapParseError("mover block has no waypoints", mover_line)
        movers.append(MovingObstacle(tuple(wps), ticks, policy))
        pending = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if set(stripped) <= {"#", "."}:
            close_pending()
            grid_rows.append((line_no, stripped))
            continue
        parts = stripped.split()
        key = parts[0]
        usage = _MAP_USAGE.get(key)
        if usage is None:
            raise MapParseError(f"unknown directive {key!r}", line_no)
        if key != "wp":
            close_pending()
        elif pending is None:
            raise MapParseError("wp line outside a mover block", line_no)
        if len(parts) != len(usage.split()):
            raise MapParseError(f"expected: {usage}", line_no)
        if key == "cellsize":
            try:
                cell_size = _finite_float(parts[1])
            except ValueError:
                raise MapParseError(f"bad cellsize value {parts[1]!r}", line_no)
            if cell_size <= 0:
                raise MapParseError("cellsize must be positive", line_no)
        elif key == "start":
            try:
                start_spec = (int(parts[1]), int(parts[2]), _finite_float(parts[3]), line_no)
            except ValueError:
                raise MapParseError("bad start values", line_no)
        elif key == "goal":
            try:
                goal_spec = (int(parts[1]), int(parts[2]), line_no)
            except ValueError:
                raise MapParseError("bad goal values", line_no)
        elif key == "mover":
            try:
                ticks = int(parts[1])
            except ValueError:
                raise MapParseError("bad ticks_per_move value", line_no)
            try:
                policy = MoverPolicy(parts[2].lower())
            except ValueError:
                raise MapParseError(f"unknown mover policy {parts[2]!r}", line_no)
            checked_mover(line_no, ((0, 0),), ticks, policy)
            pending = (ticks, policy, [], line_no)
        else:  # wp
            try:
                col, row = int(parts[1]), int(parts[2])
            except ValueError:
                raise MapParseError("bad waypoint values", line_no)
            if pending[2]:
                checked_mover(line_no, (pending[2][-1], (row, col)))
            pending[2].append((row, col))
            wp_lines.append(((row, col), line_no))

    last_line = text.count("\n") + 1
    close_pending()

    if not grid_rows:
        raise MapParseError("map has no grid rows", last_line)
    if cell_size is None:
        raise MapParseError("missing cellsize directive", last_line)
    if start_spec is None:
        raise MapParseError("missing start directive", last_line)
    if goal_spec is None:
        raise MapParseError("missing goal directive", last_line)

    width = len(grid_rows[0][1])
    height = len(grid_rows)
    for line_no, row_text in grid_rows:
        if len(row_text) != width:
            raise MapParseError(f"grid row has {len(row_text)} cells, expected {width}", line_no)
    # First file line is the top row: file index i -> world row height-1-i.
    static = [row_text.encode().translate(_GRID_BYTES) for _, row_text in reversed(grid_rows)]

    # the grid may follow the mover blocks, so waypoints are checked only now
    for (row, col), line_no in wp_lines:
        if not (0 <= row < height and 0 <= col < width):
            raise MapParseError(f"waypoint ({col}, {row}) outside the grid", line_no)
    world = WorldMap(static, cell_size, tuple(movers))

    for name, (col, row, *_, line_no) in (("start", start_spec), ("goal", goal_spec)):
        if not world.in_bounds((row, col)):
            raise MapParseError(f"{name} cell ({col}, {row}) outside the grid", line_no)
        if world.cells[row * width + col]:
            raise MapParseError(f"{name} cell ({col}, {row}) is occupied", line_no)
    s_col, s_row, psi_deg, _ = start_spec
    g_col, g_row, _ = goal_spec

    sx, sy = world.cell_center((s_row, s_col))
    start = Pose(sx, sy, math.radians(psi_deg))
    goal = world.cell_center((g_row, g_col))
    return ParsedMap(world, start, goal)


def load_map(path) -> ParsedMap:
    with open(path, "r", encoding="utf-8") as f:
        return parse_map(f.read())
