"""Ground-truth simulation world: static occupancy grid plus movers on waypoint schedules.

World snapshots are immutable; ``advanced()`` returns the next tick. Each
mover occupies the one cell of its current waypoint, a pure function of the
tick, so replays are bit-identical.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import MapParseError, OutOfBounds
from .geometry import Cell, Point, Pose


class MoverPolicy(enum.Enum):
    LOOP = "loop"
    PINGPONG = "pingpong"
    STOP = "stop"


@dataclass(frozen=True)
class MovingObstacle:
    """Obstacle following a waypoint schedule, one waypoint hop per ticks_per_move ticks."""

    waypoints: tuple[Cell, ...]
    ticks_per_move: int = 1
    policy: MoverPolicy = MoverPolicy.STOP

    def __post_init__(self):
        if not self.waypoints:
            raise ValueError("mover needs at least one waypoint")
        if self.ticks_per_move < 1:
            raise ValueError("ticks_per_move must be >= 1")
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
    """Static occupancy bitmap plus movers; immutable snapshot at one tick."""

    def __init__(self, static_cells: np.ndarray, cell_size: float,
                 movers: tuple[MovingObstacle, ...] = (), tick: int = 0):
        static_cells = np.ascontiguousarray(static_cells, dtype=bool)
        if static_cells.ndim != 2:
            raise ValueError("static_cells must be a 2D array")
        if not 0 < cell_size < math.inf:
            raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
        self.static_cells = static_cells
        self.cell_size = float(cell_size)
        self.movers = tuple(movers)
        self.tick = int(tick)
        self._occ: np.ndarray | None = None
        for m in self.movers:
            for cell in m.waypoints:
                if not self.in_bounds(cell):
                    raise ValueError(f"mover waypoint {cell} outside the "
                                     f"{self.height}x{self.width} world")

    @property
    def height(self) -> int:
        return self.static_cells.shape[0]

    @property
    def width(self) -> int:
        return self.static_cells.shape[1]

    def in_bounds(self, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.height and 0 <= c < self.width

    def occupancy_at(self, cell: Cell) -> bool:
        """True when the cell is occupied by the static map or any mover."""
        if not self.in_bounds(cell):
            raise OutOfBounds(f"cell {cell} outside {self.height}x{self.width} world")
        return bool(self.occupancy_grid()[cell])

    def occupancy_grid(self) -> np.ndarray:
        """Composed static+mover occupancy at this tick (cached; treat as read-only).
        Without movers it is static_cells itself, shared by every tick."""
        if not self.movers:
            return self.static_cells
        if self._occ is None:
            occ = self.static_cells.copy()
            for m in self.movers:
                occ[m.anchor_at(self.tick)] = True
            self._occ = occ
        return self._occ

    def advanced(self) -> "WorldMap":
        """Snapshot at the next tick; the static bitmap and the checked movers are shared."""
        world = object.__new__(type(self))
        world.__dict__.update(self.__dict__, tick=self.tick + 1, _occ=None)
        return world

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


@dataclass(frozen=True)
class ParsedMap:
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
        if key == "cellsize":
            close_pending()
            if len(parts) != 2:
                raise MapParseError("expected: cellsize <meters>", line_no)
            try:
                cell_size = _finite_float(parts[1])
            except ValueError:
                raise MapParseError(f"bad cellsize value {parts[1]!r}", line_no)
            if cell_size <= 0:
                raise MapParseError("cellsize must be positive", line_no)
        elif key == "start":
            close_pending()
            if len(parts) != 4:
                raise MapParseError("expected: start <col> <row> <psi_deg>", line_no)
            try:
                start_spec = (int(parts[1]), int(parts[2]), _finite_float(parts[3]), line_no)
            except ValueError:
                raise MapParseError("bad start values", line_no)
        elif key == "goal":
            close_pending()
            if len(parts) != 3:
                raise MapParseError("expected: goal <col> <row>", line_no)
            try:
                goal_spec = (int(parts[1]), int(parts[2]), line_no)
            except ValueError:
                raise MapParseError("bad goal values", line_no)
        elif key == "mover":
            close_pending()
            if len(parts) != 3:
                raise MapParseError("expected: mover <ticks_per_move> <policy>", line_no)
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
        elif key == "wp":
            if pending is None:
                raise MapParseError("wp line outside a mover block", line_no)
            if len(parts) != 3:
                raise MapParseError("expected: wp <col> <row>", line_no)
            try:
                col, row = int(parts[1]), int(parts[2])
            except ValueError:
                raise MapParseError("bad waypoint values", line_no)
            if pending[2]:
                checked_mover(line_no, (pending[2][-1], (row, col)))
            pending[2].append((row, col))
            wp_lines.append(((row, col), line_no))
        else:
            raise MapParseError(f"unknown directive {key!r}", line_no)

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
    static = np.zeros((height, width), dtype=bool)
    # First file line is the top row: file index i -> world row height-1-i.
    for i, (line_no, row_text) in enumerate(grid_rows):
        if len(row_text) != width:
            raise MapParseError(f"grid row has {len(row_text)} cells, expected {width}", line_no)
        static[height - 1 - i, :] = [ch == "#" for ch in row_text]

    # the grid may follow the mover blocks, so waypoints are checked only now
    for (row, col), line_no in wp_lines:
        if not (0 <= row < height and 0 <= col < width):
            raise MapParseError(f"waypoint ({col}, {row}) outside the grid", line_no)
    world = WorldMap(static, cell_size, tuple(movers))

    for name, (col, row, *_, line_no) in (("start", start_spec), ("goal", goal_spec)):
        if not world.in_bounds((row, col)):
            raise MapParseError(f"{name} cell ({col}, {row}) outside the grid", line_no)
        if world.static_cells[row, col]:
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
