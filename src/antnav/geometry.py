"""Shared helpers: the immutable-value base, angle wrapping, robot pose, 8-connected grid
directions, sequential sums and the check of a count field."""
from __future__ import annotations

import math
import operator

Cell = tuple[int, int]  # (row, col); row grows with world +y, col with +x
Point = tuple[float, float]  # world-frame meters

SQRT2 = math.sqrt(2.0)


def sequential_sum(values):
    """Left-to-right sum from int 0: sum() up to Python 3.11, not 3.12's compensated one."""
    total = 0
    for v in values:
        total += v
    return total


def _is_count(value) -> bool:
    """Whether value is an integer: one that operator.index takes, a bool aside."""
    return not isinstance(value, bool) and hasattr(type(value), "__index__")


def check_count(name: str, value, low: int | None, high: int | None = None) -> None:
    """Raise TypeError naming the field unless value is an integer (one that
    operator.index takes, a bool aside), and ValueError unless low <= value <= high;
    low None (with high None) checks the type alone."""
    if not _is_count(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if high is None and low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must be in {low}..{high}, got {value}")


def store_counts(obj, *names: str) -> None:
    """Store each named field of the Frozen value obj that holds an integer as
    operator.index of it, so that a numpy integer is kept as an int and never
    turns the floats computed from it into numpy floats. Any other value is left
    as it is, for check_count to reject by name."""
    for name in names:
        value = getattr(obj, name)
        if _is_count(value):
            object.__setattr__(obj, name, operator.index(value))


def wrap_angle(a: float) -> float:
    """Wrap an angle in radians to (-pi, pi]."""
    w = math.fmod(a, math.tau)
    if w > math.pi:
        w -= math.tau
    elif w <= -math.pi:
        w += math.tau
    return w


class Frozen:
    """Immutable value that behaves as a frozen dataclass, without the methods that
    dataclasses compiles with exec for each class at every import.

    The fields are the class annotations, in order, and class attributes of those
    names their defaults, unless they are descriptors (a cached_property that
    builds a field is no default); a class declares at least two. __post_init__
    checks a new value and may set fields with object.__setattr__.

    A value is its field tuple, read by one getter per class (_value, an
    operator.attrgetter of the fields, which builds the tuple in C): two values
    are equal when they are one object, or of one class with equal tuples, and
    the hash is the tuple's.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if len(cls._fields) < 2:  # attrgetter of one name returns the value, not a tuple
            raise TypeError(f"{cls.__name__} must declare at least two fields")
        cls._defaults = {name: value for name, value in vars(cls).items()
                         if name in cls._fields and not hasattr(value, "__get__")}
        cls._value = operator.attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields, got {len(args)}")
        for name, value in zip(fields, args):
            if name in kwargs:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            kwargs[name] = value
        for name in fields:
            try:
                value = kwargs.pop(name) if name in kwargs else self._defaults[name]
            except KeyError:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}") from None
            # a field at a time, as a dataclass sets them: an instance whose
            # __dict__ is never touched keeps its values inline, where the
            # interpreter reads them faster
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument "
                            f"{next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def replace(self, **changes):
        """A copy with the given fields changed, built and checked by __init__ again."""
        return type(self)(**dict(zip(self._fields, self._value(self)), **changes))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value(self) == other._value(other)

    def __hash__(self):
        return hash(self._value(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Pose(Frozen):
    """Robot pose in the world frame, stored as Python floats (so a numpy float
    never reaches the metrics or the outputs); yaw is wrapped to (-pi, pi].

    Raises ValueError for an x, y or psi that is NaN or infinite: the kernel
    would read such a pose as one that sees nothing.
    """

    x: float
    y: float
    psi: float

    def __init__(self, x: float, y: float, psi: float):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(psi)):
            name, value = next((n, v) for n, v in (("x", x), ("y", y), ("psi", psi))
                               if not math.isfinite(v))
            raise ValueError(f"pose {name} must be finite, got {value}")
        # one write of the three fields, past Frozen's own __init__ and its
        # checks of the arguments: the planner makes a pose per cycle. The
        # write keeps the instance's dict materialized, which slows a field
        # read (three reads 23 ns against 20 ns), but it builds the pose in
        # 0.62 us against 0.76 us with one object.__setattr__ per field, and a
        # cycle reads each of its poses' fields a few times
        self.__dict__.update(x=float(x), y=float(y), psi=wrap_angle(psi))

    @property
    def xy(self) -> Point:
        return (self.x, self.y)


# Canonical 8-neighbor order used everywhere a neighborhood is enumerated
# (roulette selection, deposits, candidate scans): N, NE, E, SE, S, SW, W, NW,
# with N = +row = +y.
DIR_OFFSETS: tuple[Cell, ...] = (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
)
DIR_ANGLES: tuple[float, ...] = tuple(math.atan2(dr, dc) for dr, dc in DIR_OFFSETS)
