"""Exception types shared across the package."""


class AntnavError(Exception):
    """Base class for all antnav errors."""


class ParseError(AntnavError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MapParseError(ParseError):
    """Map file could not be parsed."""


class ScenarioParseError(ParseError):
    """Scenario or groups file could not be parsed."""


class OutOfBounds(AntnavError):
    """Cell index outside the world map."""


class PoseOutOfBounds(AntnavError):
    """A scan requested from a pose outside the world map."""


class PoseInObstacle(AntnavError):
    """A scan requested from a pose whose cell is occupied."""


class NoPathFound(AntnavError):
    """No ant reached a sub-goal. Kept as public API; the package no longer
    raises it: a colony that reaches no sub-goal hands the cycle to its next
    trial, and a cycle whose trials all fail ends STUCK."""


class ColonyWeightError(AntnavError):
    """A colony roulette total is 0 or not finite: the weights underflow or overflow."""


class EmptyRuns(AntnavError):
    """Aggregate requested over zero runs."""
