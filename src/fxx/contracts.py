"""Market state, option contracts, barrier classification and Greek bundles.

All types are immutable values; barrier specs validate their static
invariants at construction and their spot-dependent ones (barrier not yet
breached) through ``validate_against``.
"""

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, PreconditionError


class OptionDirection(enum.IntEnum):
    """Call/put flag whose numeric value is the payoff sign."""

    CALL = 1
    PUT = -1


class BarrierSide(enum.IntEnum):
    """Barrier placement flag; +1 below spot, -1 above spot."""

    LOWER = 1
    UPPER = -1


class KnockType(str, enum.Enum):
    IN = "in"
    OUT = "out"


def _positive(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class MarketEnvironment:
    """Flat FX market: spot, domestic/foreign rates, volatility, maturity.

    Rates are continuously compounded per year and may be negative;
    ``T`` is the time to maturity in years.
    """

    spot: float
    r_d: float
    r_f: float
    sigma: float
    T: float

    def __post_init__(self):
        _positive(self.spot, "spot")
        _finite(self.r_d, "r_d")
        _finite(self.r_f, "r_f")
        _positive(self.sigma, "sigma")
        _positive(self.T, "T")

    @property
    def drift(self) -> float:
        return self.r_d - self.r_f


@dataclass(frozen=True)
class VanillaSpec:
    direction: OptionDirection
    strike: float

    def __post_init__(self):
        _positive(self.strike, "strike")

    def validate_against(self, env: MarketEnvironment) -> None:
        pass


@dataclass(frozen=True)
class SingleBarrierSpec:
    direction: OptionDirection
    strike: float
    barrier: float
    side: BarrierSide
    knock: KnockType

    def __post_init__(self):
        _positive(self.strike, "strike")
        _positive(self.barrier, "barrier")

    def validate_against(self, env: MarketEnvironment) -> None:
        _require_unbreached(env.spot, self.barrier, self.side)


@dataclass(frozen=True)
class DoubleBarrierSpec:
    """Two-sided barrier contract; ``knock`` applies to both barriers."""

    direction: OptionDirection
    strike: float
    lower: float
    upper: float
    knock: KnockType

    def __post_init__(self):
        _positive(self.strike, "strike")
        _positive(self.lower, "lower")
        _positive(self.upper, "upper")
        if self.lower >= self.upper:
            raise DomainError(
                f"lower barrier must lie below upper barrier, got {self.lower} >= {self.upper}")

    def validate_against(self, env: MarketEnvironment) -> None:
        if not (self.lower < env.spot < self.upper):
            raise PreconditionError(
                f"spot {env.spot} is not strictly inside the barrier corridor "
                f"({self.lower}, {self.upper})")


@dataclass(frozen=True)
class KikoSpec:
    """One knock-in barrier plus one knock-out barrier."""

    direction: OptionDirection
    strike: float
    barrier_in: float
    side_in: BarrierSide
    barrier_out: float
    side_out: BarrierSide

    def __post_init__(self):
        _positive(self.strike, "strike")
        _positive(self.barrier_in, "barrier_in")
        _positive(self.barrier_out, "barrier_out")
        if self.barrier_in == self.barrier_out:
            raise DomainError("knock-in and knock-out barriers must differ")

    def validate_against(self, env: MarketEnvironment) -> None:
        _require_unbreached(env.spot, self.barrier_in, self.side_in, "knock-in")
        _require_unbreached(env.spot, self.barrier_out, self.side_out, "knock-out")


def _require_unbreached(spot: float, barrier: float, side: BarrierSide,
                        label: str = "") -> None:
    tag = f"{label} " if label else ""
    if side == BarrierSide.UPPER and spot >= barrier:
        raise PreconditionError(
            f"{tag}upper barrier {barrier} already breached by spot {spot}")
    if side == BarrierSide.LOWER and spot <= barrier:
        raise PreconditionError(
            f"{tag}lower barrier {barrier} already breached by spot {spot}")


@dataclass(frozen=True)
class GreekSet:
    """Value plus first/second-order volatility sensitivities of one contract."""

    value: float
    delta: float
    vega: float
    vanna: float
    volga: float

    def __post_init__(self):
        for name in ("value", "delta", "vega", "vanna", "volga"):
            _finite(getattr(self, name), name)

    def __add__(self, other: "GreekSet") -> "GreekSet":
        return GreekSet(self.value + other.value, self.delta + other.delta,
                        self.vega + other.vega, self.vanna + other.vanna,
                        self.volga + other.volga)

    def __sub__(self, other: "GreekSet") -> "GreekSet":
        return GreekSet(self.value - other.value, self.delta - other.delta,
                        self.vega - other.vega, self.vanna - other.vanna,
                        self.volga - other.volga)

    def __mul__(self, scale: float) -> "GreekSet":
        return GreekSet(scale * self.value, scale * self.delta, scale * self.vega,
                        scale * self.vanna, scale * self.volga)

    __rmul__ = __mul__

    def as_tuple(self) -> tuple:
        return (self.value, self.delta, self.vega, self.vanna, self.volga)


@dataclass(frozen=True)
class TableRow:
    """One row of the single-barrier pricing table.

    ``coefficients`` are the signed weights of the decomposition
    parameters (A, B, C, D) whose combination prices the row. ``combine``
    sums the C and D terms first: at K = B they are equal to the bit, so a
    row that weighs them -1 and +1 is its B term exactly, which is the
    vanilla, however large C and D are.
    """

    name: str
    rule_id: str
    phi: int
    eta: int
    reverse: bool
    coefficients: tuple

    def combine(self, a: float, b: float, c: float, d: float) -> float:
        ca, cb, cc, cd = self.coefficients
        return (cc * c + cd * d) + (ca * a + cb * b)


# (phi, eta, knock, strike_above_barrier) -> (name, coefficients)
_TABLE_ROWS = {
    (1, -1, KnockType.IN, True): ("Up and In Call", (1, 0, 0, 0)),
    (1, 1, KnockType.IN, True): ("Down and In Call", (0, 0, 1, 0)),
    (1, -1, KnockType.OUT, True): ("Up and Out Call", (0, 0, 0, 0)),
    (1, 1, KnockType.OUT, True): ("Down and Out Call", (1, 0, -1, 0)),
    (1, -1, KnockType.IN, False): ("Reverse Up and In Call", (0, 1, -1, 1)),
    (1, 1, KnockType.IN, False): ("Reverse Down and In Call", (1, -1, 0, 1)),
    (1, -1, KnockType.OUT, False): ("Reverse Up and Out Call", (1, -1, 1, -1)),
    (1, 1, KnockType.OUT, False): ("Reverse Down and Out Call", (0, 1, 0, -1)),
    (-1, -1, KnockType.IN, False): ("Up and In Put", (0, 0, 1, 0)),
    (-1, 1, KnockType.IN, False): ("Down and In Put", (1, 0, 0, 0)),
    (-1, -1, KnockType.OUT, False): ("Up and Out Put", (1, 0, -1, 0)),
    (-1, 1, KnockType.OUT, False): ("Down and Out Put", (0, 0, 0, 0)),
    (-1, -1, KnockType.IN, True): ("Reverse Up and In Put", (1, -1, 0, 1)),
    (-1, 1, KnockType.IN, True): ("Reverse Down and In Put", (0, 1, -1, 1)),
    (-1, -1, KnockType.OUT, True): ("Reverse Up and Out Put", (0, 1, 0, -1)),
    (-1, 1, KnockType.OUT, True): ("Reverse Down and Out Put", (1, -1, 1, -1)),
}


def _table_row(key: tuple, name: str, coefficients: tuple) -> TableRow:
    phi, eta, knock, _strike_above = key
    reverse = name.startswith("Reverse")
    side_tag = "U" if eta == BarrierSide.UPPER else "D"
    knock_tag = "I" if knock == KnockType.IN else "O"
    kind = "call" if phi == 1 else "put"
    rule_id = f"{side_tag}{knock_tag}-{kind}-{'reverse' if reverse else 'standard'}"
    return TableRow(name=name, rule_id=rule_id, phi=phi, eta=eta,
                    reverse=reverse, coefficients=coefficients)


_TABLE = {key: _table_row(key, *row) for key, row in _TABLE_ROWS.items()}


def classify_single_barrier(spec: SingleBarrierSpec) -> TableRow:
    """Map a single-barrier spec to its unique pricing-table row.

    The strike/barrier boundary follows the table conventions exactly:
    standard rows require ``K > B``, reverse rows take ``K <= B`` for
    calls and the mirrored inequalities for puts. The 16 rows are built
    once, at import.
    """
    return _TABLE[spec.direction, spec.side, spec.knock, spec.strike > spec.barrier]
