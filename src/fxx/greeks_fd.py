"""Central finite-difference Greek engine.

Turns any ``MarketEnvironment -> price`` function into a GreekSet; this
is the universal numerical oracle the analytic formulas are checked
against, and the engine of ``fxx.router``'s route for contracts without
closed-form Greeks, which picks bumps clear of the contract's barriers.
The stencil has seven points: (S, sigma), (S, sigma +- k) and the four
corners (S +- h, sigma +- k). Delta comes from the corners, so the spot
bump is never made at the unbumped volatility; a pricer that fails only
at (S +- h, sigma) is not reached. Each point is a new
``MarketEnvironment`` built from the bumped spot and volatility and the
unbumped rates and maturity; its validation counts as a failure at that
point.
"""

from dataclasses import dataclass
from typing import Callable

from .contracts import GreekSet, MarketEnvironment, _positive
from .errors import NumericalError, PricingError
from .vanilla import _greek_set

Pricer = Callable[[MarketEnvironment], float]


@dataclass(frozen=True)
class FdBumps:
    """Relative spot bump and absolute volatility bump of the stencil; each
    must be a positive finite number (``DomainError`` otherwise)."""

    dS_rel: float = 1e-4
    dSigma_abs: float = 1e-4

    def __post_init__(self):
        _positive(self.dS_rel, "dS_rel")
        _positive(self.dSigma_abs, "dSigma_abs")


class StencilEvaluationError(PricingError):
    """The pricer failed at one of the bump points for a reason other than
    lost numerical validity."""


def _eval(pricer: Pricer, env: MarketEnvironment, spot: float, sigma: float) -> float:
    try:
        return pricer(MarketEnvironment(spot, env.r_d, env.r_f, sigma, env.T))
    except NumericalError:
        raise  # the arithmetic failed, not the stencil: keep the type (exit 4)
    except Exception as exc:
        raise StencilEvaluationError(
            f"pricer failed at stencil point spot={spot!r}, sigma={sigma!r}: {exc}"
        ) from exc


def fd_greeks(pricer: Pricer, env: MarketEnvironment,
              bumps: FdBumps = FdBumps()) -> GreekSet:
    """Second-order central differences on a seven-point (spot, sigma)
    stencil: the centre, the two volatility bumps and the four corners.

    vega is the central difference and volga the second difference of
    the volatility bumps, vanna the four-corner cross difference. delta
    is the mean of the central spot differences at sigma + k and
    sigma - k, ((p_uu - p_du) + (p_ud - p_dd)) / (4h); averaging over
    the volatility bump adds (k^2 / 2) d3V/dS dsigma^2 to the usual
    (h^2 / 6) d3V/dS3, so its error is O(h^2 + k^2). A difference that
    leaves the double range, or a bump product that underflows to zero, is
    an arithmetic failure (``NumericalError``).
    """
    S, sig = env.spot, env.sigma
    h = bumps.dS_rel * S
    k = bumps.dSigma_abs
    p00 = _eval(pricer, env, S, sig)
    p_vu = _eval(pricer, env, S, sig + k)
    p_vd = _eval(pricer, env, S, sig - k)
    p_uu = _eval(pricer, env, S + h, sig + k)
    p_ud = _eval(pricer, env, S + h, sig - k)
    p_du = _eval(pricer, env, S - h, sig + k)
    p_dd = _eval(pricer, env, S - h, sig - k)
    try:
        delta = ((p_uu - p_du) + (p_ud - p_dd)) / (4.0 * h)
        vega = (p_vu - p_vd) / (2.0 * k)
        volga = (p_vu - 2.0 * p00 + p_vd) / (k * k)
        vanna = (p_uu - p_ud - p_du + p_dd) / (4.0 * h * k)
    except ZeroDivisionError:
        raise NumericalError(f"stencil bumps h={h!r}, k={k!r}: a difference's "
                             "denominator underflows to zero") from None
    return _greek_set((p00, delta, vega, vanna, volga))
