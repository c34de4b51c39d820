"""Central finite-difference Greek engine.

Turns any ``MarketEnvironment -> price`` function into a GreekSet; this
is the universal numerical oracle the analytic formulas are checked
against, and the engine of ``fxx.router``'s route for contracts without
closed-form Greeks, which picks bumps clear of the contract's barriers.
Each of the nine stencil points is a new ``MarketEnvironment`` built from
the bumped spot and volatility and the unbumped rates and maturity; its
validation counts as a failure at that point.
"""

from dataclasses import dataclass
from typing import Callable

from .contracts import GreekSet, MarketEnvironment
from .errors import NumericalError, PricingError
from .vanilla import _greek_set

Pricer = Callable[[MarketEnvironment], float]


@dataclass(frozen=True)
class FdBumps:
    """Relative spot bump and absolute volatility bump of the stencil."""

    dS_rel: float = 1e-4
    dSigma_abs: float = 1e-4


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
    """Second-order central differences on a 3x3 (spot, sigma) stencil.

    delta and vega are plain central differences, volga reuses the vega
    stencil as a second difference, vanna is the four-corner cross
    difference. A difference that leaves the double range is an
    arithmetic failure (``NumericalError``).
    """
    S, sig = env.spot, env.sigma
    h = bumps.dS_rel * S
    k = bumps.dSigma_abs
    p00 = _eval(pricer, env, S, sig)
    p_up = _eval(pricer, env, S + h, sig)
    p_dn = _eval(pricer, env, S - h, sig)
    p_vu = _eval(pricer, env, S, sig + k)
    p_vd = _eval(pricer, env, S, sig - k)
    p_uu = _eval(pricer, env, S + h, sig + k)
    p_ud = _eval(pricer, env, S + h, sig - k)
    p_du = _eval(pricer, env, S - h, sig + k)
    p_dd = _eval(pricer, env, S - h, sig - k)
    delta = (p_up - p_dn) / (2.0 * h)
    vega = (p_vu - p_vd) / (2.0 * k)
    volga = (p_vu - 2.0 * p00 + p_vd) / (k * k)
    vanna = (p_uu - p_ud - p_du + p_dd) / (4.0 * h * k)
    return _greek_set((p00, delta, vega, vanna, volga))
