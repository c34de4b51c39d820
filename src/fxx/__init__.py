"""FX vanilla and barrier option pricing with analytic Greeks, a
Vanna-Volga smile adjustment and a seeded Monte Carlo cross-check engine.

The closed forms and the Vanna-Volga adjustment are pure Python; only the
Monte Carlo engine needs numpy. The Monte Carlo and Vanna-Volga modules
load on first access to one of their names: the first keeps numpy out of
every other command, the second spares `price` and `greeks` loading a
module they never use, and the standard library's `statistics` that its
normal quantile imports.
"""

import importlib

from .contracts import (BarrierSide, DoubleBarrierSpec, GreekSet, KikoSpec,
                        KnockType, MarketEnvironment, OptionDirection,
                        SingleBarrierSpec, TableRow, VanillaSpec,
                        classify_single_barrier)
from .double_barrier import SeriesConfig, kiki_price, kiko_price, koko_price
from .errors import (ClassificationError, DomainError, IllConditionedError,
                     NumericalError, PreconditionError, PricingError,
                     TruncationWarning)
from .greeks_fd import FdBumps, fd_greeks
from .num_core import std_normal_cdf, std_normal_pdf
from .router import greeks_contract, kiki_greeks, kiko_greeks, koko_greeks, price_contract
from .single_barrier import (AbcdValues, abcd, greeks_abcd, greeks_single_barrier,
                             price_single_barrier)
from .vanilla import gk_greeks, gk_price

# public name -> submodule that defines it, imported on first access:
# mc_oracle for numpy, vanna_volga for its load time
_LAZY = {
    **dict.fromkeys(("McConfig", "McEstimate", "mc_price", "mc_price_batch"),
                    "mc_oracle"),
    **dict.fromkeys(("Pivot", "PivotQuotes", "PivotSet", "PivotSystem", "VVResult",
                     "atm_strike", "build_pivot_system", "build_pivots",
                     "inv_std_normal_cdf", "solve_delta_strike", "vv_price", "vv_weights"),
                    "vanna_volga"),
}

__version__ = "0.1.0"

__all__ = [
    "AbcdValues", "BarrierSide", "ClassificationError", "DomainError",
    "DoubleBarrierSpec", "FdBumps", "GreekSet", "IllConditionedError",
    "KikoSpec", "KnockType", "MarketEnvironment", "McConfig", "McEstimate",
    "NumericalError", "OptionDirection", "Pivot", "PivotQuotes", "PivotSet",
    "PivotSystem", "PreconditionError", "PricingError", "SeriesConfig",
    "SingleBarrierSpec", "TableRow", "TruncationWarning", "VVResult",
    "VanillaSpec", "abcd", "atm_strike", "build_pivot_system", "build_pivots",
    "classify_single_barrier", "fd_greeks", "gk_greeks",
    "gk_price", "greeks_abcd", "greeks_contract", "greeks_single_barrier",
    "inv_std_normal_cdf", "kiki_greeks", "kiki_price", "kiko_greeks",
    "kiko_price", "koko_greeks", "koko_price", "mc_price", "mc_price_batch",
    "price_contract", "price_single_barrier", "solve_delta_strike",
    "std_normal_cdf", "std_normal_pdf", "vv_price", "vv_weights",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
