"""The public surface of ``fxx``: the names it exports, the names the
benchmark imports from it, and the console script ``pyproject.toml``
installs. A removal that would break the benchmark or the installed
command fails here."""

import ast
import importlib
from pathlib import Path

import pytest

import fxx

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BarrierSide", "ClassificationError", "DomainError", "DoubleBarrierSpec",
    "FdBumps", "GreekSet", "IllConditionedError", "KikoSpec", "KnockType",
    "MarketEnvironment", "McConfig", "McEstimate", "NumericalError",
    "OptionDirection", "PivotQuotes", "PreconditionError", "PricingError",
    "SeriesConfig", "SingleBarrierSpec", "TruncationWarning", "VVResult",
    "VanillaSpec", "build_pivot_system", "build_pivots",
    "classify_single_barrier", "fd_greeks", "gk_greeks", "gk_price",
    "greeks_contract", "greeks_single_barrier", "kiki_greeks", "kiki_price",
    "kiko_greeks", "kiko_price", "koko_greeks", "koko_price", "mc_price",
    "mc_price_batch", "price_contract", "price_single_barrier",
    "std_normal_cdf", "vv_price", "vv_weights",
]


def _fxx_imports(path: Path) -> set:
    """(module, name) for every ``from fxx... import name`` in ``path``, and
    (module, None) for every ``import fxx...``, read without importing it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                (node.module == "fxx" or node.module.startswith("fxx.")):
            found.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names
                         if alias.name == "fxx" or alias.name.startswith("fxx."))
    return found


def _resolves(module: str, name) -> bool:
    """Whether the import statement would succeed: a name of the module, or
    one of its submodules, as ``from package import submodule`` allows."""
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_public_names():
    assert sorted(fxx.__all__) == PUBLIC


def test_benchmark_imports_resolve():
    imports = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        imports |= _fxx_imports(path)
    assert imports  # the benchmark is read, not skipped
    assert sorted((imp for imp in imports if not _resolves(*imp)), key=str) == []


def test_console_script_resolves():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"fxx": "fxx.cli:main"}
    module, _, attr = scripts["fxx"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
