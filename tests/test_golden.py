"""The library's outputs on the fingerprinted draws equal the committed
ones in tests/golden/library.json (regenerate with
``python tests/golden/regen.py``).

On the platform that wrote the file (same Python, libc and numpy) every
number must be bit-identical and every message equal. Elsewhere another
libm may round ``exp`` or ``erfc`` differently, so numbers may differ by
up to 4 ulps and errors must keep their type."""

import json
import math

from golden import regen

ULPS = 4


def _close(got, want) -> bool:
    """Equal within ULPS ulps for numbers, recursively; errors by type."""
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return abs(got - want) <= ULPS * math.ulp(max(abs(got), abs(want)))
    if isinstance(want, dict):
        if not (isinstance(got, dict) and got.keys() == want.keys()):
            return False
        if "error" in want:  # a PricingError: its type, not its message
            return got["error"].split(":")[0] == want["error"].split(":")[0]
        return all(_close(got[key], want[key]) for key in want)
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w) for g, w in zip(got, want)))
    if isinstance(want, str) and want.startswith("first omitted series terms"):
        return isinstance(got, str) and got.split(" contribute ")[0] == want.split(" contribute ")[0]
    return got == want


def test_library_fingerprints():
    golden = json.loads(regen.GOLDEN.read_text())
    cases = regen.draws()
    assert regen.cases_digest(cases) == golden["cases_sha256"], \
        "the fingerprint draws changed; regenerate tests/golden/library.json"
    exact = regen.platform_facts() == golden["platform"]
    print(f"library fingerprints: {'exact' if exact else f'within {ULPS} ulps'} comparison "
          f"({regen.platform_facts()} here, {golden['platform']} in the file)")
    moved = []
    for cid, env, spec in cases:
        got = json.loads(json.dumps(regen.record(env, spec)))
        want = golden["records"][cid]
        if not (got == want if exact else _close(got, want)):
            moved.append(cid)
    assert not moved, f"{len(moved)} fingerprints moved: {moved[:10]}"
