import math

import pytest

from fxx import (BarrierSide, DomainError, DoubleBarrierSpec, GreekSet, KikoSpec,
                 KnockType, MarketEnvironment, OptionDirection, PreconditionError,
                 SingleBarrierSpec, classify_single_barrier)

CALL, PUT = OptionDirection.CALL, OptionDirection.PUT
UP, LOW = BarrierSide.UPPER, BarrierSide.LOWER
IN, OUT = KnockType.IN, KnockType.OUT

ENV = MarketEnvironment(spot=100.0, r_d=0.03, r_f=0.01, sigma=0.2, T=1.0)


class TestMarketEnvironment:
    @pytest.mark.parametrize("kwargs", [
        dict(spot=-1.0), dict(spot=0.0), dict(sigma=0.0), dict(sigma=-0.1),
        dict(T=0.0), dict(T=-1.0), dict(r_d=float("nan")), dict(r_f=float("inf")),
        dict(spot=float("inf")),
    ])
    def test_rejects_invalid(self, kwargs):
        base = dict(spot=100.0, r_d=0.03, r_f=0.01, sigma=0.2, T=1.0)
        base.update(kwargs)
        with pytest.raises(DomainError):
            MarketEnvironment(**base)

    def test_negative_rates_allowed(self):
        env = MarketEnvironment(spot=1.1, r_d=-0.005, r_f=-0.012, sigma=0.08, T=0.5)
        assert env.drift == pytest.approx(0.007)


# Full pricing table: (direction, side, knock, strike vs barrier) -> row.
TABLE_CASES = [
    (CALL, UP, IN, "above", "Up and In Call", (1, 0, 0, 0)),
    (CALL, LOW, IN, "above", "Down and In Call", (0, 0, 1, 0)),
    (CALL, UP, OUT, "above", "Up and Out Call", (0, 0, 0, 0)),
    (CALL, LOW, OUT, "above", "Down and Out Call", (1, 0, -1, 0)),
    (CALL, UP, IN, "below", "Reverse Up and In Call", (0, 1, -1, 1)),
    (CALL, LOW, IN, "below", "Reverse Down and In Call", (1, -1, 0, 1)),
    (CALL, UP, OUT, "below", "Reverse Up and Out Call", (1, -1, 1, -1)),
    (CALL, LOW, OUT, "below", "Reverse Down and Out Call", (0, 1, 0, -1)),
    (PUT, UP, IN, "below", "Up and In Put", (0, 0, 1, 0)),
    (PUT, LOW, IN, "below", "Down and In Put", (1, 0, 0, 0)),
    (PUT, UP, OUT, "below", "Up and Out Put", (1, 0, -1, 0)),
    (PUT, LOW, OUT, "below", "Down and Out Put", (0, 0, 0, 0)),
    (PUT, UP, IN, "above", "Reverse Up and In Put", (1, -1, 0, 1)),
    (PUT, LOW, IN, "above", "Reverse Down and In Put", (0, 1, -1, 1)),
    (PUT, UP, OUT, "above", "Reverse Up and Out Put", (0, 1, 0, -1)),
    (PUT, LOW, OUT, "above", "Reverse Down and Out Put", (1, -1, 1, -1)),
]


def _spec(direction, side, knock, strike_rel):
    barrier = 100.0
    strike = 110.0 if strike_rel == "above" else 90.0
    return SingleBarrierSpec(direction, strike, barrier, side, knock)


class TestClassification:
    @pytest.mark.parametrize("direction,side,knock,rel,name,coeffs", TABLE_CASES)
    def test_all_sixteen_rows(self, direction, side, knock, rel, name, coeffs):
        row = classify_single_barrier(_spec(direction, side, knock, rel))
        assert row.name == name
        assert row.coefficients == coeffs
        assert row.phi == int(direction)
        assert row.eta == int(side)
        assert row.reverse == name.startswith("Reverse")

    def test_strike_equal_barrier_goes_to_le_rows(self):
        # the printed boundary convention: standard rows need K > B
        spec = SingleBarrierSpec(CALL, 100.0, 100.0, UP, OUT)
        assert classify_single_barrier(spec).name == "Reverse Up and Out Call"
        spec = SingleBarrierSpec(PUT, 100.0, 100.0, LOW, IN)
        assert classify_single_barrier(spec).name == "Down and In Put"

    def test_classification_total_and_deterministic(self):
        seen = set()
        for direction in (CALL, PUT):
            for side in (UP, LOW):
                for knock in (IN, OUT):
                    for rel in ("above", "below", "equal"):
                        strike = {"above": 110.0, "below": 90.0, "equal": 100.0}[rel]
                        spec = SingleBarrierSpec(direction, strike, 100.0, side, knock)
                        row = classify_single_barrier(spec)
                        again = classify_single_barrier(spec)
                        assert row == again
                        seen.add((row.name, strike > 100.0))
        assert len({name for name, _ in seen}) == 16

    def test_recipe_level_in_out_parity(self):
        for direction in (CALL, PUT):
            for side in (UP, LOW):
                for rel in ("above", "below"):
                    row_in = classify_single_barrier(_spec(direction, side, IN, rel))
                    row_out = classify_single_barrier(_spec(direction, side, OUT, rel))
                    summed = tuple(a + b for a, b in
                                   zip(row_in.coefficients, row_out.coefficients))
                    assert summed == (1, 0, 0, 0)

    def test_rule_ids(self):
        assert classify_single_barrier(_spec(CALL, UP, OUT, "above")).rule_id == \
            "UO-call-standard"
        assert classify_single_barrier(_spec(PUT, LOW, OUT, "above")).rule_id == \
            "DO-put-reverse"


# The table as it stood when each call formatted its row:
# (direction, side, knock, strike above barrier) -> (name, rule id, reverse, coefficients).
TABLE_ROWS = {
    (CALL, UP, IN, True): ("Up and In Call", "UI-call-standard", False, (1, 0, 0, 0)),
    (CALL, LOW, IN, True): ("Down and In Call", "DI-call-standard", False, (0, 0, 1, 0)),
    (CALL, UP, OUT, True): ("Up and Out Call", "UO-call-standard", False, (0, 0, 0, 0)),
    (CALL, LOW, OUT, True): ("Down and Out Call", "DO-call-standard", False, (1, 0, -1, 0)),
    (CALL, UP, IN, False): ("Reverse Up and In Call", "UI-call-reverse", True, (0, 1, -1, 1)),
    (CALL, LOW, IN, False): ("Reverse Down and In Call", "DI-call-reverse", True, (1, -1, 0, 1)),
    (CALL, UP, OUT, False): ("Reverse Up and Out Call", "UO-call-reverse", True, (1, -1, 1, -1)),
    (CALL, LOW, OUT, False): ("Reverse Down and Out Call", "DO-call-reverse", True,
                              (0, 1, 0, -1)),
    (PUT, UP, IN, False): ("Up and In Put", "UI-put-standard", False, (0, 0, 1, 0)),
    (PUT, LOW, IN, False): ("Down and In Put", "DI-put-standard", False, (1, 0, 0, 0)),
    (PUT, UP, OUT, False): ("Up and Out Put", "UO-put-standard", False, (1, 0, -1, 0)),
    (PUT, LOW, OUT, False): ("Down and Out Put", "DO-put-standard", False, (0, 0, 0, 0)),
    (PUT, UP, IN, True): ("Reverse Up and In Put", "UI-put-reverse", True, (1, -1, 0, 1)),
    (PUT, LOW, IN, True): ("Reverse Down and In Put", "DI-put-reverse", True, (0, 1, -1, 1)),
    (PUT, UP, OUT, True): ("Reverse Up and Out Put", "UO-put-reverse", True, (0, 1, 0, -1)),
    (PUT, LOW, OUT, True): ("Reverse Down and Out Put", "DO-put-reverse", True, (1, -1, 1, -1)),
}


def test_prebuilt_table_matches_formatted_rows():
    rule_ids = set()
    for (direction, side, knock, above), expected in TABLE_ROWS.items():
        row = classify_single_barrier(_spec(direction, side, knock,
                                            "above" if above else "below"))
        assert (row.name, row.rule_id, row.reverse, row.coefficients) == expected
        rule_ids.add(row.rule_id)
    assert len(TABLE_ROWS) == 16
    assert len(rule_ids) == 16


class TestSpecValidation:
    def test_single_barrier_breach(self):
        SingleBarrierSpec(CALL, 100.0, 120.0, UP, OUT).validate_against(ENV)
        with pytest.raises(PreconditionError):
            SingleBarrierSpec(CALL, 100.0, 90.0, UP, OUT).validate_against(ENV)
        with pytest.raises(PreconditionError):
            SingleBarrierSpec(CALL, 100.0, 110.0, LOW, OUT).validate_against(ENV)
        with pytest.raises(PreconditionError):
            # touching counts as breached
            SingleBarrierSpec(CALL, 100.0, 100.0, UP, OUT).validate_against(ENV)

    def test_single_barrier_positive_fields(self):
        with pytest.raises(DomainError):
            SingleBarrierSpec(CALL, -1.0, 100.0, UP, OUT)
        with pytest.raises(DomainError):
            SingleBarrierSpec(CALL, 100.0, 0.0, UP, OUT)

    def test_double_barrier_ordering(self):
        with pytest.raises(DomainError):
            DoubleBarrierSpec(CALL, 100.0, 115.0, 85.0, OUT)
        with pytest.raises(DomainError):
            DoubleBarrierSpec(CALL, 100.0, 90.0, 90.0, OUT)

    def test_double_barrier_spot_inside(self):
        DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, OUT).validate_against(ENV)
        with pytest.raises(PreconditionError):
            DoubleBarrierSpec(CALL, 100.0, 105.0, 130.0, OUT).validate_against(ENV)

    def test_kiko_distinct_barriers(self):
        with pytest.raises(DomainError):
            KikoSpec(PUT, 105.0, 90.0, LOW, 90.0, LOW)

    def test_kiko_breach(self):
        KikoSpec(PUT, 105.0, 92.0, LOW, 85.0, LOW).validate_against(ENV)
        with pytest.raises(PreconditionError):
            KikoSpec(PUT, 105.0, 102.0, LOW, 85.0, LOW).validate_against(ENV)
        with pytest.raises(PreconditionError):
            KikoSpec(PUT, 105.0, 92.0, LOW, 99.0, UP).validate_against(ENV)


class TestGreekSet:
    def test_arithmetic(self):
        a = GreekSet(1.0, 2.0, 3.0, 4.0, 5.0)
        b = GreekSet(0.5, 0.5, 0.5, 0.5, 0.5)
        assert (a + b).as_tuple() == (1.5, 2.5, 3.5, 4.5, 5.5)
        assert (a - b).as_tuple() == (0.5, 1.5, 2.5, 3.5, 4.5)
        assert (2 * a).as_tuple() == (2.0, 4.0, 6.0, 8.0, 10.0)
        assert (a * 2).as_tuple() == (2 * a).as_tuple()

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            GreekSet(1.0, math.nan, 0.0, 0.0, 0.0)
