import math

import mpmath
import numpy as np
import pytest

from fxx import DomainError, inv_std_normal_cdf, std_normal_cdf, std_normal_pdf

# Reference values computed with 40-digit quadrature of the density.
CDF_TABLE = {
    1.0: 0.8413447460685429,
    0.5: 0.6914624612740131,
    -1.5: 0.06680720126885807,
    2.0: 0.9772498680518208,
    -3.0: 0.0013498980316300946,
    0.1234: 0.5491048214630145,
    5.0: 0.9999997133484281,
    -5.0: 2.866515718791939e-07,
}


class TestPdf:
    def test_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-16)

    def test_symmetry(self):
        assert std_normal_pdf(1.0) == std_normal_pdf(-1.0)
        assert std_normal_pdf(2.7) == std_normal_pdf(-2.7)

    def test_reference_value(self):
        assert std_normal_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-15)

    def test_positive(self):
        for x in (-30.0, -5.0, 0.0, 5.0, 30.0):
            assert std_normal_pdf(x) >= 0.0
        assert std_normal_pdf(1.0) > 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            std_normal_pdf(bad)


class TestCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_tail_saturation(self):
        assert std_normal_cdf(8.0) > 1.0 - 1e-15

    def test_quadrature_table(self):
        for z, expected in CDF_TABLE.items():
            assert std_normal_cdf(z) == pytest.approx(expected, abs=1e-15)

    def test_monotone(self):
        grid = np.linspace(-9.0, 9.0, 2001)
        values = [std_normal_cdf(float(z)) for z in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_reflection_identity(self):
        for z in np.linspace(-8.0, 8.0, 1601):
            assert abs(std_normal_cdf(float(z)) + std_normal_cdf(float(-z)) - 1.0) <= 1e-15

    def test_ties_to_erf(self):
        for z in np.linspace(-7.0, 7.0, 1401):
            z = float(z)
            assert abs(math.erf(z / math.sqrt(2.0)) - (2.0 * std_normal_cdf(z) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            std_normal_cdf(bad)


class TestInverseCdf:
    def test_median(self):
        assert inv_std_normal_cdf(0.5) == 0.0

    def test_negation_symmetry(self):
        for p in (0.01, 0.1, 0.3, 0.45):
            assert inv_std_normal_cdf(p) == pytest.approx(-inv_std_normal_cdf(1.0 - p), abs=1e-13)
        # deep tails: rounding of 1-p alone moves the quantile by ~1e-11
        assert inv_std_normal_cdf(1e-6) == pytest.approx(-inv_std_normal_cdf(1.0 - 1e-6), abs=5e-11)

    def test_round_trip_probability(self):
        for p in np.concatenate([np.linspace(1e-10, 1 - 1e-10, 4001),
                                 [0.8413447460685429, 1e-12, 1 - 1e-12]]):
            p = float(p)
            assert abs(std_normal_cdf(inv_std_normal_cdf(p)) - p) <= 1e-12

    def test_reference_point(self):
        assert inv_std_normal_cdf(0.8413447460685429) == pytest.approx(1.0, abs=1e-12)

    def test_right_inverse_in_z_space(self):
        # Upper-tail probabilities near 1 carry only ~3e-7 of z-information
        # per ulp, so each half is round-tripped through the tail mass that
        # still resolves z.
        for z in np.linspace(0.0, 6.3, 2001):
            z = float(z)
            p = std_normal_cdf(-z)
            if p <= 1e-10:
                continue
            assert abs(inv_std_normal_cdf(p) - (-z)) <= 1e-9      # lower half
            assert abs(-inv_std_normal_cdf(p) - z) <= 1e-9        # mirrored upper half

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, float("nan")])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(DomainError):
            inv_std_normal_cdf(bad)

    def test_against_newton_oracle(self):
        # p from 1e-300 to 1 - 1e-16, each quantile against the root of
        # N(x) = p that Newton's method finds at 60 digits from it
        grid = np.concatenate([10.0 ** np.linspace(-300.0, -1.0, 300),
                               np.linspace(0.1, 0.9, 81),
                               1.0 - 10.0 ** -np.linspace(1.0, 16.0, 121)])
        mp = mpmath.mp
        with mpmath.workdps(60):
            for p in map(float, grid):
                x = inv_std_normal_cdf(p)
                root, target = mp.mpf(x), mp.mpf(p)
                for _ in range(50):
                    step = (mp.ncdf(root) - target) / mp.npdf(root)
                    root -= step
                    if abs(step) < mp.mpf(10) ** -45 * max(1, abs(root)):
                        break
                else:
                    raise AssertionError(f"the oracle did not converge at p={p!r}")
                assert abs(x - float(root)) <= 2e-15 * max(1.0, abs(x)), p
