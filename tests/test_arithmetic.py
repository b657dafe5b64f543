import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diskcal.arithmetic import (
    best_approx_check,
    classify,
    continued_fraction,
    from_quotients,
    synthetic_non_bruno,
    synthetic_super_liouville,
)
from diskcal.errors import DepthUnreliable

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def fib(n):
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestExpansion:
    def test_golden_ratio_all_ones_fibonacci_denominators(self):
        cf = continued_fraction(GOLDEN, 26)
        assert cf.a[0] == 0
        assert all(a == 1 for a in cf.a[1:])
        for n in range(26):
            assert cf.q[n] == fib(n)

    def test_sqrt2_minus_one_all_twos(self):
        cf = continued_fraction(math.sqrt(2.0) - 1.0, 20)
        assert cf.a[0] == 0
        assert all(a == 2 for a in cf.a[1:])

    def test_rational_terminates(self):
        with pytest.warns(DepthUnreliable):
            cf = continued_fraction(3.0 / 7.0, 10)
        assert cf.terminated
        assert cf.a == [0, 2, 3]
        assert cf.p[-1] == 3 and cf.q[-1] == 7

    def test_depth_warning_past_horizon(self):
        with pytest.warns(DepthUnreliable):
            cf = continued_fraction(GOLDEN, 60)
        assert not all(cf.reliable)

    def test_convergent_recurrence_and_coprimality(self):
        cf = continued_fraction(GOLDEN, 25)
        for n in range(2, cf.depth):
            assert cf.p[n] == cf.a[n] * cf.p[n - 1] + cf.p[n - 2]
            assert cf.q[n] == cf.a[n] * cf.q[n - 1] + cf.q[n - 2]
            assert math.gcd(cf.p[n], cf.q[n]) == 1
            assert cf.q[n] > cf.q[n - 1]

    @given(st.floats(0.0001, 0.9999))
    def test_convergents_within_inverse_square(self, alpha):
        cf = continued_fraction(alpha, 12)
        target = Fraction(alpha)
        for n in range(cf.depth - 1):
            if cf.reliable[n] and cf.reliable[n + 1]:
                assert abs(target - cf.convergent(n)) < Fraction(1, cf.q[n] ** 2)

    @given(st.floats(0.0001, 0.9999))
    def test_reconstruction(self, alpha):
        cf = continued_fraction(alpha, 20)
        slack = Fraction(1, 10**9) if cf.snapped else Fraction(0)
        assert abs(Fraction(alpha) - cf.value()) <= Fraction(1, cf.q[-1] ** 2) + slack

    def test_from_quotients_validation(self):
        with pytest.raises(ValueError):
            from_quotients([0, 1, 0, 2])
        cf = from_quotients([0, 1, 1, 1, 1])
        assert cf.q == [1, 1, 2, 3, 5]


class TestBestApprox:
    def test_golden_two_sided_inequality(self):
        cf = continued_fraction(GOLDEN, 16)
        checks = best_approx_check(cf, GOLDEN)
        assert checks[-1] is None
        assert all(checks[:-1])

    def test_sqrt2_two_sided_inequality(self):
        alpha = math.sqrt(2.0) - 1.0
        cf = continued_fraction(alpha, 16)
        assert all(best_approx_check(cf, alpha)[:-1])

    def test_rational_final_convergent_flagged(self):
        with pytest.warns(DepthUnreliable):
            cf = continued_fraction(3.0 / 7.0, 10)
        checks = best_approx_check(cf, 3.0 / 7.0)
        # the snapped terminal digit and its predecessor are flagged, the rest hold
        assert checks[-1] is None
        decided = [c for c in checks if c is not None]
        assert decided and all(decided)


class TestClassification:
    def test_golden_is_bruno_like(self):
        diag = classify(continued_fraction(GOLDEN, 25))
        assert diag.labels == ["bruno-like"]
        # ratios decay geometrically, running sum settles
        assert diag.ratios[-1] < 1e-3
        assert diag.running_sum[-1] - diag.running_sum[-4] < 2e-3

    def test_constant_twos_is_bruno_like(self):
        diag = classify(continued_fraction(math.sqrt(2.0) - 1.0, 25))
        assert diag.labels == ["bruno-like"]

    def test_synthetic_non_bruno(self):
        cf = synthetic_non_bruno(12)
        diag = classify(cf)
        assert "non-bruno-like" in diag.labels
        # the growth series keeps receiving mass of order log 2
        assert min(diag.ratios[2:]) > 0.3

    def test_synthetic_super_liouville(self):
        diag = classify(synthetic_super_liouville(10))
        assert "super-liouville-like" in diag.labels
        assert "non-bruno-like" in diag.labels

    def test_caveat_present(self):
        diag = classify(continued_fraction(GOLDEN, 10))
        assert "finite" in diag.caveat

    def test_too_shallow_rejected(self):
        with pytest.raises(ValueError):
            classify(from_quotients([0, 2]))


class TestBigIntegers:
    def test_astronomical_denominators_never_wrap(self):
        cf = synthetic_non_bruno(10)
        assert cf.q[-1] > 10**1000  # exact big-int arithmetic, no overflow
        diag = classify(cf)
        assert np.all(np.isfinite(diag.ratios))

    @pytest.mark.parametrize("tower, bits", [
        (synthetic_non_bruno, [0, 2, 3, 10, 4611]),
        (synthetic_super_liouville, [0, 2, 9, 8209]),
    ], ids=["non_bruno", "super_liouville"])
    def test_tower_bit_lengths_at_depth_8(self, tower, bits):
        assert [a.bit_length() for a in tower(8).a] == bits

    def test_depth_truncates_at_representability_frontier(self):
        # the next quotient 2^{q_n} would need ~10^1391 bits; depth clips there
        assert synthetic_non_bruno(40).depth == synthetic_non_bruno(5).depth
