import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diskcal.calabi import cal1
from diskcal.circle import (
    DEFAULT_LIFT_SAMPLES,
    LiftedCircleMap,
    invariant_measure,
    lift_from_isotopy,
    rotation_number,
)
from diskcal.errors import StepTooCoarse
from diskcal.zoo import (
    boundary_shear_conjugator,
    bump,
    compose,
    conjugate,
    conjugated_rotation,
    off_center_conjugator,
    quadratic_twist,
    rotation,
)

from conftest import composed, encloses, sampled, translation

GOLDEN = 0.6180339887498949


def sin_lift(a, b, n=DEFAULT_LIFT_SAMPLES):
    """The lift of ``x -> x + a + b sin(2 pi x)``, sampled at n points."""
    return sampled(lambda x: a + b * np.sin(2 * np.pi * x), n)


class TestLifts:
    def test_identity_isotopy(self):
        lift = lift_from_isotopy(rotation(0.0))
        xs = np.linspace(0, 1, 17)
        assert np.max(np.abs(lift(xs) - xs)) < 1e-12

    def test_rigid_rotation(self):
        lift = lift_from_isotopy(rotation(0.3))
        xs = np.linspace(0, 1, 17)
        assert np.max(np.abs(lift(xs) - xs - 0.3)) < 1e-12

    def test_twist_boundary_is_identity(self):
        # g(s) = 0.3 (1-s)^2 has g'(1) = 0: zero boundary angular speed
        lift = quadratic_twist(0.3).boundary_lift()
        assert np.max(np.abs(lift.delta(np.linspace(0, 1, 50)))) < 1e-12

    def test_commutation_to_rounding(self):
        # enforced by the periodic representation, up to one ulp of the
        # argument reduction x -> x mod 1
        lift = sin_lift(0.05, 0.02)
        xs = np.linspace(-2, 2, 41)
        assert np.max(np.abs(lift(xs + 1.0) - (lift(xs) + 1.0))) < 5e-16

    def test_monotone(self):
        # the increments of phi over a grid are positive for a lift of a homeomorphism
        xs = np.linspace(0.0, 1.0, 4097)
        assert np.min(np.diff(sin_lift(0.05, 0.1)(xs))) > 0.0
        lift = lift_from_isotopy(conjugate(rotation(0.5), boundary_shear_conjugator(0.3), 0.4))
        assert np.min(np.diff(lift(xs))) > 0.0

    def test_an_unresolved_boundary_winding_raises(self, monkeypatch):
        # position_windings raises on a winding reported unresolved, and the
        # lift and cal1's boundary displacement pass it on
        bundle = quadratic_twist(0.3)
        mu = invariant_measure(bundle.boundary_lift())
        windings = type(bundle).windings
        monkeypatch.setattr(type(bundle), "windings",
                            lambda iso, x, y: (windings(iso, x, y)[0], np.full(x.size, y is not None)))
        with pytest.raises(StepTooCoarse):
            bundle.boundary_lift()
        with pytest.raises(StepTooCoarse):
            cal1(bundle, mu=mu, grid=(32, 64), richardson=False)


class TestRotationNumber:
    def test_identity(self):
        est = rotation_number(translation(0.0), n=100)
        assert est.value == 0.0
        assert est.rigorous_halfwidth <= 0.01

    # closed forms: twist and bump fix S^1 (rho = 0), the README map adds a
    # rotation by 0.2, and a conjugated rotation keeps its angle
    @pytest.mark.parametrize("build, rho", [
        (lambda: quadratic_twist(0.3), 0.0),
        (lambda: bump(4), 0.0),
        (lambda: compose(quadratic_twist(0.3), rotation(0.2)), 0.2),
        (lambda: conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5), GOLDEN),
    ], ids=["twist", "bump4", "readme", "conjugated_golden"])
    def test_rigid_boundary_lifts_stop_at_the_displacement_range(self, build, rho):
        est = rotation_number(build().boundary_lift())
        assert est.iterates_used == 1
        assert encloses(est, rho)
        assert est.rigorous_halfwidth <= 1e-14

    @pytest.mark.parametrize("a, b", [(0.05, 0.02), (0.3, 0.15), (0.618, 0.1), (1.7, -0.12)])
    def test_encloses_the_analytic_orbit_average(self, a, b):
        # x_n / n of the analytic map, iterated in Python floats, is within 1/n
        # of its rotation number (|F^n(x) - x - n rho| < 1)
        n = 20_000
        x = 0.0
        for _ in range(n):
            x += a + b * math.sin(2.0 * math.pi * x)
        est = rotation_number(sin_lift(a, b), n=n)
        assert abs(est.value - x / n) <= est.rigorous_halfwidth + 1.0 / n

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(-2.0, 2.0), b=st.floats(-0.155, 0.155), n=st.integers(10, 300),
           samples=st.sampled_from([64, 512, 4096]))
    def test_enclosures_at_n_and_10n_intersect(self, a, b, n, samples):
        # |b| < 1/(2 pi): x + a + b sin(2 pi x) is increasing, and so is the
        # interpolant of its samples; a coarse one has a large estimate eps
        lift = sin_lift(a, b, samples)
        eps = lift.interpolation_error()
        coarse, fine = rotation_number(lift, n=n), rotation_number(lift, n=10 * n)
        assert abs(coarse.value - fine.value) <= coarse.rigorous_halfwidth + fine.rigorous_halfwidth
        for est, m in ((coarse, n), (fine, 10 * n)):
            # rounding: one ulp of the iterates, |x| <= 1 + m max|delta|
            assert est.rigorous_halfwidth <= 1.0 / m + eps + np.spacing(1.0 + m * (abs(a) + abs(b)))

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(-3.0, 3.0), n=st.integers(1, 2000))
    def test_translations_enclose_alpha(self, alpha, n):
        for lift in (translation(alpha), LiftedCircleMap(grid_values=np.full(64, alpha))):
            assert encloses(rotation_number(lift, n=n), alpha)

    def test_halfwidth_adds_the_interpolation_estimate(self):
        # samples alternating 0.3 and 0.3 + 1e-4: the interpolant of every
        # other sample is 1e-4 off at the dropped ones
        lift = LiftedCircleMap(grid_values=0.3 + 1e-4 * (np.arange(64) % 2))
        assert lift.interpolation_error() == pytest.approx(1e-4)
        est = rotation_number(lift, n=1000)
        assert est.iterates_used == 1
        assert est.rigorous_halfwidth >= 0.5e-4 + 1e-4

    def test_non_increasing_grid_lift_raises(self):
        # phi' = 1 + 0.6 pi cos(2 pi x) < 0 around x = 1/2
        xs = np.arange(4096) / 4096
        with pytest.raises(ValueError, match="not increasing"):
            rotation_number(LiftedCircleMap(grid_values=0.3 * np.sin(2 * np.pi * xs)), n=1000)

    def test_integer_translation(self):
        est = rotation_number(translation(1.0), n=100)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert encloses(est, 1.0)

    def test_rigid_rotation_certificate(self):
        for alpha in (0.1, 0.3, 0.6180339887498949):
            est = rotation_number(translation(alpha), n=1000)
            assert abs(est.value - alpha) <= est.rigorous_halfwidth

    def test_perturbed_lift_against_longer_orbit_oracle(self):
        lift = sin_lift(0.05, 0.02)
        est = rotation_number(lift, n=100_000)
        oracle = rotation_number(lift, n=1_000_000)
        assert abs(est.value - oracle.value) < 2e-5

    def test_x0_independence_within_certificate(self):
        lift = sin_lift(0.05, 0.02)
        vals = [rotation_number(lift, n=2000, x0=x0).value for x0 in (0.0, 0.31, 0.77)]
        assert max(vals) - min(vals) <= 2.0 / 2000

    def test_integer_equivariance(self):
        lift = sin_lift(0.05, 0.02)
        base = rotation_number(lift, n=500).value
        shifted_lift = LiftedCircleMap(lift.values + 1)
        shifted = rotation_number(shifted_lift, n=500).value
        assert shifted - base == pytest.approx(1.0, abs=1e-12)

    def test_homogeneity(self):
        lift = sin_lift(0.05, 0.02)
        n_iter = 5
        power = lift
        for _ in range(n_iter - 1):
            power = composed(lift, power)
        single = rotation_number(lift, n=4000)
        iterated = rotation_number(power, n=800)
        combined = n_iter * single.rigorous_halfwidth + iterated.rigorous_halfwidth
        assert abs(iterated.value - n_iter * single.value) <= combined

    def test_quasimorphism_defect(self):
        rng = np.random.default_rng(2)
        n = 1000
        for _ in range(10):
            a1, a2 = rng.uniform(0, 1, 2)
            b1, b2 = rng.uniform(0, 0.12, 2)
            f, g = sin_lift(a1, b1), sin_lift(a2, b2)
            vals = (
                rotation_number(composed(f, g), n=n).value,
                rotation_number(f, n=n).value,
                rotation_number(g, n=n).value,
            )
            assert abs(vals[0] - vals[1] - vals[2]) < 1.0 + 2.0 / n


class TestInvariantMeasure:
    def test_rational_rotation_periodic_atoms(self):
        mu = invariant_measure(translation(1.0 / 3.0), samples=100)
        assert mu.periodic
        assert mu.points.size == 3
        assert np.allclose(mu.weights, 1.0 / 3.0)

    def test_irrational_rotation_equidistributes(self):
        alpha = 0.6180339887498949
        n = 4096
        mu = invariant_measure(translation(alpha), burn_in=0, samples=n)
        assert not mu.periodic
        weyl = abs(np.sum(mu.weights * np.exp(2j * np.pi * mu.points)))
        # Dirichlet kernel bound for the rotation orbit: 1/(n sin(pi alpha))
        assert weyl <= 1.0 / (n * np.sin(np.pi * alpha)) + 1e-12

    def test_attracting_fixed_point_concentrates(self):
        lift = sin_lift(0.0, 0.1)
        # x0 = 0 is itself (repelling) fixed; start off it to see the attractor
        mu = invariant_measure(lift, burn_in=2000, samples=500, x0=0.1)
        # orbit converges to the attracting fixed point at x = 1/2
        assert np.max(np.abs(mu.points - 0.5)) < 1e-3
        assert abs(np.sum(mu.weights * lift.delta(mu.points))) < 1e-6
        est = rotation_number(lift, n=2000, x0=0.1)
        assert abs(est.value) <= est.rigorous_halfwidth

    def test_exact_fixed_point_detected_as_period_one(self):
        lift = sin_lift(0.0, 0.1)
        mu = invariant_measure(lift, samples=100, x0=0.0)
        assert mu.periodic and mu.points.size == 1

    @staticmethod
    def _two_walk_reference(lift, burn_in, samples, x0):
        # the period search and the sample segment as two separate walks
        limit = min(samples, 10_000)
        orbit = [float(x0)]
        x = float(x0)
        for k in range(1, limit + 1):
            x += float(lift.delta(x))
            if abs(x - x0 - round(x - x0)) < 1e-10:
                return np.mod(np.array(orbit), 1.0), np.full(k, 1.0 / k), True
            orbit.append(x)
        x = float(x0)
        for _ in range(burn_in):
            x += float(lift.delta(x))
        pts, weights = np.empty(samples), np.empty(samples)
        for k in range(samples):
            pts[k] = x % 1.0
            x += float(lift.delta(x))
            t = (k + 0.5) / samples
            weights[k] = np.exp(-1.0 / (t * (1.0 - t)))
        return pts, weights / np.sum(weights), False

    @pytest.mark.parametrize("lift, burn_in, samples, x0, calls", [
        (translation(1.0 / 3.0), 1000, 100, 0.0, 3),
        (sin_lift(0.05, 0.02), 300, 2000, 0.1, 2299),
        (sin_lift(0.05, 0.02), 0, 500, 0.0, 500),
        (translation(0.6180339887498949), 50, 12_000, 0.2, 12_049),
        # the period is found at the last step searched, k = limit = samples
        (translation(1.0 / 7.0), 0, 7, 0.0, 7),
    ], ids=["periodic", "burn_in", "no_burn_in", "past_search_limit", "period_at_limit"])
    def test_one_walk_matches_two_walks(self, lift, burn_in, samples, x0, calls, monkeypatch):
        counted = []
        delta = lift.scalar_delta()

        def counted_delta(x):
            counted.append(1)
            return delta(x)

        monkeypatch.setattr(lift, "scalar_delta", lambda: counted_delta)
        mu = invariant_measure(lift, burn_in=burn_in, samples=samples, x0=x0)
        pts, weights, periodic = self._two_walk_reference(lift, burn_in, samples, x0)
        assert mu.periodic == periodic
        assert np.array_equal(mu.points, pts) and np.array_equal(mu.weights, weights)
        assert len(counted) == calls

    @pytest.mark.parametrize("bundle", [
        conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5),
        conjugated_rotation(GOLDEN, boundary_shear_conjugator(0.3), 0.5),
        quadratic_twist(0.3),
        conjugated_rotation(0.4, boundary_shear_conjugator(0.3), 0.5),
    ], ids=["offcenter_golden", "shear_golden", "twist", "shear_rotation_0.4"])
    def test_grid_walk_equals_the_interp_walk(self, bundle):
        # a lift's Python-float interpolation against np.interp, bit for
        # bit: along an orbit started on a grid node (0.25 = 1024/4096), at
        # other nodes, and on either side of 1, where x mod 1 can round to 1
        lift = bundle.boundary_lift()
        delta = lift.scalar_delta()
        xs, x = [], 0.25
        for _ in range(2000):
            xs.append(x)
            x += float(lift.delta(x))
        xs += [0.0, 1.0, 3.0 / 4096, -1e-20, -0.3, 7.75, np.nextafter(1.0, 0.0), 1.0 - 2.0**-40]
        got = np.array([delta(float(x)) for x in xs])
        assert got.tobytes() == np.array([float(lift.delta(x)) for x in xs]).tobytes()
        mu = invariant_measure(lift, burn_in=100, samples=2000, x0=0.25)
        pts, _, periodic = self._two_walk_reference(lift, 100, 2000, 0.25)
        assert mu.periodic == periodic and mu.points.tobytes() == pts.tobytes()

    def test_weights_validated(self):
        from diskcal.circle import BoundaryMeasure

        with pytest.raises(ValueError):
            BoundaryMeasure(points=np.array([0.0, 0.5]), weights=np.array([0.6, 0.6]))

    def test_invariance_defect_small_for_irrational_orbit(self):
        # |int psi d(phi_* mu) - int psi d mu| for a few trigonometric psi
        lift = translation(0.6180339887498949)
        mu = invariant_measure(lift, burn_in=0, samples=4096)
        pushed = np.mod(lift(mu.points), 1.0)
        for k in (1, 2):
            for psi in (np.cos, np.sin):
                moved = np.sum(mu.weights * (psi(2 * np.pi * k * pushed) - psi(2 * np.pi * k * mu.points)))
                assert abs(float(moved)) < 1e-3

    def test_birkhoff_consistency(self):
        lift = sin_lift(0.05, 0.02)
        mu = invariant_measure(lift, burn_in=1000, samples=5000)
        est = rotation_number(lift, n=5000)
        avg = np.sum(mu.weights * lift.delta(mu.points))
        assert abs(est.value - avg) <= est.rigorous_halfwidth + 1.0 / 5000
