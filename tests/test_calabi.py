import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from diskcal import calabi, flow
from diskcal.calabi import (
    N_STRATA,
    PairSampler,
    c_mu_tilde,
    cal1,
    cal2_tilde,
    cal3_tilde,
    composite_gauss_radii,
    verify_link,
)
from diskcal.circle import BoundaryMeasure, invariant_measure, rotation_number
from diskcal.errors import BoundaryNotConstant, NotAreaPreserving, StepTooCoarse
from diskcal.flow import FieldIsotopy, chord_windings
from diskcal.geometry import uniform_disk_points
from diskcal.zoo import (
    boundary_shear_conjugator,
    bump,
    bump_profile,
    compose,
    conjugate,
    conjugated_rotation,
    identity,
    inverse,
    iterate,
    off_center_conjugator,
    quadratic_twist,
    rotation,
)

from conftest import ActionFunction, DifferencedField, interior_points, pullback_defect

GOLDEN = 0.6180339887498949
POLYLINE_NODES = 48  # Gauss-Legendre nodes per leg of a0_along_polyline


def twist_action(z, beta=0.3):
    # closed form A = g(s) - s g'(s) + g'(1) for g(s) = beta (1-s)^2
    s = np.abs(np.asarray(z)) ** 2
    return beta * (1.0 - s**2)


def a0_along_polyline(action, z):
    """``action.a0`` recomputed along 0 -> (u, 0) -> (u, v), for path-independence checks."""
    z = complex(z)
    total = 0.0
    x, w = leggauss(POLYLINE_NODES)
    for a, b in [(0j, complex(z.real, 0.0)), (complex(z.real, 0.0), z)]:
        if abs(b - a) == 0.0:
            continue
        pos = a + (x + 1.0) / 2.0 * (b - a)
        total += float(np.sum(action._integrand(pos, np.full_like(pos, b - a)) * w / 2.0))
    return total


def winding(bundle, x, y):
    """The angle function: the winding in turns of ``t -> f_t(x) - f_t(y)``."""
    vals, _ = chord_windings(bundle, np.array([x]), np.array([y]))
    return float(vals[0])


def in_own_strata(sampler, idx, x, y):
    """Whether the pairs ``(x, y)`` at the sample indices ``idx`` lie in their
    strata: cell (i, j) is the annulus pair k|x|^2 in [i, i+1], k|y|^2 in [j, j+1]."""
    k = N_STRATA
    cell = np.repeat(np.arange(k * k), sampler._cell_counts())[idx]
    return bool(np.all(np.abs(k * np.abs(x) ** 2 - (cell // k + 0.5)) <= 0.5 + 1e-12)
                and np.all(np.abs(k * np.abs(y) ** 2 - (cell % k + 0.5)) <= 0.5 + 1e-12))


def birkhoff(bundle, x, y, n):
    """``(1/n) Ang_{f^n}(x, y)``: the iterate's isotopy tree sums the cocycle along the orbit."""
    return winding(iterate(bundle, n), x, y) / n


class TestActionFunction:
    def test_identity_vanishes(self):
        a = ActionFunction(identity())
        pts = interior_points(30, seed=1)
        assert np.max(np.abs(a(pts))) < 1e-12

    def test_rotation_vanishes(self):
        a = ActionFunction(rotation(0.3))
        pts = interior_points(30, seed=2)
        assert np.max(np.abs(a(pts))) < 1e-12

    def test_twist_closed_form(self):
        a = ActionFunction(quadratic_twist(0.3))
        pts = interior_points(50, seed=3)
        assert np.max(np.abs(a(pts) - twist_action(pts))) < 1e-6
        assert a(0j) == pytest.approx(0.3, abs=1e-9)

    def test_primitive_gradient_oracle(self):
        # finite differences of A against the exact pullback defect f*l - l
        for bundle in (quadratic_twist(0.3), compose(quadratic_twist(0.3), rotation(0.2))):
            a = ActionFunction(bundle)
            pts = interior_points(100, seed=4, rmax=0.9)
            h = 1e-5
            fd_u = (a.a0(pts + h) - a.a0(pts - h)) / (2 * h)
            fd_v = (a.a0(pts + 1j * h) - a.a0(pts - 1j * h)) / (2 * h)
            du, dv = pullback_defect(a, pts)
            assert np.max(np.abs(fd_u - du)) < 1e-5
            assert np.max(np.abs(fd_v - dv)) < 1e-5

    def test_scalar_point_gives_a_float(self):
        a = ActionFunction(quadratic_twist(0.3))
        value = a.a0(0.5 + 0j)
        assert type(value) is float
        assert value == a.a0(np.array([0.5 + 0j]))[0]
        assert type(a(0.5 + 0j)) is float

    def test_path_independence_l_shaped(self):
        a = ActionFunction(quadratic_twist(0.3))
        pts = interior_points(20, seed=5, rmax=0.85)
        for z in pts:
            assert a0_along_polyline(a, z) == pytest.approx(a.a0(z), abs=1e-6)

    def test_zero_boundary_average(self):
        bundle = conjugate(rotation(0.5), boundary_shear_conjugator(0.3), 0.4)
        mu = invariant_boundary_pair(bundle, 0.0)
        a = ActionFunction(bundle, mu=mu)
        assert np.sum(a.mu.weights * np.ones_like(a.mu.points)) == pytest.approx(1.0)
        vals = a(np.exp(2j * np.pi * mu.points))
        assert float(np.sum(mu.weights * vals)) == pytest.approx(0.0, abs=1e-8)

    def test_zero_average_over_a_weighted_orbit_measure(self):
        # the atoms of a non-periodic mu lie off the theta grid, where c_mu
        # reads delta; the profile on each atom's own ray must average to c_mu
        bundle = conjugated_rotation(GOLDEN, boundary_shear_conjugator(0.3), 0.5)
        mu = invariant_measure(bundle.boundary_lift(), samples=200)
        assert not mu.periodic
        vals = ActionFunction(bundle, mu=mu)(np.exp(2j * np.pi * mu.points))
        assert abs(float(np.sum(mu.weights * vals))) <= 1e-12

    def test_non_area_preserving_rejected(self, broken_bundle):
        with pytest.raises(NotAreaPreserving):
            ActionFunction(broken_bundle, mu=BoundaryMeasure(np.array([0.0]), np.array([1.0])))


def invariant_boundary_pair(bundle, x0):
    """Exact 2-periodic boundary orbit measure of a conjugated half rotation."""
    lift = bundle.boundary_lift()
    x1 = float(np.mod(lift(np.array([x0]))[0], 1.0))
    return BoundaryMeasure(points=np.array([x0, x1]), weights=np.array([0.5, 0.5]))


class TestCal1:
    def test_rotation_zero(self):
        assert cal1(rotation(0.3)).value == pytest.approx(0.0, abs=1e-6)

    def test_identity_zero(self):
        assert cal1(identity()).value == pytest.approx(0.0, abs=1e-12)

    def test_twist_closed_form(self):
        res = cal1(quadratic_twist(0.3))
        assert res.value == pytest.approx(0.2, abs=1e-5)
        assert res.richardson_delta < 1e-6

    def test_lambda_independence(self):
        # perturb the primitive by du for u = 0.1 u v; cal1 must not move
        def u_grad(z):
            return 0.1 * (np.imag(z) + 1j * np.real(z))

        shift = (lambda z: 0.1 * np.real(z) * np.imag(z), u_grad)
        bundle = quadratic_twist(0.3)
        base = cal1(bundle).value
        shifted = cal1(bundle, primitive_shift=shift).value
        assert abs(base - shifted) < 1e-5

    def test_mu_independence_on_periodic_boundary_orbits(self):
        # rational boundary rotation, non-rigid boundary dynamics: Dirac
        # combs on different periodic orbits give the same normalization
        bundle = conjugate(rotation(0.5), boundary_shear_conjugator(0.3), 0.4)
        mus = [invariant_boundary_pair(bundle, x0) for x0 in (0.0, 0.37)]
        vals = [cal1(bundle, mu=mu, grid=(64, 128), richardson=False).value for mu in mus]
        assert abs(vals[0] - vals[1]) < 1e-5

    def test_boundary_action_really_varies_in_mu_test(self):
        # guards the test above against becoming vacuous
        bundle = conjugate(rotation(0.5), boundary_shear_conjugator(0.3), 0.4)
        a = ActionFunction(bundle, mu=invariant_boundary_pair(bundle, 0.0))
        profile = a.a0(np.exp(2j * np.pi * np.linspace(0, 1, 64, endpoint=False)))
        assert np.max(profile) - np.min(profile) > 1e-3

    def test_non_area_preserving_rejected(self, broken_bundle):
        with pytest.raises(NotAreaPreserving):
            cal1(broken_bundle, mu=BoundaryMeasure(np.array([0.0]), np.array([1.0])))

    @pytest.mark.parametrize("grid", [(16, 32), (8, 16), (31, 64), (64, 32)])
    def test_richardson_grid_must_be_coarser(self, grid):
        # at (16, 32) the old floored half grid was (16, 32) itself, so the
        # Richardson delta read exactly 0 whatever the grid's error.  cal1 read
        # 1.43e-5 there (true value 0), but that was mu's orbit error, not the
        # grid's: it read 1.38e-5 at every grid from (32, 64) to (128, 256)
        bundle = conjugated_rotation(GOLDEN, boundary_shear_conjugator(0.3), 0.5)
        with pytest.raises(ValueError, match="Richardson"):
            cal1(bundle, grid=grid)

    @pytest.mark.parametrize("alpha", [GOLDEN, np.sqrt(2.0) - 1.0], ids=["golden", "sqrt2_minus_1"])
    def test_zero_on_a_boundary_only_conjugate_to_a_rotation(self, alpha):
        # cal1 of a conjugated rotation is 0; the shear moves S^1, so the
        # boundary map is conjugate to R_alpha but not rigid, and the
        # boundary displacement is not constant.  A plain orbit average of it
        # misses rho by O(1/N) (1.4e-5 at N = 10k); the weighted one leaves
        # the linear lift's error, about 1.5e-8
        bundle = conjugated_rotation(alpha, boundary_shear_conjugator(0.3), 0.5)
        assert abs(cal1(bundle, grid=(64, 128)).value) <= 1e-7

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 17: the linear boundary lift's error enters cal1 "
                                           "through rho_mu, which cancels from the Richardson delta")
    def test_richardson_delta_holds_the_error_on_a_sheared_boundary(self):
        # cal1 of a conjugated rotation is 0, so |cal1| is its error: 1.45e-8
        # at (64, 128), against a delta of 8.5e-14
        res = cal1(conjugated_rotation(GOLDEN, boundary_shear_conjugator(0.3), 0.5), grid=(64, 128))
        assert abs(res.value) <= res.richardson_delta

    @pytest.mark.parametrize("bundle", [quadratic_twist(0.3), bump(4)], ids=["twist", "bump4"])
    def test_fubini_matches_polar_average_of_pointwise_primitive(self, bundle):
        # brute force: the pointwise radial primitive a0 averaged over a polar
        # product grid, against cal1's single radial rule per ray (Fubini)
        a = ActionFunction(bundle)
        res = cal1(bundle, mu=a.mu)
        r, w = composite_gauss_radii(64, bundle.radial_breakpoints)
        units = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
        a0 = a.a0((r[:, None] * units[None, :]).ravel()).reshape(r.size, units.size)
        area_a0 = float(np.sum(w * 2.0 * r * np.mean(a0, axis=1)))
        assert abs(res.value + res.c_mu - area_a0) <= 1e-10
        assert abs(res.c_mu - a.c_mu) <= 1e-10


class TestAngleFunction:
    def test_rotation_every_chord(self):
        bundle = rotation(0.3)
        for x, y in [(0.1 + 0j, 0.5j), (-0.7j, 0.2 + 0.2j)]:
            assert winding(bundle, x, y) == pytest.approx(0.3, abs=1e-12)

    def test_identity_zero(self):
        assert winding(identity(), 0.3 + 0j, -0.2j) == 0.0

    def test_twist_origin_chord(self):
        bundle = quadratic_twist(0.3)
        assert winding(bundle, 0j, 0.5 + 0j) == pytest.approx(0.45, abs=1e-9)

    def test_diagonal_guard(self):
        # a chord below the vector-norm threshold has no direction to wind
        for y in (0.1 + 1e-13j, 0.1 + 0j):
            with pytest.raises(StepTooCoarse):
                winding(rotation(0.3), 0.1 + 0j, y)

    def test_cocycle_identity(self):
        f, g = quadratic_twist(0.3), rotation(0.2)
        fg = compose(f, g)
        rng = np.random.default_rng(6)
        from diskcal.geometry import uniform_disk_points
        from diskcal.flow import chord_windings

        x, y = uniform_disk_points(1000, rng), uniform_disk_points(1000, rng)
        keep = np.abs(x - y) > 1e-6
        x, y = x[keep], y[keep]
        lhs, _ = chord_windings(fg, x, y)
        part1, _ = chord_windings(g, x, y)
        gx, gy = g(x), g(y)
        part2, _ = chord_windings(f, gx, gy)
        assert np.max(np.abs(lhs - part1 - part2)) < 1e-6


class TestCal2:
    def test_rotation_exact_per_sample(self):
        res = cal2_tilde(rotation(0.3), PairSampler(n=2000, seed=1))
        assert res.value == pytest.approx(0.3, abs=1e-12)
        assert res.stderr < 1e-15

    def test_identity_exactly_zero(self):
        res = cal2_tilde(identity(), PairSampler(n=500, seed=2))
        assert res.value == 0.0
        assert res.stderr == 0.0

    def test_twist_within_three_stderr(self):
        res = cal2_tilde(quadratic_twist(0.3), PairSampler(n=20000, seed=7))
        assert abs(res.value - 0.2) <= 3 * res.stderr

    def test_stratified_redraw_stays_in_stratum(self):
        k = N_STRATA
        sampler = PairSampler(n=1000, seed=3, strategy="stratified")
        stops = np.cumsum(sampler._cell_counts())
        idx = np.arange(0, 1000, 3)
        x, y = sampler.redraw(np.random.default_rng(1), idx)
        for cell, (start, stop) in enumerate(zip(stops - sampler._cell_counts(), stops)):
            i, j = divmod(cell, k)
            sel = (idx >= start) & (idx < stop)
            assert np.any(sel)
            # stratum (i, j) is the annulus pair k|x|^2 in [i, i+1], k|y|^2 in [j, j+1]
            assert np.all(np.abs(k * np.abs(x[sel]) ** 2 - (i + 0.5)) <= 0.5 + 1e-12)
            assert np.all(np.abs(k * np.abs(y[sel]) ** 2 - (j + 0.5)) <= 0.5 + 1e-12)

    def test_a_standard_error_needs_two_pairs(self):
        # one uniform pair reported stderr 0.0, so verify-link passed on the
        # quadrature budget alone
        for n in (0, 1):
            with pytest.raises(ValueError, match="at least 2 pairs"):
                PairSampler(n=n, seed=1)
        assert cal2_tilde(rotation(0.3), PairSampler(n=2, seed=1)).n_pairs == 2

    def test_stratified_needs_two_pairs_per_stratum(self):
        # a stratum with one pair has no variance estimate: 64 stratified
        # pairs reported stderr 0, and 10 silently became 64
        for n in (10, 64, 127):
            with pytest.raises(ValueError, match="128"):
                PairSampler(n=n, seed=1, strategy="stratified")
        assert PairSampler(n=128, seed=1, strategy="stratified").sample_pairs()[0].size == 128
        assert PairSampler(n=10, seed=1).sample_pairs()[0].size == 10

    @pytest.mark.parametrize("strategy", ["uniform", "stratified"])
    def test_close_pairs_are_redrawn_and_counted(self, monkeypatch, strategy):
        # every stratum can meet a separation of 0.05 (the innermost lies in r < 1/8)
        import diskcal.calabi as calabi

        monkeypatch.setattr(calabi, "MIN_PAIR_SEPARATION", 0.05)
        sampler = PairSampler(n=2000, seed=3, strategy=strategy)
        x, y, resampled = sampler.sample_pairs()
        assert resampled > 0
        assert np.all(np.abs(x - y) >= 0.05)
        assert strategy == "uniform" or in_own_strata(sampler, np.arange(x.size), x, y)
        assert cal2_tilde(quadratic_twist(0.3), sampler).resampled == resampled

    @pytest.mark.parametrize("strategy", ["uniform", "stratified"])
    def test_value_and_stderr_are_python_floats(self, strategy):
        res = cal2_tilde(quadratic_twist(0.3), PairSampler(n=1000, seed=5, strategy=strategy))
        assert type(res.value) is float and type(res.stderr) is float

    def test_stratified_estimate_weighs_every_cell_equally(self):
        # 130 pairs: the first two cells hold 3, the other 62 hold 2; each
        # cell's values are its index plus offsets of variance 1 (3) or 2 (2)
        sampler = PairSampler(n=130, seed=1, strategy="stratified")
        counts = sampler._cell_counts()
        values = np.concatenate([c + np.linspace(-1.0, 1.0, m) for c, m in enumerate(counts)])
        value, stderr = sampler.estimate(values)
        assert value == pytest.approx(31.5, abs=1e-12) and np.mean(values) < 31.4
        assert stderr == pytest.approx(np.sqrt(2 * (1 / 3) + 62 * (2 / 2)) / 64, abs=1e-15)

    @pytest.mark.parametrize("strategy", ["uniform", "stratified"])
    def test_unresolved_pairs_are_redrawn_in_their_stratum(self, monkeypatch, strategy):
        # the first evaluation leaves the chosen pairs unresolved (NaN); the
        # retry redraws them through the sampler and winds them once more
        chosen = np.array([0, 7, 15, 16, 500, 998, 999])
        bundle = bump(4)
        calls = []

        def once_unresolved(f, x, y, raise_on_fail=True):
            vals, ok = chord_windings(f, x, y, raise_on_fail=raise_on_fail)
            calls.append((x.copy(), y.copy()))
            if len(calls) == 1:
                vals[chosen], ok[chosen] = np.nan, False
            return vals, ok

        monkeypatch.setattr(calabi, "chord_windings", once_unresolved)
        sampler = PairSampler(n=1000, seed=3, strategy=strategy)
        res = cal2_tilde(bundle, sampler)
        assert res.retried == chosen.size and len(calls) == 2
        rx, ry = calls[1]
        assert strategy == "uniform" or in_own_strata(sampler, chosen, rx, ry)
        x, y, _ = sampler.sample_pairs()
        assert not np.any(np.isin(rx, x[chosen]))
        x[chosen], y[chosen] = rx, ry
        values, _ = chord_windings(bundle, x, y)
        assert (res.value, res.stderr) == sampler.estimate(values)
        assert np.isfinite(res.value)

    @pytest.mark.parametrize("strategy", ["uniform", "stratified"])
    def test_pairs_that_never_resolve_raise_after_three_rounds(self, monkeypatch, strategy):
        calls = []

        def never_resolved(f, x, y, raise_on_fail=True):
            calls.append(x.size)
            vals, ok = chord_windings(f, x, y, raise_on_fail=raise_on_fail)
            ok[:2] = False
            return vals, ok

        monkeypatch.setattr(calabi, "chord_windings", never_resolved)
        with pytest.raises(StepTooCoarse, match="2 sampled pairs"):
            cal2_tilde(bump(4), PairSampler(n=1000, seed=3, strategy=strategy))
        assert calls == [1000, 2, 2, 2]

    def test_stratified_agrees_and_tightens(self):
        uni = cal2_tilde(quadratic_twist(0.3), PairSampler(n=8000, seed=7))
        strat = cal2_tilde(quadratic_twist(0.3), PairSampler(n=8000, seed=7, strategy="stratified"))
        assert abs(strat.value - 0.2) <= 3 * strat.stderr + 1e-12
        assert strat.stderr <= uni.stderr * 1.2

    def test_worker_count_does_not_change_result(self):
        a = cal2_tilde(quadratic_twist(0.3), PairSampler(n=4000, seed=3), workers=1)
        b = cal2_tilde(quadratic_twist(0.3), PairSampler(n=4000, seed=3), workers=4)
        assert a.value == b.value and a.stderr == b.stderr

    def test_morphism_property(self):
        f, g = quadratic_twist(0.3), rotation(0.2)
        rf = cal2_tilde(f, PairSampler(n=8000, seed=11))
        rg = cal2_tilde(g, PairSampler(n=8000, seed=12))
        rfg = cal2_tilde(compose(f, g), PairSampler(n=8000, seed=13))
        tol = 3 * np.sqrt(rf.stderr**2 + rg.stderr**2 + rfg.stderr**2) + 1e-12
        assert abs(rfg.value - rf.value - rg.value) <= tol

    def test_inverse_cancels(self):
        a = quadratic_twist(0.3)
        res = cal2_tilde(compose(a, inverse(a)), PairSampler(n=4000, seed=4))
        assert abs(res.value) <= 3 * res.stderr + 1e-9

    def test_cal1_homogeneity_under_iteration(self):
        base = cal1(quadratic_twist(0.2), grid=(64, 128), richardson=False).value
        for n in (2, 4, 8):
            val = cal1(iterate(quadratic_twist(0.2), n), grid=(64, 128), richardson=False).value
            assert abs(val - n * base) <= n * 1e-4 + 1.0
            # boundary rotation number 0 makes the identity exact here
            assert abs(val - n * base) <= n * 1e-6


class TestCal3:
    def test_zero_generator(self):
        assert cal3_tilde(identity()) == 0.0

    def test_rotation_alpha(self):
        assert cal3_tilde(rotation(0.25)) == pytest.approx(0.25, abs=1e-8)

    def test_twist_closed_form(self):
        assert cal3_tilde(quadratic_twist(0.3)) == pytest.approx(0.2, abs=1e-8)

    def test_composition_adds(self):
        val = cal3_tilde(compose(quadratic_twist(0.3), rotation(0.2)))
        assert val == pytest.approx(0.4, abs=1e-8)
        # exactly: the time slots of a concatenation integrate their pieces once
        a, b = quadratic_twist(0.3), conjugated_rotation(0.2, off_center_conjugator(0.5), 0.5)
        assert cal3_tilde(compose(a, b)) == cal3_tilde(b) + cal3_tilde(a)

    def test_boundary_constancy_enforced(self):
        bad = DifferencedField(lambda z: np.real(z))
        # the check every leaf passes through: no isotopy tree of Re z reaches
        # it, since a FieldIsotopy of Re z leaves the disk while it calibrates
        with pytest.raises(BoundaryNotConstant):
            calabi._cal3_leaf(bad, 1.0, (128, 256))

    def test_conjugated_generator_integrates_to_alpha(self):
        # the generator of h R h^-1 is K = H o h^-1; integrated directly on the
        # polar grid, it must give what the tree gives from H alone
        r, w = composite_gauss_radii(64)
        units = np.exp(2j * np.pi * (np.arange(128) + 0.5) / 128)
        grid = (r[:, None] * units[None, :]).ravel()
        circle = np.exp(2j * np.pi * np.arange(64) / 64)
        for conjugator in (off_center_conjugator(0.5), boundary_shear_conjugator(0.3)):
            bundle = conjugated_rotation(0.3, conjugator, 0.5)
            inner, pair = bundle.inner, bundle.pair
            k_circle = inner.field.value(pair.h_inverse.flow(1.0, circle))
            k = inner.field.value(pair.h_inverse.flow(1.0, grid)) - np.mean(k_circle)
            direct = 2.0 * float(np.sum(w * 2.0 * r * np.mean(k.reshape(r.size, units.size), axis=1)))
            assert direct == pytest.approx(0.3, abs=1e-6), conjugator.name
            assert abs(cal3_tilde(bundle, grid=(64, 128)) - direct) <= 1e-12, conjugator.name

    @pytest.mark.parametrize("conjugator", [off_center_conjugator(0.5), boundary_shear_conjugator(0.3)],
                             ids=["off_center", "shear"])
    def test_conjugation_returns_the_inner_value(self, conjugator):
        f = compose(quadratic_twist(0.3), bump(4))
        assert cal3_tilde(conjugate(f, conjugator, 0.5)) == cal3_tilde(f)

    def test_conjugation_never_maps_points_through_h_inverse(self, monkeypatch):
        # patched on the class before the bundle is built, so a bound method
        # taken then counts too; every flow of h^-1 is its trajectory or its
        # tangent push
        calls = []
        for name in ("trajectory", "flow_tangent"):
            original = getattr(FieldIsotopy, name)
            monkeypatch.setattr(FieldIsotopy, name,
                                lambda iso, *a, original=original: calls.append(iso) or original(iso, *a))
        bundle = conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5)
        calls.clear()
        cal3_tilde(bundle, grid=(64, 128))
        assert all(iso is not bundle.pair.h_inverse for iso in calls)

    @pytest.mark.parametrize("f", [bump(4), conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5)],
                             ids=["bump4", "conjugated"])
    def test_inverse_negates(self, f):
        assert abs(cal3_tilde(inverse(f)) + cal3_tilde(f)) <= 1e-15

    def test_concatenation_carries_the_union_of_radial_kinks(self):
        assert compose(bump(4), rotation(0.2)).radial_breakpoints == (0.125, 0.25)

    def test_repeated_leaf_is_integrated_once(self, monkeypatch):
        # iterate repeats the two leaf objects of a mixed concatenation; the
        # sum keeps their order, so it is bitwise unchanged
        v_twist, v_rotation = cal3_tilde(quadratic_twist(0.3)), cal3_tilde(rotation(0.2))
        calls = []
        original = calabi._cal3_leaf
        monkeypatch.setattr(calabi, "_cal3_leaf", lambda *args: calls.append(1) or original(*args))
        f = iterate(compose(quadratic_twist(0.3), rotation(0.2)), 50)
        assert cal3_tilde(f) == sum([v_rotation, v_twist] * 50)
        assert len(calls) == 2


class TestQuadratureCache:
    @pytest.fixture(autouse=True)
    def cold_cache(self):
        calabi._cached_polar_grid.cache_clear()

    def test_the_polar_grid_is_the_one_cache(self):
        assert not hasattr(calabi, "gauss_legendre") and not hasattr(calabi, "GAUSS_RULE_CACHE_SIZE")

    def test_cached_arrays_are_read_only(self):
        for a in calabi._polar_grid((32, 64), (0.25,)):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize("n", [8, 16, 48, 64, 96, 128])
    def test_composite_rules_are_numpy_rules_bytewise(self, n):
        # without kinks the radial rule is numpy's rule mapped to [0, 1]
        x, w = leggauss(n)
        r, wr = composite_gauss_radii(n)
        assert r.tobytes() == ((x + 1.0) / 2.0).tobytes() and wr.tobytes() == (w / 2.0).tobytes()
        # the composite radial rule concatenates its segments unsorted: numpy's
        # nodes ascend and the segments come from np.unique, so the radii must
        # already increase strictly, and the weights integrate 1 on [0, 1]
        kinks = [(), (0.25,), (0.25, 0.25, 0.0, 1.0)] + [bump_profile(k).breakpoints for k in range(2, 9)]
        for breakpoints in kinks:
            r, w = composite_gauss_radii(n, breakpoints)
            assert 0.0 < r[0] and r[-1] < 1.0 and np.all(np.diff(r) > 0.0)
            assert abs(float(np.sum(w)) - 1.0) <= 1e-14

    def test_two_link_runs_build_each_rule_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(calabi, "leggauss", lambda n: calls.append(n) or leggauss(n))
        for _ in range(2):
            verify_link(quadratic_twist(0.3), pairs=500, seed=1, grid=(128, 256), rho_iterates=1000)
        assert sorted(calls) == [64, 128]

    def test_a_list_grid_shares_the_tuple_entry(self):
        first = calabi._polar_grid((32, 64), (0.25,))
        again = calabi._polar_grid([32, 64], [0.25])
        assert all(a is b for a, b in zip(first, again))
        info = calabi._cached_polar_grid.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestCmu:
    def test_lebesgue_sample_matches_rotation(self):
        points = uniform_disk_points(200, np.random.default_rng(5))
        val = c_mu_tilde(rotation(0.3), points)
        # diagonal pairs are skipped: the plain double sum carries 1 - 1/N mass
        assert val == pytest.approx(0.3 * (1 - 1.0 / 200), abs=1e-9)

    def test_single_point_measure_degenerate(self):
        assert c_mu_tilde(rotation(0.3), np.array([0.2 + 0j])) == 0.0

    def test_invariant_circle_windings_constant(self):
        bundle = quadratic_twist(0.3)
        r = 0.5
        pts = r * np.exp(2j * np.pi * np.arange(6) / 6.0)
        expected = 0.6 * (1 - r * r)
        for i in range(6):
            for j in range(i + 1, 6):
                assert winding(bundle, pts[i], pts[j]) == pytest.approx(expected, abs=1e-9)

    def test_conjugation_invariance_on_exactly_invariant_atoms(self):
        # atoms on twist-invariant circles with rational per-circle winding
        beta = 0.3
        tw = quadratic_twist(beta)
        r_a = np.sqrt(1.0 - (1.0 / 3.0) / (2 * beta))  # winding 1/3: 3-orbit
        r_b = np.sqrt(1.0 - 0.5 / (2 * beta))  # winding 1/2: 2-orbit
        pts = np.concatenate([
            r_a * np.exp(2j * np.pi * (0.13 + np.arange(3) / 3.0)),
            r_b * np.exp(2j * np.pi * (0.71 + np.arange(2) / 2.0)),
        ])
        # five atoms of weight 1/5 each, pushed forward by h
        conj_bundle = conjugate(tw, off_center_conjugator(0.4), 0.3)
        lhs = c_mu_tilde(tw, pts)
        rhs = c_mu_tilde(conj_bundle, conj_bundle.pair.h.flow(1.0, pts))
        assert rhs == pytest.approx(lhs, abs=1e-6)

    # pairs with |x| = |y| exactly: conjugation, negation and a quarter turn
    # keep the modulus bit for bit
    TIES = (np.conj, np.negative, lambda z: 1j * z, lambda z: -np.conj(z))

    @pytest.mark.parametrize("make", [
        lambda: quadratic_twist(0.3),
        lambda: bump(4),
        lambda: compose(quadratic_twist(0.3), rotation(0.2)),
        lambda: conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5),
        lambda: FieldIsotopy(off_center_conjugator(0.5), 0.5),
        lambda: FieldIsotopy(boundary_shear_conjugator(0.3), 0.5),
    ], ids=["radial", "bump4", "concat", "conjugated", "field_leaf", "shear_leaf"])
    def test_a_chord_winds_to_the_same_bits_both_ways(self, make):
        # c_mu winds each unordered pair once: Ang(x, y) = Ang(y, x) bit for bit
        ties = interior_points(28, seed=68)
        x = np.concatenate([interior_points(200, seed=66)] + [ties] * len(self.TIES))
        y = np.concatenate([interior_points(200, seed=67)] + [tie(ties) for tie in self.TIES])
        assert np.count_nonzero(np.abs(x) == np.abs(y)) == 28 * len(self.TIES)
        bundle = make()
        forward = chord_windings(bundle, x, y, raise_on_fail=False)
        backward = chord_windings(bundle, y, x, raise_on_fail=False)
        assert all(map(_same_bits, forward, backward))
        assert forward[1].all()

    @pytest.mark.parametrize("distinct", [40, 41])
    def test_c_mu_winds_each_unordered_pair_once(self, monkeypatch, distinct):
        # n (n - 1) / 2 pairs less the coincident ones, over several blocks,
        # for an even and an odd n
        points = interior_points(distinct, seed=69)
        points = np.concatenate([points, points[:3]])  # 3 coincident pairs
        n = points.size
        wound = []
        original = calabi.chord_windings
        monkeypatch.setattr(calabi, "chord_windings",
                            lambda f, x, y: wound.append((x, y)) or original(f, x, y))
        monkeypatch.setattr(flow, "STEP_BLOCK", TestBlocks.ODD_BLOCK)
        c_mu_tilde(quadratic_twist(0.3), points)
        assert len(wound) == len(list(flow.blocks(n * (n - 1) // 2))) > 1
        x, y = (np.concatenate(side) for side in zip(*wound))
        assert x.size == n * (n - 1) // 2 - 3

        def unordered(a, b):
            return tuple(sorted([(a.real, a.imag), (b.real, b.imag)]))

        expected = Counter(unordered(points[i], points[j]) for i in range(n) for j in range(i + 1, n)
                           if abs(points[i] - points[j]) >= 1e-12)
        assert Counter(map(unordered, x, y)) == expected


class TestBirkhoff:
    def test_rotation_average(self):
        assert birkhoff(rotation(0.3), 0.2 + 0j, -0.4j, 10) == pytest.approx(0.3, abs=1e-12)

    def test_twist_invariant_circle(self):
        val = birkhoff(quadratic_twist(0.3), 0j, 0.5 + 0j, 20)
        assert val == pytest.approx(0.45, abs=1e-9)

    def test_identity_zero(self):
        assert birkhoff(identity(), 0.1 + 0j, 0.5j, 7) == 0.0

    @pytest.mark.parametrize("f", [compose(quadratic_twist(0.3), rotation(0.2)),
                                   conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5)],
                             ids=["concatenated", "conjugated"])
    def test_iterate_is_the_orbit_cocycle_sum(self, f):
        # Ang_{f^n}(x, y) = sum_k Ang_f(f^k x, f^k y), summed along the orbit by hand
        x0, y0 = np.array([0.2 + 0j, -0.3 + 0.1j]), np.array([-0.4j, 0.6 + 0.2j])
        x, y, total = x0, y0, 0.0
        for _ in range(6):
            total = total + chord_windings(f, x, y)[0]
            x, y = f(x), f(y)
        tree, _ = chord_windings(iterate(f, 6), x0, y0)
        assert np.max(np.abs(tree - total)) <= 1e-9


class TestVerifyLink:
    def test_rotation_report(self):
        rep = verify_link(rotation(0.3), pairs=2000, seed=1, grid=(64, 128), rho_iterates=10_000)
        assert rep.cal1 == pytest.approx(0.0, abs=1e-6)
        assert rep.cal2 == pytest.approx(0.3, abs=1e-9)
        assert rep.cal3 == pytest.approx(0.3, abs=1e-9)
        assert rep.rho == pytest.approx(0.3, abs=1e-9)
        assert rep.pass_link and rep.pass_23

    def test_identity_inverse_rho_is_positive_zero(self):
        rep = verify_link(inverse(identity()), pairs=500, seed=1, grid=(32, 64), rho_iterates=1000)
        assert rep.rho == 0.0 and not np.signbit(rep.rho)

    @pytest.mark.parametrize("make", [
        lambda: quadratic_twist(0.3),
        lambda: conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5),
    ], ids=["twist", "offcenter"])
    def test_a_full_turn_loop_shifts_all_but_cal1(self, make):
        # compose(f, rotation(1)) is the map f on an isotopy changed by the
        # generator of pi_1: cal2, cal3 and rho shift by 1 and cal1 stays
        f = make()
        plain, looped = (verify_link(g, pairs=2000, seed=5, grid=(64, 128)) for g in (f, compose(f, rotation(1.0))))
        for key in ("cal2", "cal3", "rho"):
            assert abs(getattr(looped, key) - getattr(plain, key) - 1.0) <= 1e-12, key
        assert abs(looped.cal1 - plain.cal1) <= 1e-12

    # negative controls: a route shifted by twice the run's budget fails the
    # identity that reads it and leaves the other passing
    CONTROL = dict(pairs=2000, seed=7, grid=(64, 128), rho_iterates=20_000)

    @pytest.fixture(scope="class")
    def clean(self):
        rep = verify_link(quadratic_twist(0.3), **self.CONTROL)
        assert rep.pass_link and rep.pass_23
        return rep

    def test_a_shifted_cal3_fails_only_the_23_identity(self, monkeypatch, clean):
        cal3 = calabi.cal3_tilde
        monkeypatch.setattr(calabi, "cal3_tilde", lambda *a, **k: cal3(*a, **k) + 2.0 * clean.budget)
        rep = verify_link(quadratic_twist(0.3), **self.CONTROL)
        assert rep.budget == clean.budget
        assert (rep.pass_link, rep.pass_23) == (True, False)

    def test_a_shifted_rho_fails_only_the_link(self, monkeypatch, clean):
        rho = calabi.rotation_number

        def shifted(*args, **kwargs):
            est = rho(*args, **kwargs)
            return dataclasses.replace(est, value=est.value + 2.0 * clean.budget)

        monkeypatch.setattr(calabi, "rotation_number", shifted)
        rep = verify_link(quadratic_twist(0.3), **self.CONTROL)
        assert rep.budget == clean.budget
        assert (rep.pass_link, rep.pass_23) == (False, True)

    def test_flat_dict_field_order(self):
        rep = verify_link(rotation(0.1), pairs=500, seed=1, grid=(32, 64), rho_iterates=1000)
        flat = rep.to_flat_dict()
        keys = list(flat)
        assert keys[: len(rep.FLAT_FIELDS)] == list(rep.FLAT_FIELDS)
        assert all(k.startswith("diag_") for k in keys[len(rep.FLAT_FIELDS):])


class TestQuasimorphism:
    # cal2 and cal3 add along concatenated isotopies; the rotation number is a
    # homogeneous quasimorphism (|defect| <= 1), so cal1 = cal2 - rho misses
    # additivity by minus rho's defect.  f's boundary is a sheared rotation by
    # 0.35 and g a shear-conjugated golden rotation: their boundary maps do
    # not commute, and f o g and g o f lock at rho = 1
    GRID = (64, 128)
    RHO_ITERATES = 20_000
    # cal1 of f o f against 2 cal1(f): the linear boundary lift's error
    # reaches cal1 through rho_mu and cancels from the Richardson delta
    # (ROADMAP items 15 and 17), which reads exactly 0 on f.  The defect reads
    # 1.1e-7 at this grid; 1e-6 is the lift error allowed here
    LIFT_ALLOWANCE = 1e-6

    @pytest.fixture(scope="class")
    def routes(self):
        """map -> ((cal1, rho, cal3), (cal1's Richardson delta, rho's half-width))."""
        f = compose(rotation(0.35), FieldIsotopy(boundary_shear_conjugator(0.3), 1.0))
        g = conjugate(rotation(GOLDEN), boundary_shear_conjugator(0.3), 0.5)
        out = {}
        for key, m in {"f": f, "g": g, "fg": compose(f, g), "gf": compose(g, f), "ff": compose(f, f)}.items():
            c1, rho = cal1(m, grid=self.GRID), rotation_number(m.boundary_lift(), n=self.RHO_ITERATES)
            out[key] = (np.array([c1.value, rho.value, cal3_tilde(m, grid=self.GRID)]),
                        (c1.richardson_delta, rho.rigorous_halfwidth))
        return out

    @staticmethod
    def _defects(routes, a, b):
        """(cal1's, rho's, cal3's) additivity defect of a o b."""
        return routes[a + b][0] - routes[a][0] - routes[b][0]

    @pytest.mark.parametrize("a, b", [("f", "g"), ("g", "f")])
    def test_cal1_misses_additivity_by_minus_rhos_defect(self, routes, a, b):
        d1, d_rho, d3 = self._defects(routes, a, b)
        terms = sum(sum(routes[k][1]) for k in (a, b, a + b))
        assert abs(d1 + d_rho) <= terms  # -4.3e-6 (f o g), 6.5e-6 (g o f)
        assert 0.1 <= d_rho <= 1.0  # 0.1161: the boundaries do not commute
        assert abs(d3) <= 4 * np.spacing(routes[a + b][0][2])  # at most 5.6e-17

    def test_conjugate_composites_have_one_cal1(self, routes):
        # g o f = g (f o g) g^-1; the difference reads 2.4e-7
        (fg, (fg_delta, _)), (gf, (gf_delta, _)) = routes["fg"], routes["gf"]
        assert abs(fg[0] - gf[0]) <= fg_delta + gf_delta

    def test_cal1_is_additive_where_the_boundaries_commute(self, routes):
        d1, d_rho, d3 = self._defects(routes, "f", "f")
        (f_delta, f_halfwidth), (ff_delta, ff_halfwidth) = routes["f"][1], routes["ff"][1]
        assert abs(d_rho) <= 2 * f_halfwidth + ff_halfwidth
        assert abs(d1) <= 2 * f_delta + ff_delta + self.LIFT_ALLOWANCE
        assert abs(d3) <= 4 * np.spacing(routes["ff"][0][2])


class TestNearIdentityBounds:
    def test_cos_bound_on_sampled_pairs(self):
        from diskcal.experiments import sup_distance_to_identity
        from diskcal.flow import chord_windings
        from diskcal.geometry import uniform_disk_points

        bundle = quadratic_twist(0.3 * 0.02)
        eps = sup_distance_to_identity(bundle, order=1, grid=(64, 64))
        assert eps <= 0.5
        rng = np.random.default_rng(8)
        x, y = uniform_disk_points(1000, rng), uniform_disk_points(1000, rng)
        keep = np.abs(x - y) > 1e-6
        w, _ = chord_windings(bundle, x[keep], y[keep])
        assert np.max(np.abs(np.cos(2 * np.pi * w) - 1.0)) <= 2 * eps

    def test_far_pair_bound(self):
        # |cos(2 pi Ang) - 1| <= 4 sqrt(eps) for pairs at distance >= sqrt(eps)
        from diskcal.experiments import sup_distance_to_identity
        from diskcal.flow import chord_windings
        from diskcal.geometry import uniform_disk_points

        bundle = quadratic_twist(0.3 * 0.1)
        eps = sup_distance_to_identity(bundle, order=0, grid=(64, 64))
        assert eps <= 1.0 / 4.0
        rng = np.random.default_rng(9)
        x, y = uniform_disk_points(4000, rng), uniform_disk_points(4000, rng)
        keep = np.abs(x - y) >= np.sqrt(eps)
        w, _ = chord_windings(bundle, x[keep], y[keep])
        assert np.max(np.abs(np.cos(2 * np.pi * w) - 1.0)) <= 4 * np.sqrt(eps)


def _same_bits(a, b):
    """Equal arrays or results, bit for bit (NaN matches NaN in the same place)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBlocks:
    # every layer that takes many pairs or nodes evaluates them one
    # flow.STEP_BLOCK block at a time, so a pair's bits cannot depend on the
    # pairs it is evaluated with, nor on the block size
    ODD_BLOCK = 97  # leaves a ragged last block at every size below

    @pytest.mark.parametrize("bundle", [
        quadratic_twist(0.3),
        bump(4),
        compose(rotation(0.2), quadratic_twist(0.3)),
    ], ids=["twist", "bump4", "rotation_o_twist"])
    def test_a_pair_winds_to_the_same_bits_in_any_batch(self, bundle):
        rng = np.random.default_rng(5)
        x, y = uniform_disk_points(20_000, rng), uniform_disk_points(20_000, rng)
        batch, _ = chord_windings(bundle, x, y)
        alone, _ = chord_windings(bundle, x[:1000], y[:1000])
        assert np.count_nonzero(batch[:1000] != alone) == 0

    @pytest.mark.parametrize("make, circle", [
        (lambda: quadratic_twist(0.3), False),
        (lambda: compose(quadratic_twist(0.3), rotation(0.2)), False),
        (lambda: conjugate(rotation(0.3), off_center_conjugator(0.5), 0.4), False),
        (lambda: conjugate(rotation(0.5), boundary_shear_conjugator(0.3), 0.4), True),
        (lambda: FieldIsotopy(off_center_conjugator(0.5), 0.5), False),
    ], ids=["radial", "concat", "conjugated_chords", "conjugated_circle", "field_leaf"])
    def test_chord_windings_do_not_depend_on_the_block(self, monkeypatch, make, circle):
        # fresh bundles per block size, so no h^-1 image is shared through the memo
        if circle:
            x, y = np.exp(2j * np.pi * (np.arange(300) + 0.5) / 300), None
        else:
            x, y = interior_points(300, seed=61), interior_points(300, seed=62)
        default = chord_windings(make(), x, y)
        monkeypatch.setattr(flow, "STEP_BLOCK", self.ODD_BLOCK)
        small = chord_windings(make(), x, y)
        assert all(map(_same_bits, default, small))
        assert default[1].all()

    def test_calabi_routes_do_not_depend_on_the_block(self, monkeypatch):
        def routes():
            twist, bumped = quadratic_twist(0.3), bump(4)
            points = interior_points(40, seed=63)
            points = np.concatenate([points, points[:3]])  # 6 coincident pairs
            return (cal2_tilde(twist, PairSampler(n=300, seed=3)),
                    cal2_tilde(bumped, PairSampler(n=300, seed=3, strategy="stratified")),
                    c_mu_tilde(compose(twist, rotation(0.2)), points),
                    cal1(twist, grid=(32, 64)),
                    cal1(conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5), grid=(32, 64)))

        default = routes()
        monkeypatch.setattr(flow, "STEP_BLOCK", self.ODD_BLOCK)
        assert routes() == default

    def test_a_field_flow_pushes_a_frame_to_the_same_bits_in_any_block(self, monkeypatch):
        # three rows per complex component: an odd block leaves BLAS tail
        # entries unless the point count is evened
        iso = FieldIsotopy(off_center_conjugator(0.5), 0.5)
        z = interior_points(301, seed=65)
        default = iso.flow_wirtinger(1.0, z)
        monkeypatch.setattr(flow, "STEP_BLOCK", self.ODD_BLOCK)
        assert all(map(_same_bits, default, iso.flow_wirtinger(1.0, z)))

    def test_c_mu_sums_the_unordered_pairs_by_offset(self, monkeypatch):
        # the reference builds every pair at once, offset m = 1, 2, ... from
        # each i (the last offset n/2, for even n, from i < n/2 only), each
        # winding weighed 2/n^2; the ordered double sum over i != j at 1/n^2
        # agrees to rounding
        bundle = compose(quadratic_twist(0.3), rotation(0.2))
        points = interior_points(40, seed=64)
        points = np.concatenate([points, points[:2]])
        n = points.size
        i, j = np.array([(i, (i + m) % n) for m in range(1, n // 2 + 1)
                         for i in range(n // 2 if 2 * m == n else n)]).T
        x, y = points[i], points[j]
        keep = np.abs(x - y) >= 1e-12
        assert np.count_nonzero(~keep) == 2
        vals, _ = chord_windings(bundle, x[keep], y[keep])
        reference = float(np.sum((2.0 * (1.0 / n) * (1.0 / n)) * vals))
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        off = ii != jj
        x, y = points[ii[off]], points[jj[off]]
        keep = np.abs(x - y) >= 1e-12
        ordered, _ = chord_windings(bundle, x[keep], y[keep])
        monkeypatch.setattr(flow, "STEP_BLOCK", self.ODD_BLOCK)
        value = c_mu_tilde(bundle, points)
        assert value == reference
        assert abs(value - float(np.sum(((1.0 / n) * (1.0 / n)) * ordered))) <= 2e-16

    def test_an_empty_pair_set_gives_two_empty_arrays(self):
        empty = np.array([], dtype=complex)
        for y in (empty, None):
            values, ok = chord_windings(quadratic_twist(0.3), empty, y)
            assert values.shape == ok.shape == (0,)
            assert values.dtype == float and ok.dtype == bool


def _traced_peak(run):
    """Peak bytes traced by tracemalloc while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    # with every pair wound at once these calls peaked at 22.3 MiB (c-mu)
    # and 19.9 MiB (cal2); one block at a time they peak at 2.9 and 8.4 MiB,
    # and c-mu at 2.6 MiB once it winds each unordered pair once
    def test_c_mu_of_the_readme_map(self):
        bundle = compose(quadratic_twist(0.3), rotation(0.2))
        points = uniform_disk_points(300, np.random.default_rng(7 + 17))
        assert _traced_peak(lambda: c_mu_tilde(bundle, points)) < 6 * 2**20

    def test_stratified_cal2_of_bump4(self):
        bundle = bump(4)
        sampler = PairSampler(n=100_000, seed=7, strategy="stratified")
        assert _traced_peak(lambda: cal2_tilde(bundle, sampler)) < 14 * 2**20
