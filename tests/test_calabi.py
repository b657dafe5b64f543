import numpy as np
import pytest

from diskcal.calabi import (
    DiskMeasure,
    PairSampler,
    action_function,
    angle_function,
    birkhoff_angle,
    c_mu_tilde,
    cal1,
    cal2_tilde,
    cal3_tilde,
    composite_gauss_radii,
    uniform_disk_measure,
    verify_link,
)
from diskcal.circle import BoundaryMeasure
from diskcal.errors import BoundaryNotConstant, NotAreaPreserving, OrbitCollision
from diskcal.fields import HamiltonianField
from diskcal.zoo import (
    boundary_shear_conjugator,
    bump,
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

from conftest import interior_points

GOLDEN = 0.6180339887498949


def twist_action(z, beta=0.3):
    # closed form A = g(s) - s g'(s) + g'(1) for g(s) = beta (1-s)^2
    s = np.abs(np.asarray(z)) ** 2
    return beta * (1.0 - s**2)


class TestActionFunction:
    def test_identity_vanishes(self):
        a = action_function(identity())
        pts = interior_points(30, seed=1)
        assert np.max(np.abs(a(pts))) < 1e-12

    def test_rotation_vanishes(self):
        a = action_function(rotation(0.3))
        pts = interior_points(30, seed=2)
        assert np.max(np.abs(a(pts))) < 1e-12

    def test_twist_closed_form(self):
        a = action_function(quadratic_twist(0.3))
        pts = interior_points(50, seed=3)
        assert np.max(np.abs(a(pts) - twist_action(pts))) < 1e-6
        assert a(0j) == pytest.approx(0.3, abs=1e-9)

    def test_primitive_gradient_oracle(self):
        # finite differences of A against the exact pullback defect f*l - l
        for bundle in (quadratic_twist(0.3), compose(quadratic_twist(0.3), rotation(0.2))):
            a = action_function(bundle)
            pts = interior_points(100, seed=4, rmax=0.9)
            h = 1e-5
            fd_u = (a.a0(pts + h) - a.a0(pts - h)) / (2 * h)
            fd_v = (a.a0(pts + 1j * h) - a.a0(pts - 1j * h)) / (2 * h)
            du, dv = a.pullback_defect(pts)
            assert np.max(np.abs(fd_u - du)) < 1e-5
            assert np.max(np.abs(fd_v - dv)) < 1e-5

    def test_path_independence_l_shaped(self):
        a = action_function(quadratic_twist(0.3))
        pts = interior_points(20, seed=5, rmax=0.85)
        for z in pts:
            assert a.a0_along_polyline(complex(z)) == pytest.approx(a.a0(z), abs=1e-6)

    def test_zero_boundary_average(self):
        bundle = conjugate(rotation(0.5), boundary_shear_conjugator(0.3), 0.4)
        mu = invariant_boundary_pair(bundle, 0.0)
        a = action_function(bundle, mu=mu)
        assert a.mu.integrate(lambda x: np.ones_like(x)) == pytest.approx(1.0)
        vals = a(np.exp(2j * np.pi * mu.points))
        assert float(np.sum(mu.weights * vals)) == pytest.approx(0.0, abs=1e-8)

    def test_non_area_preserving_rejected(self, broken_bundle):
        with pytest.raises(NotAreaPreserving):
            action_function(broken_bundle, mu=BoundaryMeasure(np.array([0.0]), np.array([1.0])))


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
        a = action_function(bundle, mu=invariant_boundary_pair(bundle, 0.0))
        profile = a.a0(np.exp(2j * np.pi * np.linspace(0, 1, 64, endpoint=False)))
        assert np.max(profile) - np.min(profile) > 1e-3

    def test_non_area_preserving_rejected(self, broken_bundle):
        with pytest.raises(NotAreaPreserving):
            cal1(broken_bundle, mu=BoundaryMeasure(np.array([0.0]), np.array([1.0])))

    @pytest.mark.parametrize("bundle", [quadratic_twist(0.3), bump(4)], ids=["twist", "bump4"])
    def test_fubini_matches_polar_average_of_pointwise_primitive(self, bundle):
        # brute force: the pointwise radial primitive a0 averaged over a polar
        # product grid, against cal1's single radial rule per ray (Fubini)
        a = action_function(bundle)
        res = cal1(bundle, mu=a.mu)
        r, w = composite_gauss_radii(64, bundle.field.radial_breakpoints)
        units = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
        a0 = a.a0((r[:, None] * units[None, :]).ravel()).reshape(r.size, units.size)
        area_a0 = float(np.sum(w * 2.0 * r * np.mean(a0, axis=1)))
        assert abs(res.value + res.c_mu - area_a0) <= 1e-10
        assert abs(res.c_mu - a.c_mu) <= 1e-10


class TestAngleFunction:
    def test_rotation_every_chord(self):
        bundle = rotation(0.3)
        for x, y in [(0.1 + 0j, 0.5j), (-0.7j, 0.2 + 0.2j)]:
            assert angle_function(bundle, x, y) == pytest.approx(0.3, abs=1e-12)

    def test_identity_zero(self):
        assert angle_function(identity(), 0.3 + 0j, -0.2j) == 0.0

    def test_twist_origin_chord(self):
        bundle = quadratic_twist(0.3)
        assert angle_function(bundle, 0j, 0.5 + 0j) == pytest.approx(0.45, abs=1e-9)

    def test_diagonal_guard(self):
        with pytest.raises(ValueError):
            angle_function(rotation(0.3), 0.1 + 0j, 0.1 + 1e-12j)

    def test_cocycle_identity(self):
        f, g = quadratic_twist(0.3), rotation(0.2)
        fg = compose(f, g)
        rng = np.random.default_rng(6)
        from diskcal.geometry import uniform_disk_points
        from diskcal.flow import chord_windings

        x, y = uniform_disk_points(1000, rng), uniform_disk_points(1000, rng)
        keep = np.abs(x - y) > 1e-6
        x, y = x[keep], y[keep]
        lhs, _ = chord_windings(fg.isotopy, x, y)
        part1, _ = chord_windings(g.isotopy, x, y)
        gx, gy = g(x), g(y)
        part2, _ = chord_windings(f.isotopy, gx, gy)
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
        k = 4
        sampler = PairSampler(n=1000, seed=3, strategy="stratified", n_strata=k)
        _, _, _, slices, _ = sampler.sample_pairs()
        idx = np.arange(0, 1000, 3)
        x, y = sampler.redraw(np.random.default_rng(1), idx)
        for cell, sl in enumerate(slices):
            i, j = divmod(cell, k)
            sel = (idx >= sl.start) & (idx < sl.stop)
            assert np.any(sel)
            # stratum (i, j) is the annulus pair k|x|^2 in [i, i+1], k|y|^2 in [j, j+1]
            assert np.all(np.abs(k * np.abs(x[sel]) ** 2 - (i + 0.5)) <= 0.5 + 1e-12)
            assert np.all(np.abs(k * np.abs(y[sel]) ** 2 - (j + 0.5)) <= 0.5 + 1e-12)

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

    def test_boundary_constancy_enforced(self):
        bad = HamiltonianField(lambda t, z: np.real(z), autonomous=True)
        with pytest.raises(BoundaryNotConstant):
            cal3_tilde(bad)

    def test_conjugated_generator_integrates_to_alpha(self):
        bundle = conjugated_rotation(0.3, off_center_conjugator(0.5), 0.5)
        assert cal3_tilde(bundle, grid=(64, 128)) == pytest.approx(0.3, abs=1e-6)


class TestCmu:
    def test_lebesgue_sample_matches_rotation(self):
        measure = uniform_disk_measure(200, seed=5)
        val = c_mu_tilde(rotation(0.3), measure)
        # diagonal pairs are skipped: the plain double sum carries 1 - 1/N mass
        assert val == pytest.approx(0.3 * (1 - 1.0 / 200), abs=1e-9)

    def test_single_point_measure_degenerate(self):
        measure = DiskMeasure(points=np.array([0.2 + 0j]), weights=np.array([1.0]))
        assert c_mu_tilde(rotation(0.3), measure) == 0.0

    def test_invariant_circle_windings_constant(self):
        bundle = quadratic_twist(0.3)
        r = 0.5
        pts = r * np.exp(2j * np.pi * np.arange(6) / 6.0)
        expected = 0.6 * (1 - r * r)
        for i in range(6):
            for j in range(i + 1, 6):
                assert angle_function(bundle, pts[i], pts[j]) == pytest.approx(expected, abs=1e-9)

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
        wts = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
        mu = DiskMeasure(points=pts, weights=wts)
        conj_bundle = conjugate(tw, off_center_conjugator(0.4), 0.3)
        pushed = mu.pushforward(conj_bundle.isotopy.h_isotopy.flow1)
        lhs = c_mu_tilde(tw, mu)
        rhs = c_mu_tilde(conj_bundle, pushed)
        assert rhs == pytest.approx(lhs, abs=1e-6)


class TestBirkhoff:
    def test_rotation_average(self):
        assert birkhoff_angle(rotation(0.3), 0.2 + 0j, -0.4j, 10) == pytest.approx(0.3, abs=1e-12)

    def test_twist_invariant_circle(self):
        val = birkhoff_angle(quadratic_twist(0.3), 0j, 0.5 + 0j, 20)
        assert val == pytest.approx(0.45, abs=1e-9)

    def test_identity_zero(self):
        assert birkhoff_angle(identity(), 0.1 + 0j, 0.5j, 7) == 0.0

    def test_collision_guard(self):
        with pytest.raises(OrbitCollision):
            birkhoff_angle(identity(), 0.1 + 0j, 0.1 + 5e-10j, 5)


class TestVerifyLink:
    def test_rotation_report(self):
        rep = verify_link(rotation(0.3), pairs=2000, seed=1, grid=(64, 128), rho_iterates=10_000)
        assert rep.cal1 == pytest.approx(0.0, abs=1e-6)
        assert rep.cal2 == pytest.approx(0.3, abs=1e-9)
        assert rep.cal3 == pytest.approx(0.3, abs=1e-9)
        assert rep.rho == pytest.approx(0.3, abs=1e-9)
        assert rep.pass_link and rep.pass_23

    def test_flat_dict_field_order(self):
        rep = verify_link(rotation(0.1), pairs=500, seed=1, grid=(32, 64), rho_iterates=1000)
        flat = rep.to_flat_dict()
        keys = list(flat)
        assert keys[: len(rep.FLAT_FIELDS)] == list(rep.FLAT_FIELDS)
        assert all(k.startswith("diag_") for k in keys[len(rep.FLAT_FIELDS):])


class TestNearIdentityBounds:
    def test_cos_bound_on_sampled_pairs(self):
        from diskcal.experiments import sup_distance_to_identity
        from diskcal.flow import chord_windings
        from diskcal.geometry import uniform_disk_points

        bundle = quadratic_twist(0.3 * 0.02)
        eps = sup_distance_to_identity(bundle, order=1, grid=(64, 64), include_lift=True).value
        assert eps <= 0.5
        rng = np.random.default_rng(8)
        x, y = uniform_disk_points(1000, rng), uniform_disk_points(1000, rng)
        keep = np.abs(x - y) > 1e-6
        w, _ = chord_windings(bundle.isotopy, x[keep], y[keep])
        assert np.max(np.abs(np.cos(2 * np.pi * w) - 1.0)) <= 2 * eps

    def test_far_pair_bound(self):
        # |cos(2 pi Ang) - 1| <= 4 sqrt(eps) for pairs at distance >= sqrt(eps)
        from diskcal.experiments import sup_distance_to_identity
        from diskcal.flow import chord_windings
        from diskcal.geometry import uniform_disk_points

        bundle = quadratic_twist(0.3 * 0.1)
        eps = sup_distance_to_identity(bundle, order=0, grid=(64, 64)).value
        assert eps <= 1.0 / 4.0
        rng = np.random.default_rng(9)
        x, y = uniform_disk_points(4000, rng), uniform_disk_points(4000, rng)
        keep = np.abs(x - y) >= np.sqrt(eps)
        w, _ = chord_windings(bundle.isotopy, x[keep], y[keep])
        assert np.max(np.abs(np.cos(2 * np.pi * w) - 1.0)) <= 4 * np.sqrt(eps)
