import numpy as np
import pytest

from diskcal.errors import StepTooCoarse
from diskcal.fields import HamiltonianField, hamiltonian_vector_field
from diskcal.circle import lift_from_isotopy
from diskcal.flow import (
    MAX_WINDING_DOUBLINGS,
    MIN_WINDING_STEPS,
    ConcatIsotopy,
    FieldIsotopy,
    MapBundle,
    _windings_refined,
    area_residual,
    chord_windings,
    flow_jacobian,
    flow_jacobian_fd,
    flow_map,
    position_windings,
)
from diskcal.geometry import GAP_LIMIT_TURNS
from diskcal.zoo import (
    boundary_shear_conjugator,
    conjugate,
    off_center_conjugator,
    quadratic_twist,
    rotation,
)

from conftest import interior_points


def rotation_field(alpha):
    return rotation(alpha).field


class TestHamiltonianVectorField:
    def test_rotation_generator_at_boundary(self):
        # H = alpha (1 - |z|^2) with alpha = 0.25 gives X(1, 0) = (0, pi/2)
        x = hamiltonian_vector_field(rotation_field(0.25), 0.0, np.array([1.0 + 0j]))[0]
        assert x == pytest.approx(0.5j * np.pi, abs=1e-12)

    def test_zero_generator(self):
        field = HamiltonianField(lambda t, z: np.zeros_like(np.real(z)), autonomous=True)
        x = hamiltonian_vector_field(field, 0.3, np.array([0.2 + 0.1j]))[0]
        assert abs(x) < 1e-9

    def test_radial_generator_tangent_with_known_speed(self):
        bundle = quadratic_twist(0.3)
        pts = interior_points(20, seed=4)
        x = hamiltonian_vector_field(bundle.field, 0.0, pts)
        s = np.abs(pts) ** 2
        dg = -0.6 * (1.0 - s)
        # tangent to each circle, magnitude 2 pi |g'| r
        assert np.max(np.abs(np.real(np.conj(pts) * x))) < 1e-12
        assert np.abs(x) == pytest.approx(2.0 * np.pi * np.abs(dg) * np.abs(pts), abs=1e-10)

    def test_finite_difference_gradient_fallback(self):
        exact = rotation_field(0.25)
        fd = HamiltonianField(exact._h, autonomous=True)
        pts = interior_points(30, seed=5)
        assert np.max(np.abs(fd.vector(0.0, pts) - exact.vector(0.0, pts))) < 1e-9


class TestFlowMap:
    def test_rk4_rotation_matches_exact_flow(self):
        iso = FieldIsotopy(rotation_field(0.25))
        z = flow_map(iso, 1.0, 1.0 + 0j)
        assert z == pytest.approx(1j, abs=1e-8)
        # boundary point stays on the circle
        assert abs(abs(z) - 1.0) < 1e-9

    def test_zero_field_identity(self):
        field = HamiltonianField(lambda t, z: np.zeros_like(np.real(z)), autonomous=True)
        iso = FieldIsotopy(field)
        for z in (0.0j, 0.3 + 0.4j, 1.0 + 0j):
            assert flow_map(iso, 0.7, z) == pytest.approx(z, abs=1e-15)

    def test_bump_fixes_complement_of_support(self):
        from diskcal.zoo import bump

        bundle = bump(4)
        pts = np.array([0.3 + 0.1j, 0.9j, -0.5 - 0.5j])  # all outside radius 1/4
        out = bundle.isotopy.flow(1.0, pts)
        assert np.max(np.abs(out - pts)) == 0.0

    def test_exact_and_integrated_twist_agree(self):
        bundle = quadratic_twist(0.3)
        rk4 = FieldIsotopy(bundle.field)
        pts = interior_points(50, seed=6)
        exact = bundle.isotopy.flow(1.0, pts)
        approx = rk4.flow(1.0, pts)
        assert np.max(np.abs(exact - approx)) < 1e-7

    def test_partial_time_matches_trajectory(self):
        iso = quadratic_twist(0.3).isotopy
        pts = interior_points(10, seed=7)
        times = np.array([0.0, 0.25, 0.5, 1.0])
        traj = iso.trajectory(pts, times)
        for k, t in enumerate(times):
            assert np.max(np.abs(iso.flow(t, pts) - traj[k])) < 1e-12

    def test_flow_composition_of_autonomous_pieces(self):
        a = quadratic_twist(0.2).isotopy
        b = rotation(0.15).isotopy
        both = ConcatIsotopy([b, a])  # b first, then a
        pts = interior_points(25, seed=8)
        assert np.max(np.abs(both.flow(1.0, pts) - a.flow(1.0, b.flow(1.0, pts)))) < 1e-9

    def test_inverse_undoes_flow(self):
        for iso in (quadratic_twist(0.3).isotopy, FieldIsotopy(rotation_field(0.3))):
            pts = interior_points(20, seed=9)
            back = iso.inverse().flow(1.0, iso.flow(1.0, pts))
            assert np.max(np.abs(back - pts)) < 1e-7


class TestJacobians:
    def test_rotation_jacobian_is_rotation_matrix(self):
        iso = FieldIsotopy(rotation_field(0.3))
        j = flow_jacobian(iso, 1.0, 0.4 + 0.2j)
        c, s = np.cos(2 * np.pi * 0.3), np.sin(2 * np.pi * 0.3)
        assert np.allclose([j.a, j.b, j.c, j.d], [c, -s, s, c], atol=1e-8)
        assert j.det() == pytest.approx(1.0, abs=1e-8)

    def test_identity_field_gives_identity_matrix(self):
        field = HamiltonianField(lambda t, z: np.zeros_like(np.real(z)), autonomous=True)
        j = flow_jacobian(FieldIsotopy(field), 1.0, 0.2 + 0.2j)
        assert np.allclose([j.a, j.b, j.c, j.d], [1, 0, 0, 1], atol=1e-12)

    def test_twist_determinant_and_fd_cross_check(self):
        iso = FieldIsotopy(quadratic_twist(0.3).field)
        z = 0.5 + 0j
        j = flow_jacobian(iso, 1.0, z)
        assert j.det() == pytest.approx(1.0, abs=1e-6)
        j_fd = flow_jacobian_fd(iso, 1.0, z)
        assert np.allclose([j.a, j.b, j.c, j.d], [j_fd.a, j_fd.b, j_fd.c, j_fd.d], atol=1e-6)

    def test_variational_matches_finite_differences_at_random_points(self):
        iso = FieldIsotopy(off_center_conjugator(0.4))
        pts = interior_points(50, seed=10, rmax=0.9)
        _, p, q = iso.flow_wirtinger(1.0, pts)
        for k in range(0, 50, 7):
            j_fd = flow_jacobian_fd(iso, 1.0, complex(pts[k]))
            a = (j_fd.a + j_fd.d) / 2.0 + 1j * (j_fd.c - j_fd.b) / 2.0
            b = (j_fd.a - j_fd.d) / 2.0 + 1j * (j_fd.c + j_fd.b) / 2.0
            assert p[k] == pytest.approx(a, abs=2e-5)
            assert q[k] == pytest.approx(b, abs=2e-5)

    def test_radial_jacobian_exact_determinant(self):
        iso = quadratic_twist(0.3).isotopy
        pts = interior_points(100, seed=11)
        _, p, q = iso.flow_wirtinger(1.0, pts)
        assert np.max(np.abs(np.abs(p) ** 2 - np.abs(q) ** 2 - 1.0)) < 1e-12


class TestAreaResidual:
    def test_rotation_is_isometry(self):
        assert area_residual(rotation(0.3), 100, seed=0) < 1e-8

    def test_integrated_twist_within_budget(self):
        bundle = MapBundle(isotopy=FieldIsotopy(quadratic_twist(0.3).field), name="rk4 twist")
        assert area_residual(bundle, 100, seed=0) < 1e-6

    def test_non_symplectic_control_fails_loudly(self, broken_bundle):
        assert area_residual(broken_bundle, 100, seed=0) > 1e-2


class TestChordWindings:
    def test_rigid_rotation_all_pairs(self):
        iso = rotation(0.3).isotopy
        x = interior_points(50, seed=12)
        y = interior_points(50, seed=13)
        vals, ok = chord_windings(iso, x, y)
        assert ok.all()
        assert np.max(np.abs(vals - 0.3)) < 1e-10

    def test_many_turn_rotation_needs_and_gets_refinement(self):
        iso = rotation(12.7).isotopy
        vals, ok = chord_windings(iso, np.array([0.5 + 0j]), np.array([-0.3j]))
        assert ok.all()
        assert vals[0] == pytest.approx(12.7, abs=1e-9)

    def test_colliding_pair_raises(self):
        iso = rotation(0.2).isotopy
        with pytest.raises(StepTooCoarse):
            chord_windings(iso, np.array([0.1 + 0j]), np.array([0.1 + 1e-14j]))

    def test_fast_bump_pairs_against_winding_geometry(self):
        from diskcal.zoo import bump

        bundle = bump(4)
        profile = bundle.isotopy.profile
        r = 0.8 / 4.0  # inside the transition annulus
        w_exact = float(profile.w_of_s(np.array([r * r]))[0])
        assert abs(w_exact) > 10  # genuinely many turns
        # a fixed point enclosed by the fast circle is lapped once per turn
        vals, ok = chord_windings(bundle.isotopy, np.array([r + 0j]), np.array([0.05 + 0j]))
        assert ok.all()
        assert vals[0] == pytest.approx(w_exact, abs=0.1)
        # a fixed point outside the circle sees only bounded wobble
        vals, ok = chord_windings(bundle.isotopy, np.array([r + 0j]), np.array([0.9 + 0j]))
        assert ok.all()
        assert abs(vals[0]) < 0.05


def _tracked_positions(iso, pts):
    vals, ok = _windings_refined(iso, pts, None, MIN_WINDING_STEPS, MAX_WINDING_DOUBLINGS,
                                 GAP_LIMIT_TURNS)
    assert ok.all()
    return vals


class TestConjugatedPositionWindings:
    # the boundary lift of h f h^-1 composed from windings of f and h, against
    # the conjugated trajectory tracked directly
    @pytest.mark.parametrize("conjugator, tol", [
        (off_center_conjugator(0.5), 1e-14),  # h fixes S^1 pointwise
        (boundary_shear_conjugator(0.3), 1e-10),  # h moves S^1
    ], ids=["off_center", "shear"])
    def test_composed_lift_matches_tracking(self, conjugator, tol):
        iso = conjugate(rotation(0.5), conjugator, 0.4).isotopy
        pts = np.exp(2j * np.pi * np.arange(256) / 256)
        vals, ok = position_windings(iso, pts)
        assert ok.all()
        assert np.max(np.abs(vals - _tracked_positions(iso, pts))) <= tol

    def test_interior_points_never_take_the_parts_path(self):
        iso = conjugate(rotation(0.5), boundary_shear_conjugator(0.3), 0.4).isotopy
        circle = np.exp(2j * np.pi * np.arange(8) / 8)
        assert iso.winding_parts(circle, None) is not None
        pts = interior_points(8, seed=21)
        for x in (pts, np.concatenate([circle, [0.5 + 0j]])):
            assert iso.winding_parts(x, None) is None
            vals, _ = position_windings(iso, x)
            assert np.array_equal(vals, _tracked_positions(iso, x))


class TestBoundaryLiftCache:
    def test_cached_per_sample_count(self):
        bundle = conjugate(rotation(0.5), boundary_shear_conjugator(0.3), 0.4)
        coarse = bundle.boundary_lift(256)
        fine = bundle.boundary_lift(4096)
        assert fine is not coarse and bundle.boundary_lift(4096) is fine
        xs = (np.arange(64) + 0.3) / 64
        direct = lift_from_isotopy(bundle.isotopy, n_samples=4096)
        assert np.array_equal(fine.delta(xs), direct.delta(xs))
