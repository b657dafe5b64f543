import copy
import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diskcal.errors import PointOutsideDisk, StepTooCoarse
from diskcal.calabi import PairSampler, cal2_tilde
from diskcal.circle import lift_from_isotopy, rotation_number
from diskcal.flow import (
    DOP853_A,
    DOP853_B,
    DOP853_ORDER,
    DOP853_SPANS,
    DOP853_STAGES,
    DOP853_WEIGHT_SPAN,
    FIXED_CIRCLE_TOL,
    H_INVERSE_MEMO_SIZE,
    MAX_CALIBRATION_DOUBLINGS,
    MAX_DOUBLING_CONTRACTION,
    MIN_WINDING_STEPS,
    TOL_ODE,
    _FRAME,
    ConcatIsotopy,
    ConjugatedIsotopy,
    ConjugatorPair,
    FieldIsotopy,
    RadialIsotopy,
    _rows,
    _tracked_windings,
    _windings_at,
    area_residual,
    chord_windings,
    position_windings,
)
from diskcal.geometry import TOL_BOUNDARY, TWO_PI, wirtinger_apply, wirtinger_det
from diskcal.zoo import (
    boundary_shear_conjugator,
    bump,
    compose,
    conjugate,
    conjugated_rotation,
    identity,
    iterate,
    off_center_conjugator,
    quadratic_twist,
    rotation,
)

from conftest import (
    BrokenField,
    DifferencedField,
    central_vector_wirtinger,
    gradient_at,
    interior_points,
    vector_at,
    wirtinger_at,
)


def rotation_field(alpha):
    return rotation(alpha).field


class TestHamiltonianVectorField:
    def test_rotation_generator_at_boundary(self):
        # H = alpha (1 - |z|^2) with alpha = 0.25 gives X(1, 0) = (0, pi/2)
        x = vector_at(rotation_field(0.25), 1.0)[0]
        assert x == pytest.approx(0.5j * np.pi, abs=1e-12)

    def test_zero_generator(self):
        field = DifferencedField(lambda z: np.zeros_like(np.real(z)))
        x = vector_at(field, 0.2 + 0.1j)[0]
        assert abs(x) < 1e-9

    def test_radial_generator_tangent_with_known_speed(self):
        bundle = quadratic_twist(0.3)
        pts = interior_points(20, seed=4)
        x = vector_at(bundle.field, pts)
        s = np.abs(pts) ** 2
        dg = -0.6 * (1.0 - s)
        # tangent to each circle, magnitude 2 pi |g'| r
        assert np.max(np.abs(np.real(np.conj(pts) * x))) < 1e-12
        assert np.abs(x) == pytest.approx(2.0 * np.pi * np.abs(dg) * np.abs(pts), abs=1e-10)

    @pytest.mark.parametrize("bundle", [rotation(0.3), quadratic_twist(0.3), bump(4)],
                             ids=["rotation", "twist", "bump4"])
    def test_analytic_derivatives_match_central_differences(self, bundle):
        # radii clear of bump(4)'s kinks at 1/8 and 1/4
        r = np.array([0.05, 0.1, 0.14, 0.17, 0.2, 0.23, 0.3, 0.6, 0.9])
        pts = (r[:, None] * np.exp(2j * np.pi * np.arange(7) / 7)[None, :]).ravel()
        field = bundle.field
        grad = gradient_at(field, pts)
        grad_fd = gradient_at(DifferencedField(field.value), pts)
        ar, ai, br, bi = central_vector_wirtinger(field.vector, pts.real, pts.imag)
        pair_fd = (ar + 1j * ai, br + 1j * bi)
        for exact, fd in zip((grad, *wirtinger_at(field, pts)), (grad_fd, *pair_fd)):
            assert np.max(np.abs(exact - fd)) <= 1e-7 * (1.0 + np.max(np.abs(exact)))

    def test_differenced_field_matches_the_analytic_one(self):
        exact = rotation_field(0.25)
        fd = DifferencedField(exact.value)
        pts = interior_points(30, seed=5)
        assert np.max(np.abs(vector_at(fd, pts) - vector_at(exact, pts))) < 1e-9


class TestFlowMap:
    def test_rk4_rotation_matches_exact_flow(self):
        iso = FieldIsotopy(rotation_field(0.25))
        z = iso.flow(1.0, 1.0 + 0j)
        assert z == pytest.approx(1j, abs=1e-8)
        # boundary point stays on the circle
        assert abs(abs(z) - 1.0) < 1e-9

    def test_zero_field_identity(self):
        field = DifferencedField(lambda z: np.zeros_like(np.real(z)))
        iso = FieldIsotopy(field)
        for z in (0.0j, 0.3 + 0.4j, 1.0 + 0j):
            assert iso.flow(0.7, z) == pytest.approx(z, abs=1e-15)

    def test_field_flow_refuses_negative_and_decreasing_times(self):
        # a DOP853 flow runs forward from t = 0; the radial isotopy of the
        # same twist flows backward exactly
        iso = FieldIsotopy(quadratic_twist(0.3).field)
        z = 0.3 + 0.2j
        assert quadratic_twist(0.3).flow(-0.5, z) == pytest.approx(0.1788 - 0.3131j, abs=1e-4)
        for call in (lambda: iso.flow(-0.5, z), lambda: iso.flow_wirtinger(-0.5, z),
                     lambda: iso.trajectory(z, [0.0, 0.5, 0.25])):
            with pytest.raises(ValueError):
                call()

    def test_bump_fixes_complement_of_support(self):
        from diskcal.zoo import bump

        bundle = bump(4)
        pts = np.array([0.3 + 0.1j, 0.9j, -0.5 - 0.5j])  # all outside radius 1/4
        out = bundle.flow(1.0, pts)
        assert np.max(np.abs(out - pts)) == 0.0

    def test_exact_and_integrated_twist_agree(self):
        bundle = quadratic_twist(0.3)
        integrated = FieldIsotopy(bundle.field)
        pts = interior_points(50, seed=6)
        exact = bundle.flow(1.0, pts)
        approx = integrated.flow(1.0, pts)
        assert np.max(np.abs(exact - approx)) < 1e-7

    def test_partial_time_matches_trajectory(self):
        iso = quadratic_twist(0.3)
        pts = interior_points(10, seed=7)
        times = np.array([0.0, 0.25, 0.5, 1.0])
        traj = iso.trajectory(pts, times)
        for k, t in enumerate(times):
            assert np.max(np.abs(iso.flow(t, pts) - traj[k])) < 1e-12

    def test_flow_composition_of_autonomous_pieces(self):
        a = quadratic_twist(0.2)
        b = rotation(0.15)
        both = ConcatIsotopy([b, a])  # b first, then a
        pts = interior_points(25, seed=8)
        assert np.max(np.abs(both.flow(1.0, pts) - a.flow(1.0, b.flow(1.0, pts)))) < 1e-9

    def test_inverse_undoes_flow(self, broken_bundle):
        # a field leaf's inverse flows its own generator backwards, whatever
        # field it is (the broken field has no Hamiltonian)
        conjugator = FieldIsotopy(off_center_conjugator(0.5), 0.5)
        for iso in (quadratic_twist(0.3), FieldIsotopy(rotation_field(0.3)), conjugator, broken_bundle):
            pts = interior_points(20, seed=9)
            back = iso.inverse().flow(1.0, iso.flow(1.0, pts))
            assert np.max(np.abs(back - pts)) < 1e-7

    def test_time_tau_map_is_the_flow_of_tau_h(self):
        # tau = 0.5 scales each step by a power of two, which commutes with
        # rounding, so H flowed for time 0.5 is bitwise the flow of H / 2
        # (off_center(0.25) is off_center(0.5) / 2), forward and inverse
        pts = interior_points(50, seed=18, rmax=1.0)
        pairs = [(FieldIsotopy(off_center_conjugator(0.5), 0.5), FieldIsotopy(off_center_conjugator(0.25)))]
        pairs.append(tuple(iso.inverse() for iso in pairs[0]))
        for timed, halved in pairs:
            assert timed.n_steps == halved.n_steps
            for t in (0.5, 1.0):
                assert np.array_equal(timed.flow(t, pts), halved.flow(t, pts))
                for a, b in zip(timed.flow_wirtinger(t, pts), halved.flow_wirtinger(t, pts)):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("conjugator", [off_center_conjugator(0.5), boundary_shear_conjugator(0.3)],
                             ids=["off_center", "shear"])
    def test_inverse_keeps_the_step_count(self, conjugator):
        iso = FieldIsotopy(conjugator, 0.5)
        assert iso.inverse().n_steps == iso.n_steps


class TestCalibration:
    # calibration must see a generator supported inside r < 1/4: its flow
    # meets tol_ode there against the closed form, or calibration raises.
    # bump(4) itself raises StepTooCoarse after the 8192-step probe (~7 s), so
    # the fields here are slowed down until the ladder settles.
    INNER = np.array([0.2, 0.15j, 0.14 + 0.1j, -0.05 - 0.08j, 0.1 - 0.1j])

    @pytest.mark.parametrize("scale", [1.0 / 64, 1.0 / 16])
    def test_inner_support_flows_or_raises(self, scale):
        bundle = bump(4)
        try:
            iso = FieldIsotopy(bundle.field, scale)
        except StepTooCoarse:
            return
        # the time-1 map of scale * H is the time-scale map of H
        exact = bundle.flow(scale, self.INNER)
        assert np.max(np.abs(iso.flow(1.0, self.INNER) - exact)) <= 10 * TOL_ODE

    @pytest.mark.parametrize("conjugator, tau", [
        (off_center_conjugator(0.4), 0.3), (off_center_conjugator(0.5), 0.4),
        (off_center_conjugator(0.5), 0.5), (boundary_shear_conjugator(0.3), 0.5),
        (off_center_conjugator(0.5), 1.0), (boundary_shear_conjugator(0.3), 1.0),
    ], ids=lambda v: getattr(v, "name", v))
    def test_conjugators_settle_low_with_equal_counts(self, conjugator, tau):
        iso = conjugated_rotation(0.6180339887498949, conjugator, tau)
        assert iso.pair.h.n_steps == iso.pair.h_inverse.n_steps
        assert iso.pair.h.n_steps == (8 if tau < 1.0 else 16)

    @staticmethod
    def _scripted_ladder(monkeypatch, values):
        # probe images equal to ``values[i]`` at the i-th probe (NaN: left the disk)
        probed = []

        def probe(iso, probes, n):
            probed.append(n)
            return np.full(probes.shape, values[len(probed) - 1], dtype=complex)

        monkeypatch.setattr(FieldIsotopy, "_probe", probe)
        return probed

    def test_a_ladder_that_cannot_reach_tol_stops_early(self, monkeypatch):
        # bump(4)'s ladder at 4, 8, ..., 16384 steps: its measured differences
        # 0.28 (64), 0.31 (512), 1.03e-2, 0.169, 9.87e-3, 1.96e-5 (8192), 3.9e-8
        values = [np.nan, np.nan, np.nan, 0.0, 0.28, np.nan, 0.28, 0.59, 0.6003, 0.7693,
                  0.77917, 0.7791896, 0.779189639]
        probed = self._scripted_ladder(monkeypatch, values)
        with pytest.raises(StepTooCoarse, match="8192 steps"):
            FieldIsotopy(bump(4).field)
        # 1.96e-5 with one doubling left exceeds TOL_ODE * 2^10: no 16384 probe
        assert probed[-1] == 8192 and len(probed) == 12

    def test_a_ladder_that_converges_on_the_last_doubling(self, monkeypatch):
        # each difference just inside the bound for the doublings left after it
        left = np.arange(MAX_CALIBRATION_DOUBLINGS - 1, -1, -1)
        diffs = np.minimum(0.5, 0.99 * TOL_ODE * MAX_DOUBLING_CONTRACTION**left)
        probed = self._scripted_ladder(monkeypatch, np.cumsum(np.concatenate([[0.0], diffs])))
        iso = FieldIsotopy(bump(4).field)
        assert iso.n_steps == 4 << MAX_CALIBRATION_DOUBLINGS == probed[-1]

    def test_a_resolution_that_leaves_the_disk_is_unresolved(self):
        # at 4 steps the shear flow at tau = 1 takes two S^1 probes to
        # |z| = 1 + 1.3e-9; calibration doubles past it, a flow still raises
        bundle = conjugated_rotation(0.6180339887498949, boundary_shear_conjugator(0.3), tau=1.0)
        h = bundle.pair.h
        assert h.n_steps == 16
        pts = np.exp(2j * np.pi * np.array([1, 3]) / 8)
        assert np.max(np.abs(bundle(pts))) <= 1.0
        h.n_steps = 4
        with pytest.raises(PointOutsideDisk):
            h.flow(1.0, pts)

    def test_a_field_that_leaves_the_disk_raises(self):
        # H = 0.3 v is not constant on S^1: its flow translates the disk
        leaky = DifferencedField(lambda z: 0.3 * np.imag(z), name="leaky")
        with pytest.raises(PointOutsideDisk):
            FieldIsotopy(leaky)


class TestDOP853:
    # the tableau is transcribed as literals; these are its consistency
    # conditions and the convergence order it must show
    def test_weights_sum_to_one_and_stages_are_explicit(self):
        assert DOP853_B.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.triu(DOP853_A) == 0.0)

    def test_matches_the_published_coefficients(self):
        ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        n = ref.N_STAGES
        assert np.array_equal(DOP853_A, ref.A[:n, :n])
        assert np.array_equal(DOP853_B, ref.B)

    def test_spans_cover_every_nonzero_coupling(self):
        # a span reads only stages computed before its own, and everything
        # the stepper skips outside the spans is an exact zero of the tableau
        rows = [(DOP853_A[i], i) for i in range(1, DOP853_STAGES)] + [(DOP853_B, DOP853_STAGES)]
        spans = list(DOP853_SPANS) + [DOP853_WEIGHT_SPAN]
        assert sorted(DOP853_ORDER) == list(range(DOP853_STAGES))
        for (full, computed), (coefficients, slots) in zip(rows, spans):
            read = list(DOP853_ORDER[slots])
            assert set(read) <= set(range(computed))
            assert np.array_equal(coefficients, full[read])
            assert np.all(np.delete(full, read) == 0.0)
        assert sum(len(c) for c, _ in spans) == 62  # of 78 in the full rows

    def test_observed_order_of_flow_and_jacobian(self):
        # off-center(0.5) at tau = 1: the error against 256 steps falls by
        # 2^8 per halving (2^7.5 asked; finer steps reach rounding)
        iso = FieldIsotopy(off_center_conjugator(0.5))
        z = interior_points(64, seed=61, rmax=0.999)

        def at_steps(n):
            stepped = copy.copy(iso)
            stepped.n_steps = n
            return stepped

        def with_jacobian(n):
            return at_steps(n).flow_wirtinger(1.0, z)

        def flow_only(n):
            return at_steps(n).flow(1.0, z)

        ref = with_jacobian(256)
        for n in (4, 8):
            coarse, fine = with_jacobian(n), with_jacobian(2 * n)
            assert np.array_equal(flow_only(n), coarse[0]) and np.array_equal(flow_only(2 * n), fine[0])
            for c, f, r in zip(coarse, fine, ref):
                ratio = np.max(np.abs(c - r)) / np.max(np.abs(f - r))
                assert np.log2(ratio) >= 7.5, (n, ratio)

    @pytest.mark.parametrize("field, tau, jacobian_tol_on_s1", [
        (off_center_conjugator(0.5), 1.0, 1e-14),
        (boundary_shear_conjugator(0.3), 1.0, 1e-14),
        # the field flowed backwards, which is the inverse (reversed) isotopy
        (off_center_conjugator(0.5), -1.0, 1e-14),
        (quadratic_twist(0.3).field, 1.0, 1e-14),
        # a central-difference pair moves by ~ulp / H_GRAD_STEP when its point moves an ulp
        (BrokenField(quadratic_twist(0.3).field), 1.0, 1e-9),
    ], ids=["offcenter", "shear", "offcenter_reversed", "twist", "broken"])
    def test_row_stepper_matches_the_complex_reference(self, field, tau, jacobian_tol_on_s1):
        # Interior points are never projected, so their positions agree bit
        # for bit.  On S^1 the projection divides by hypot(u, v) where the
        # reference divides by abs(z), 1 ulp apart on a third of inputs; and
        # numpy's complex products fuse multiply-adds, so p and q differ in
        # the last bits everywhere.  Measured: positions on S^1 within
        # 2.9e-15, p and q within 3e-15 relative (1.3e-11 for the broken field
        # on S^1).
        iso = FieldIsotopy(field, tau)
        inner = interior_points(300, seed=67, rmax=0.99)
        z = np.concatenate([inner, np.exp(2j * np.pi * np.arange(32) / 32)])
        n = inner.size
        (ref,) = _complex_dop853(_complex_rhs(field, jacobian=False), (z,), iso.n_steps, tau)
        got = iso.flow(1.0, z)
        assert np.array_equal(got[:n], ref[:n])
        assert np.max(np.abs(got - ref)) <= 1e-14
        one, zero = np.ones_like(z), np.zeros_like(z)
        rhs = _complex_rhs(field, jacobian=True)
        ref_z, ref_p, ref_q = _complex_dop853(rhs, (z, one, zero), iso.n_steps, tau)
        got_z, got_p, got_q = iso.flow_wirtinger(1.0, z)
        assert np.array_equal(got_z, got) and np.array_equal(ref_z, ref)
        for g, w in ((got_p, ref_p), (got_q, ref_q)):
            scale = max(1.0, float(np.max(np.abs(w))))
            assert np.max(np.abs(g[:n] - w[:n])) <= 1e-14 * scale
            assert np.max(np.abs(g[n:] - w[n:])) <= jacobian_tol_on_s1 * scale


def _complex_rhs(field, jacobian):
    """The row kernels of ``field`` as a right-hand side on complex (z[, p, q])."""

    def rhs(state):
        z = state[0]
        u, v = z.real.copy(), z.imag.copy()
        xu, xv = field.vector(u, v)
        if not jacobian:
            return (xu + 1j * xv,)
        ar, ai, br, bi = field.vector_wirtinger(u, v)
        a, b = ar + 1j * ai, br + 1j * bi
        p, q = state[1], state[2]
        return (xu + 1j * xv, a * p + b * np.conj(q), a * q + b * np.conj(p))

    return rhs


def _complex_dop853(rhs, state, n_sub, tau=1.0):
    """Reference stepper on complex arrays, t = 0 to 1 in ``n_sub`` steps of ``tau / n_sub``.

    Each stage is ``y + a_i . k`` and each step ``y += b . k`` on the real view
    of the complex stages, then the position is projected back onto the disk.
    The stages are stored in ``DOP853_ORDER``, and each product runs over the
    stored slots of its row's span in ``DOP853_SPANS`` (of the weights',
    ``DOP853_WEIGHT_SPAN``) with the tableau's entries for them: the zeros
    the stepper skips, summed in its order.
    """
    h = tau * (1.0 / n_sub)
    a, b = h * DOP853_A, h * DOP853_B
    y = np.array(state, dtype=complex)
    k = np.empty((DOP853_STAGES,) + y.shape, dtype=complex)
    k_real = k.reshape(DOP853_STAGES, -1).view(float)

    def product(coefficients, slots):
        stages = list(DOP853_ORDER[slots])
        return (coefficients[stages] @ k_real[slots]).view(complex).reshape(y.shape)

    for _ in range(n_sub):
        for i in range(DOP853_STAGES):
            stage = y + product(a[i], DOP853_SPANS[i - 1][1]) if i else y
            k[DOP853_ORDER.index(i)] = rhs(stage)
        y += product(b, DOP853_WEIGHT_SPAN[1])
        r = np.abs(y[0])
        assert np.all(r <= 1.0 + TOL_BOUNDARY)
        y[0] = np.where(r > 1.0, y[0] / r, y[0])
    return y


def flow_jacobian_fd(isotopy, t, z):
    """Central-difference Wirtinger pair ``(p, q)`` of the flow map ``f_t`` at one point ``z``."""
    ar, ai, br, bi = central_vector_wirtinger(lambda u, v: _rows(isotopy.flow(t, u + 1j * v)),
                                              np.array([z.real]), np.array([z.imag]))
    return complex(ar[0] + 1j * ai[0]), complex(br[0] + 1j * bi[0])


def _matrix(p, q):
    """Row-major entries (a, b, c, d) of the real-linear map dz -> p dz + q dz_bar."""
    e1 = np.ravel(wirtinger_apply(p, q, 1.0))[0]
    e2 = np.ravel(wirtinger_apply(p, q, 1j))[0]
    return [e1.real, e2.real, e1.imag, e2.imag]


class TestJacobians:
    def test_rotation_jacobian_is_rotation_matrix(self):
        iso = FieldIsotopy(rotation_field(0.3))
        _, p, q = iso.flow_wirtinger(1.0, 0.4 + 0.2j)
        c, s = np.cos(2 * np.pi * 0.3), np.sin(2 * np.pi * 0.3)
        assert np.allclose(_matrix(p, q), [c, -s, s, c], atol=1e-8)
        assert wirtinger_det(p, q)[0] == pytest.approx(1.0, abs=1e-8)

    def test_identity_field_gives_identity_matrix(self):
        field = DifferencedField(lambda z: np.zeros_like(np.real(z)))
        _, p, q = FieldIsotopy(field).flow_wirtinger(1.0, 0.2 + 0.2j)
        assert np.allclose(_matrix(p, q), [1, 0, 0, 1], atol=1e-12)

    def test_twist_determinant_and_fd_cross_check(self):
        iso = FieldIsotopy(quadratic_twist(0.3).field)
        z = 0.5 + 0j
        _, p, q = iso.flow_wirtinger(1.0, z)
        assert wirtinger_det(p, q)[0] == pytest.approx(1.0, abs=1e-6)
        p_fd, q_fd = flow_jacobian_fd(iso, 1.0, z)
        assert np.allclose(_matrix(p, q), _matrix(p_fd, q_fd), atol=1e-6)

    def test_variational_matches_finite_differences_at_random_points(self):
        iso = FieldIsotopy(off_center_conjugator(0.4))
        pts = interior_points(50, seed=10, rmax=0.9)
        _, p, q = iso.flow_wirtinger(1.0, pts)
        for k in range(0, 50, 7):
            p_fd, q_fd = flow_jacobian_fd(iso, 1.0, complex(pts[k]))
            assert p[k] == pytest.approx(p_fd, abs=2e-5)
            assert q[k] == pytest.approx(q_fd, abs=2e-5)

    def test_radial_jacobian_exact_determinant(self):
        iso = quadratic_twist(0.3)
        pts = interior_points(100, seed=11)
        _, p, q = iso.flow_wirtinger(1.0, pts)
        assert np.max(np.abs(np.abs(p) ** 2 - np.abs(q) ** 2 - 1.0)) < 1e-12


TANGENT_CASES = {
    "field": lambda: FieldIsotopy(off_center_conjugator(0.4), 0.7),
    # central-difference Wirtinger rows, so Re a is a row, not the scalar 0.0
    "broken": lambda: FieldIsotopy(BrokenField(quadratic_twist(0.3).field)),
    "radial": lambda: quadratic_twist(0.3),
    "concat": lambda: compose(quadratic_twist(0.3), FieldIsotopy(boundary_shear_conjugator(0.3), 0.5)),
    "conjugation": lambda: conjugated_rotation(0.3, off_center_conjugator(0.5), 0.5),
    "nested": lambda: conjugate(conjugated_rotation(0.3, off_center_conjugator(0.5), 0.5),
                                boundary_shear_conjugator(0.3), 0.5),
    "inverse": lambda: conjugated_rotation(0.3, off_center_conjugator(0.5), 0.5).inverse(),
}


class TestFlowTangent:
    # flow_tangent is the one derivative primitive: it must push each vector
    # as the Wirtinger pair maps it (rounding only, measured <= 1.5e-14 at
    # |Df v| ~ 25, so 1e-14 relative to the largest pushed vector), and as
    # the central-difference Jacobian of the flow map does (step 1e-5:
    # measured <= 2.6e-7 at |Df v| ~ 22, so 1e-6 relative)
    @pytest.mark.parametrize("name", list(TANGENT_CASES))
    def test_pushes_vectors_as_the_wirtinger_pair_and_the_fd_jacobian(self, name):
        iso = TANGENT_CASES[name]()
        t = 0.8  # a concatenation stops inside its second piece
        z = interior_points(20, seed=5, rmax=0.9)
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(2, z.size)) + 1j * rng.normal(size=(2, z.size))
        f, p, q = iso.flow_wirtinger(t, z)
        for v in (vectors[0], vectors):  # k = 1 and k = 2 vectors per point
            pos, pushed = iso.flow_tangent(t, z, v)
            assert pushed.shape == v.shape
            assert np.array_equal(pos, f)
            scale = max(1.0, float(np.max(np.abs(pushed))))
            assert np.max(np.abs(pushed - wirtinger_apply(p, q, v))) <= 1e-14 * scale
            for k in range(0, z.size, 4):
                p_fd, q_fd = flow_jacobian_fd(iso, t, complex(z[k]))
                fd = wirtinger_apply(p_fd, q_fd, v[..., k])
                assert np.max(np.abs(pushed[..., k] - fd)) <= 1e-6 * scale


class TestAreaResidual:
    def test_rotation_is_isometry(self):
        assert area_residual(rotation(0.3), seed=0) < 1e-8

    def test_integrated_twist_within_budget(self):
        bundle = FieldIsotopy(quadratic_twist(0.3).field)
        assert area_residual(bundle, seed=0) < 1e-6

    def test_non_symplectic_control_fails_loudly(self, broken_bundle):
        assert area_residual(broken_bundle, seed=0) > 1e-2


class TestChordWindings:
    def test_rigid_rotation_all_pairs(self):
        iso = rotation(0.3)
        x = interior_points(50, seed=12)
        y = interior_points(50, seed=13)
        vals, ok = chord_windings(iso, x, y)
        assert ok.all()
        assert np.max(np.abs(vals - 0.3)) < 1e-10

    def test_many_turn_rotation_needs_and_gets_refinement(self):
        iso = rotation(12.7)
        vals, ok = chord_windings(iso, np.array([0.5 + 0j]), np.array([-0.3j]))
        assert ok.all()
        assert vals[0] == pytest.approx(12.7, abs=1e-9)

    def test_fast_field_leaf_is_resolved(self):
        # a fast leaf calibrates to many steps, so its tracked grid, which
        # starts at min(64, n_steps), still turns little per interval
        iso = FieldIsotopy(rotation_field(7.3))
        x = interior_points(20, seed=14)
        y = interior_points(20, seed=15)
        for vals, ok in (chord_windings(iso, x, y), position_windings(iso, x)):
            assert ok.all()
            assert np.max(np.abs(vals - 7.3)) < 1e-9

    def test_slow_field_leaf_starts_at_its_step_count(self):
        iso = FieldIsotopy(off_center_conjugator(0.5), 0.5)
        assert iso.n_steps < MIN_WINDING_STEPS
        x = interior_points(40, seed=16)
        y = interior_points(40, seed=17)
        for b in (y, None):
            vals, ok = _tracked_windings(iso, x, b)
            assert ok.all()
            assert np.array_equal(vals, _windings_at(iso, x, b, iso.n_steps)[0])
            assert np.max(np.abs(vals - _tracked(iso, x, b, MIN_WINDING_STEPS))) <= 1e-11

    def test_colliding_pair_raises(self):
        iso = rotation(0.2)
        with pytest.raises(StepTooCoarse):
            chord_windings(iso, np.array([0.1 + 0j]), np.array([0.1 + 1e-14j]))

    def test_fast_bump_pairs_against_winding_geometry(self):
        from diskcal.zoo import bump

        bundle = bump(4)
        profile = bundle.profile
        r = 0.8 / 4.0  # inside the transition annulus
        w_exact = float(profile.w_of_s(np.array([r * r]))[0])
        assert abs(w_exact) > 10  # genuinely many turns
        # a fixed point enclosed by the fast circle is lapped once per turn
        vals, ok = chord_windings(bundle, np.array([r + 0j]), np.array([0.05 + 0j]))
        assert ok.all()
        assert vals[0] == pytest.approx(w_exact, abs=0.1)
        # a fixed point outside the circle sees only bounded wobble
        vals, ok = chord_windings(bundle, np.array([r + 0j]), np.array([0.9 + 0j]))
        assert ok.all()
        assert abs(vals[0]) < 0.05


def _tracked(iso, x, y=None, steps=None):
    """Windings tracked along the isotopy's own trajectory, never decomposed.

    By the engine, or on a fixed grid of ``steps`` intervals.  The engine
    starts at 64 intervals, or at a field leaf's calibrated DOP853 step count
    if smaller, each of whose steps turns well under a quarter turn; bump(4)
    circles turn up to ~425 times, so their oracle samples 8192 intervals
    (<= 0.06 turns each).
    """
    vals, ok = _tracked_windings(iso, x, y) if steps is None else _windings_at(iso, x, y, steps)
    assert ok.all()
    return vals


RADIAL_CASES = [
    pytest.param(quadratic_twist(0.3), None, id="twist"),
    pytest.param(bump(4), 8192, id="bump4"),
    pytest.param(rotation(0.2), None, id="rotation"),
    pytest.param(identity(), None, id="identity"),
]


def _closed_form_close(iso, x, y, steps):
    # the oracle's rounding grows with the number of turns it sums
    vals, ok = iso.windings(x, y)
    ref = _tracked(iso, x, y, steps)
    assert ok.all()
    assert np.all(np.abs(vals - ref) <= 1e-12 * (1.0 + np.abs(ref)))


class TestRadialClosedForm:
    # radial leaves wind in closed form; the tracked engine is the oracle

    @pytest.mark.parametrize("bundle, steps", RADIAL_CASES)
    def test_random_pairs(self, bundle, steps):
        x = interior_points(300, seed=51, rmax=1.0)
        y = interior_points(300, seed=52, rmax=1.0)
        _closed_form_close(bundle, x, y, steps)

    @pytest.mark.parametrize("bundle, steps", RADIAL_CASES)
    def test_pairs_on_one_circle(self, bundle, steps):
        x = interior_points(200, seed=53, rmax=1.0)
        y = x * np.exp(2j * np.pi * np.random.default_rng(54).random(200))
        _closed_form_close(bundle, x, y, steps)

    @pytest.mark.parametrize("bundle, steps", RADIAL_CASES)
    def test_radial_gap_near_1e_minus_9(self, bundle, steps):
        # both orderings of |x| and |y| by a hair: the formula switches branch
        rng = np.random.default_rng(55)
        x = interior_points(200, seed=56, rmax=0.99)
        y = x * (1.0 + 1e-9 * rng.choice([-1.0, 1.0], 200)) * np.exp(2j * np.pi * rng.random(200))
        _closed_form_close(bundle, x, y, steps)

    @pytest.mark.parametrize("bundle, steps", RADIAL_CASES)
    def test_positions_wind_by_the_speed(self, bundle, steps):
        x = interior_points(200, seed=57, rmax=1.0)
        vals, ok = bundle.windings(x, None)
        assert ok.all()
        assert np.array_equal(vals, bundle.profile.w_of_s(np.abs(x) ** 2))
        _closed_form_close(bundle, x, None, steps)

    @pytest.mark.parametrize("bundle, steps", RADIAL_CASES)
    def test_inverse_undoes_the_flow(self, bundle, steps):
        # the inverse turns each circle back at exactly -w; what is left is
        # rounding of the phase 2 pi w and of w at |f(z)|^2, an ulp off |z|^2
        z = interior_points(300, seed=59, rmax=1.0)
        back = bundle.inverse().flow(1.0, bundle.flow(1.0, z))
        s = np.abs(z) ** 2
        phase = 1.0 + TWO_PI * (np.abs(bundle.profile.w_of_s(s)) + s * np.abs(bundle.profile.dw_ds(s)))
        assert np.all(np.abs(back - z) <= 1e-15 * np.abs(z) * phase)

    @pytest.mark.parametrize("bundle", [quadratic_twist(0.3), rotation(0.2)], ids=["twist", "rotation"])
    def test_ok_matches_on_near_collisions(self, bundle):
        x = interior_points(40, seed=58)
        d = np.repeat([1e-14, 1e-13, 1e-11, 1e-10], 10) * np.exp(2j * np.pi * np.arange(40) / 40)
        _, ok = bundle.windings(x, x + d)
        _, tracked_ok = _tracked_windings(bundle, x, x + d)
        assert np.array_equal(ok, tracked_ok)
        assert np.array_equal(ok, np.abs(d) > 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.one_of(
            st.tuples(st.just("twist"), st.floats(-2.0, 2.0)),
            st.tuples(st.just("bump"), st.integers(2, 4)),
            st.tuples(st.just("rotation"), st.floats(-3.0, 3.0)),
        ),
        seed=st.integers(0, 2**16),
    )
    def test_families_against_tracking(self, family, seed):
        kind, param = family
        bundle = {"twist": quadratic_twist, "bump": bump, "rotation": rotation}[kind](param)
        x = interior_points(12, seed=seed, rmax=1.0)
        y = interior_points(12, seed=seed + 1, rmax=1.0)
        steps = 8192 if kind == "bump" else None
        _closed_form_close(bundle, x, y, steps)
        _closed_form_close(bundle, x, None, steps)


class TestConcatenatedWindings:
    # windings of a concatenation are the sums of the windings of its pieces,
    # each piece started where the previous one ended; checked against the
    # concatenated trajectory tracked directly
    @pytest.mark.parametrize("bundle", [
        compose(quadratic_twist(0.3), rotation(0.2)),
        iterate(compose(quadratic_twist(0.3), rotation(0.2)), 3),
        compose(quadratic_twist(0.3), conjugate(rotation(0.3), off_center_conjugator(0.5), 0.4)),
    ], ids=["twist_o_rotation", "mixed_cubed", "twist_o_conjugated"])
    def test_decomposition_matches_tracking(self, bundle):
        assert isinstance(bundle, ConcatIsotopy)
        x = interior_points(40, seed=22)
        y = interior_points(40, seed=23)
        vals, ok = chord_windings(bundle, x, y)
        assert ok.all()
        # The tracked path starts at the chord x - y (f_0 = id exactly).  The
        # decomposition of a conjugated piece starts at h(h^-1 x), off x by
        # the round trip of the DOP853 flow of h (~1.6e-14 here); the angle
        # of that jump stays below the tolerance at these pairs.
        assert np.all(np.abs(vals - _tracked(bundle, x, y)) <= 1e-12)
        circle = np.exp(2j * np.pi * (np.arange(64) + 0.25) / 64)
        vals, ok = position_windings(bundle, circle)
        assert ok.all()
        assert np.max(np.abs(vals - _tracked(bundle, circle))) <= 1e-12


class TestConcatenatedTimes:
    # a concatenation runs piece i at local time clip(t m - i, 0, 1) in its
    # tangent push as in its trajectory: exactly 1 for every piece at t = 1,
    # where a running remainder t - sum(1/m) drifts by rounding
    def test_tangent_push_lands_where_the_flow_does(self):
        bundle = iterate(compose(quadratic_twist(0.3), rotation(0.2)), 10)
        assert len(bundle.pieces) == 20
        z = interior_points(30, seed=8)
        pos, _ = bundle.flow_tangent(1.0, z, 1.0)
        assert np.array_equal(pos, bundle.flow(1.0, z))

    def test_every_piece_is_pushed_to_its_end(self):
        class Spy(RadialIsotopy):
            def flow_tangent(self, t, z, v):
                seen.append(t)
                return super().flow_tangent(t, z, v)

        seen = []
        spy = Spy(rotation(0.0).profile)
        ConcatIsotopy([spy] * 1000).flow_tangent(1.0, np.array([0.5j]), 1.0)
        assert seen == [1.0] * 1000
        seen.clear()
        ConcatIsotopy([spy] * 4).flow_tangent(0.6, np.array([0.5j]), 1.0)
        assert seen == [1.0, 1.0, pytest.approx(0.4, abs=1e-15)]


class TestConjugatedPositionWindings:
    # the boundary lift of h f h^-1 composed from windings of f and h, against
    # the conjugated trajectory tracked directly
    @pytest.mark.parametrize("conjugator, tol", [
        (off_center_conjugator(0.5), 1e-14),  # h fixes S^1 pointwise
        (boundary_shear_conjugator(0.3), 1e-10),  # h moves S^1
    ], ids=["off_center", "shear"])
    def test_composed_lift_matches_tracking(self, conjugator, tol):
        iso = conjugate(rotation(0.5), conjugator, 0.4)
        pts = np.exp(2j * np.pi * np.arange(256) / 256)
        vals, ok = position_windings(iso, pts)
        assert ok.all()
        assert np.max(np.abs(vals - _tracked(iso, pts))) <= tol

    def test_interior_points_never_take_the_parts_path(self, monkeypatch):
        # the parts path never follows the conjugated trajectory, and positions
        # off S^1, where the identity fails, are refused rather than tracked
        iso = conjugate(rotation(0.5), boundary_shear_conjugator(0.3), 0.4)
        calls = []
        trajectory = ConjugatedIsotopy.trajectory

        def counted(self, z, times):
            calls.append(np.size(z))
            return trajectory(self, z, times)

        monkeypatch.setattr(ConjugatedIsotopy, "trajectory", counted)
        circle = np.exp(2j * np.pi * np.arange(8) / 8)
        position_windings(iso, circle)
        assert calls == []
        pts = interior_points(8, seed=21)
        for x in (pts, np.concatenate([circle, [0.5 + 0j]])):
            with pytest.raises(ValueError, match="only on S\\^1"):
                position_windings(iso, x)
        assert calls == []


class TestConjugatedTrajectory:
    def test_time_zero_is_the_identity(self):
        # f_0 = id: the t = 0 row is z itself, not the round trip h(h^-1 z)
        # of the DOP853 flow (~1.5e-13 off here)
        iso = conjugate(rotation(0.6180339887498949), off_center_conjugator(0.5), 0.5)
        z = interior_points(200, seed=31, rmax=0.9)
        assert np.array_equal(iso.trajectory(z, np.array([0.0, 0.5, 1.0]))[0], z)
        assert np.array_equal(iso.flow(0.0, z), z)


class TestFixedCircle:
    # a generator whose flow fixes S^1 pointwise (off-center) leaves its
    # points in place; one that moves S^1 (the shear) declares no such thing
    CIRCLE = np.exp(2j * np.pi * np.arange(512) / 512)

    @pytest.mark.parametrize("tau", [0.5, -0.5])
    def test_circle_points_stay_in_place(self, tau):
        iso = FieldIsotopy(off_center_conjugator(0.5), tau)
        plain = copy.copy(iso)
        plain.fixes_circle = False
        times = np.array([0.0, 0.25, 1.0])
        assert np.all(np.abs(1.0 - np.abs(self.CIRCLE) ** 2) <= FIXED_CIRCLE_TOL)
        assert np.array_equal(iso.trajectory(self.CIRCLE, times), np.broadcast_to(self.CIRCLE, (3, 512)))
        # the plain flow moves them by its rounding (1.28e-15 measured at tau =
        # -0.5, 9.7e-16 at 0.5), within FieldIsotopy's bound C |tau| tol, C = 5 pi beta
        bound = 5 * np.pi * 0.5 * abs(tau) * FIXED_CIRCLE_TOL
        assert np.max(np.abs(plain.flow(1.0, self.CIRCLE) - self.CIRCLE)) <= bound
        f, p, q = iso.flow_wirtinger(1.0, self.CIRCLE)
        assert np.array_equal(f, self.CIRCLE)
        # the tangent vectors are still pushed: Df is not the identity on S^1
        _, plain_p, plain_q = plain.flow_wirtinger(1.0, self.CIRCLE)
        assert np.array_equal(p, plain_p) and np.array_equal(q, plain_q)
        assert np.max(np.abs(q)) > 0.1

    def test_interior_points_flow_as_without_the_circle(self):
        # more moving points than one step block, interleaved with S^1 points
        iso = FieldIsotopy(off_center_conjugator(0.5), 0.5)
        inner = interior_points(9000, seed=71, rmax=0.999)
        mixed = np.insert(inner, np.arange(0, inner.size, 18), self.CIRCLE[:500])
        moved = np.abs(1.0 - np.abs(mixed) ** 2) > FIXED_CIRCLE_TOL
        times = np.array([0.0, 0.5, 1.0])
        assert np.array_equal(iso.trajectory(mixed, times)[:, moved], iso.trajectory(inner, times))
        f = iso.flow_wirtinger(1.0, mixed)[0]
        assert np.array_equal(f, iso.flow(1.0, mixed))
        assert np.array_equal(f[moved], iso.flow(1.0, inner))

    def test_only_the_off_center_generator_declares_it(self):
        assert off_center_conjugator(0.5).fixes_circle
        assert not boundary_shear_conjugator(0.3).fixes_circle
        assert not quadratic_twist(0.3).field.fixes_circle
        moved = np.abs(FieldIsotopy(boundary_shear_conjugator(0.3), 0.5).flow(1.0, self.CIRCLE) - self.CIRCLE)
        assert np.max(moved) > 0.1

    def test_conjugated_golden_rotation_has_a_constant_lift(self):
        alpha = 0.6180339887498949
        lift = conjugated_rotation(alpha, off_center_conjugator(0.5), 0.5).boundary_lift()
        xs = np.arange(4096) / 4096
        assert np.all(lift.delta(xs) == alpha)
        est = rotation_number(lift)
        assert est.value == alpha
        assert est.rigorous_halfwidth <= 2 * np.spacing(alpha)


class TestBoundaryLift:
    def test_is_the_lift_from_the_isotopy(self):
        # one sample count, chosen by circle.lift_from_isotopy
        bundle = conjugate(rotation(0.5), boundary_shear_conjugator(0.3), 0.4)
        lift = bundle.boundary_lift()
        xs = (np.arange(64) + 0.3) / 64
        direct = lift_from_isotopy(bundle)
        assert np.array_equal(lift.delta(xs), direct.delta(xs))


class TestConjugatorPair:
    # every conjugation by one h shares h, h^-1 and the memo of h^-1 tangent
    # pushes; a memo hit must return exactly what the flow computes
    @staticmethod
    def _conjugated():
        return conjugate(rotation(0.3), off_center_conjugator(0.5), 0.5)

    def test_inverse_shares_the_pair(self):
        conj = self._conjugated()
        inv = conj.inverse()
        assert inv.pair is conj.pair

    def test_memo_hits_are_exact(self):
        pts = interior_points(60, seed=31)
        other = interior_points(60, seed=32)
        circle = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
        calls = {
            "flow": lambda iso: [iso.flow(1.0, pts.copy())],
            "flow_wirtinger": lambda iso: list(iso.flow_wirtinger(1.0, pts.copy())),
            "chord_windings": lambda iso: list(chord_windings(iso, pts.copy(), other.copy())),
            "position_windings": lambda iso: list(position_windings(iso, circle.copy())),
            "inner_field_value": lambda iso: [
                iso.inner.field.value(iso.pair.h_inverse.flow(1.0, pts.copy()))],
        }
        for name, call in calls.items():
            iso = self._conjugated()
            cold, warm = call(iso), call(iso)
            assert all(np.array_equal(a, b) for a, b in zip(cold, warm)), name
        # a warm tangent push is served by the memo, which holds what h^-1 computes
        pair = self._conjugated().pair
        assert pair.inverse_tangents(pts.copy(), other.copy()) is pair.inverse_tangents(pts, other)
        for x in (pts, other, circle):
            for got, want in zip(pair.inverse_tangents(x, _FRAME), pair.h_inverse.flow_tangent(1.0, x, _FRAME)):
                assert np.array_equal(got, want)

    def test_positions_bypass_the_memo(self):
        # only tangent pushes are memoized: flows, trajectories and windings
        # of a conjugated map flow h^-1 directly and leave the memo untouched
        iso = self._conjugated()
        pts = interior_points(20, seed=35)
        other = interior_points(20, seed=36)
        circle = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
        before = iso.pair.cache_info()
        iso.flow(1.0, pts)
        iso.trajectory(pts, np.linspace(0.0, 1.0, 5))
        chord_windings(iso, pts, other)
        position_windings(iso, circle)
        assert iso.pair.cache_info() == before

    def test_a_composition_flows_h_inverse_once(self, monkeypatch):
        # a conjugated first piece hands the next piece h f W, reusing the f W
        # of its own summands: h^-1 flows x and y once, and the chords wind as
        # the pieces do from where the previous piece left them
        conj = self._conjugated()
        pts = interior_points(20, seed=37)
        other = interior_points(20, seed=38)
        want = (conj.windings(pts, other)[0]
                + rotation(0.2).windings(conj.flow(1.0, pts), conj.flow(1.0, other))[0])
        flowed = []
        h_inverse = conj.pair.h_inverse
        trajectory = h_inverse.trajectory
        monkeypatch.setattr(h_inverse, "trajectory", lambda z, times: flowed.append(z.size) or trajectory(z, times))
        got, ok = compose(rotation(0.2), conj).windings(pts, other)
        assert ok.all() and flowed == [20, 20]
        assert np.array_equal(got, want)

    def test_other_vectors_at_the_same_points_miss_the_memo(self):
        # a points-only key would hand back the pushed vectors of the first call
        pair = self._conjugated().pair
        pts = interior_points(40, seed=34)
        for v in (np.ones_like(pts), 1j * np.ones_like(pts), np.stack([pts, 1j * pts])):
            w, dw = pair.inverse_tangents(pts, v)
            want_w, want_dw = pair.h_inverse.flow_tangent(1.0, pts, v)
            assert np.array_equal(w, want_w) and np.array_equal(dw, want_dw)
            assert dw.shape == v.shape
            assert pair.inverse_tangents(pts.copy(), v.copy()) is pair.inverse_tangents(pts, v)

    def test_cached_arrays_are_read_only(self):
        pair = self._conjugated().pair
        pts = interior_points(10, seed=33)
        for arr in pair.inverse_tangents(pts, _FRAME):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_concurrent_lookups_stay_exact(self):
        # more threads than cores and more point sets than memo entries, so
        # lookups, inserts and evictions interleave; a short flow keeps misses cheap
        pair = ConjugatorPair(FieldIsotopy(off_center_conjugator(0.5), 0.1))
        sets = [interior_points(16, seed=40 + k) for k in range(H_INVERSE_MEMO_SIZE + 4)]
        jacobians = [pair.h_inverse.flow_tangent(1.0, x, _FRAME) for x in sets]
        errors = []

        def worker(offset):
            try:
                for i in range(40):
                    k = (offset + 5 * i) % len(sets)
                    got = pair.inverse_tangents(sets[k].copy(), _FRAME)
                    if not all(np.array_equal(a, b) for a, b in zip(got, jacobians[k])):
                        errors.append(k)
            except Exception as exc:  # a thread's exception is lost unless recorded
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert pair.cache_info().currsize <= H_INVERSE_MEMO_SIZE

    def test_last_reference_frees_the_pair(self):
        # the memo closes over h^-1 alone: a cache of a bound method would
        # hold the pair in a cycle, freed only by the cyclic collector
        pair = ConjugatorPair(FieldIsotopy(off_center_conjugator(0.5), 0.1))
        pair.inverse_tangents(interior_points(16, seed=50), _FRAME)
        pair.inverse_tangents(interior_points(16, seed=51), _FRAME)
        assert pair.cache_info().currsize == 2
        ref = weakref.ref(pair)
        gc.disable()
        try:
            del pair
            assert ref() is None
        finally:
            gc.enable()

    def test_threaded_cal2_matches_serial(self):
        bundle = self._conjugated()
        serial = cal2_tilde(bundle, PairSampler(n=300, seed=5), workers=1)
        for b in (bundle, self._conjugated()):
            threaded = cal2_tilde(b, PairSampler(n=300, seed=5), workers=2)
            assert (threaded.value, threaded.stderr) == (serial.value, serial.stderr)
