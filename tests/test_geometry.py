import numpy as np
import pytest
from hypothesis import given, strategies as st

from diskcal.errors import PointOutsideDisk
from diskcal.geometry import (
    TOL_BOUNDARY,
    circle_point,
    liouville_eval,
    project_to_disk,
    unwrap_turns_along,
    wirtinger_apply,
    wirtinger_from_images,
    wirtinger_det,
)

TWO_PI = 2.0 * np.pi


def unwrap(path):
    """``(turns, ok)`` of one sampled path: its column of ``unwrap_turns_along``."""
    turns, ok = unwrap_turns_along(np.asarray(path, dtype=complex)[:, None])
    return float(turns[0]), bool(ok[0])


class TestLiouville:
    def test_vanishes_at_origin(self):
        assert liouville_eval(0j, 3.0 + 4.0j) == 0.0

    def test_unit_tangent_value(self):
        # z=(1,0), w=(0,1): (u w_v - v w_u)/(2 pi) = 1/(2 pi)
        assert liouville_eval(1.0 + 0j, 1j) == pytest.approx(1.0 / TWO_PI, abs=1e-15)

    def test_radial_vector_annihilated(self):
        assert liouville_eval(1.0 + 0j, 1.0 + 0j) == 0.0

    @given(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        st.floats(-5.0, 5.0),
    )
    def test_linear_in_vector(self, z, w1, w2, c):
        lhs = liouville_eval(z, w1 + c * w2)
        rhs = liouville_eval(z, w1) + c * liouville_eval(z, w2)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_exterior_derivative_is_area_form(self):
        # circulation of lambda around a small square divided by its area -> 1/pi
        for z in (0.2 + 0.1j, -0.4 + 0.3j, 0.0j):
            for h in (1e-2, 1e-3):
                corners = [z, z + h, z + h + 1j * h, z + 1j * h, z]
                circ = 0.0
                ts = np.linspace(0.0, 1.0, 33)
                for a, b in zip(corners[:-1], corners[1:]):
                    pts = a + ts * (b - a)
                    circ += np.trapezoid(liouville_eval(pts, np.full_like(pts, b - a)), ts)
                assert circ / h**2 == pytest.approx(1.0 / np.pi, abs=1e-8 + h)


class TestAreaDensity:
    # the normalized area form omega = d(lambda) = (1/pi) du dv, read off the
    # circulation of lambda (Stokes) on circles sampled uniformly in turns
    def test_constant_value(self):
        # a circle of radius h about c: circulation / (pi h^2) is the density
        e = circle_point(np.arange(64) / 64.0)
        for c in (0j, 0.5 + 0.5j):
            for h in (1e-1, 1e-3):
                circ = np.mean(liouville_eval(c + h * e, TWO_PI * 1j * h * e))
                assert circ / (np.pi * h * h) == pytest.approx(1.0 / np.pi, rel=1e-12)

    def test_total_mass_one(self):
        # the circulation around S^1 is the mass of the closed disk
        z = circle_point(np.arange(256) / 256.0)
        assert np.mean(liouville_eval(z, TWO_PI * 1j * z)) == pytest.approx(1.0, abs=1e-12)


class TestUnwrap:
    def test_full_counterclockwise_loop(self):
        turns, ok = unwrap(circle_point(np.arange(9) / 8.0))
        assert ok and turns == pytest.approx(1.0, abs=1e-12)

    def test_constant_path(self):
        assert unwrap([1.0 + 0j, 1.0 + 0j]) == (0.0, True)

    def test_ten_uniform_steps(self):
        xs = np.linspace(0.0, 0.999, 11)
        turns, ok = unwrap(circle_point(xs))
        assert ok and turns == pytest.approx(0.999, abs=1e-12)

    def test_gap_too_large(self):
        assert not unwrap([1.0 + 0j, np.exp(1j * np.pi * 0.7)])[1]

    def test_quarter_turn_gap_is_too_coarse(self):
        # a gap of a quarter turn is already ambiguous
        assert not unwrap([1, 1j])[1]

    def test_zero_vector(self):
        assert not unwrap([1.0 + 0j, 1e-14 + 0j, 1.0 + 0j])[1]

    @given(st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=30))
    def test_reversal_negates(self, steps):
        xs = np.concatenate([[0.0], np.cumsum(steps)])
        path = circle_point(xs)
        forward, ok_forward = unwrap(path)
        backward, ok_backward = unwrap(path[::-1])
        assert ok_forward and ok_backward
        assert forward == pytest.approx(-backward, abs=1e-9)
        assert forward == pytest.approx(sum(steps), abs=1e-9)

    @given(
        st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=15),
        st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=15),
    )
    def test_concatenation_adds(self, s1, s2):
        xs1 = np.concatenate([[0.0], np.cumsum(s1)])
        xs2 = xs1[-1] + np.concatenate([[0.0], np.cumsum(s2)])
        total, ok = unwrap(circle_point(np.concatenate([xs1, xs2[1:]])))
        (part1, ok1), (part2, ok2) = unwrap(circle_point(xs1)), unwrap(circle_point(xs2))
        assert ok and ok1 and ok2
        assert total == pytest.approx(part1 + part2, abs=1e-9)

    def test_vectorized_columns_match_scalar(self):
        xs = np.linspace(0.0, 0.4, 9)
        paths = np.stack([circle_point(xs), circle_point(2 * xs)], axis=1)
        turns, ok = unwrap_turns_along(paths)
        assert ok.all()
        assert turns[0] == pytest.approx(0.4, abs=1e-12)
        assert turns[1] == pytest.approx(0.8, abs=1e-12)


class TestJacobian2:
    def test_rotation_matrix_from_wirtinger(self):
        p, q = np.exp(1j * 0.7), 0.0
        assert wirtinger_det(p, q) == pytest.approx(1.0, abs=1e-14)
        assert wirtinger_apply(p, q, 1.0 + 0j) == pytest.approx(np.exp(1j * 0.7), abs=1e-14)

    def test_wirtinger_composition_matches_matrix_product(self):
        # the pair of a composite is read off the images of 1 and i pushed
        # through both maps in turn, as the isotopy tree chains its pieces
        rng = np.random.default_rng(0)
        p1, q1, p2, q2 = (rng.normal(size=2) @ np.array([1, 1j]) for _ in range(4))
        pc, qc = wirtinger_from_images(*(wirtinger_apply(p1, q1, wirtinger_apply(p2, q2, e)) for e in (1.0, 1j)))
        w = 0.3 - 0.8j
        direct = wirtinger_apply(p1, q1, wirtinger_apply(p2, q2, w))
        assert wirtinger_apply(pc, qc, w) == pytest.approx(direct, abs=1e-12)
        assert wirtinger_det(pc, qc) == pytest.approx(
            wirtinger_det(p1, q1) * wirtinger_det(p2, q2), abs=1e-12
        )


class TestDiskProjection:
    # in place on the float rows u = Re z, v = Im z
    def test_inside_untouched(self):
        u, v = np.array([0.5]), np.array([0.5])
        project_to_disk(u, v)
        assert u[0] == 0.5 and v[0] == 0.5

    def test_small_drift_projected(self):
        z = (1.0 + 5e-10) * np.exp(0.3j)
        u, v = np.array([z.real]), np.array([z.imag])
        project_to_disk(u, v)
        assert np.hypot(u[0], v[0]) == pytest.approx(1.0, abs=1e-15)

    def test_large_excursion_rejected(self):
        with pytest.raises(PointOutsideDisk):
            project_to_disk(np.array([1.001]), np.array([0.0]))

    @staticmethod
    def _hypot_projection(u, v):
        # the projection without the early return for rows well inside S^1
        r = np.hypot(u, v)
        if np.any(r > 1.0 + TOL_BOUNDARY):
            raise PointOutsideDisk(f"|z| = {float(np.max(r))}")
        outside = r > 1.0
        scale = 1.0 / r[outside]
        u[outside] *= scale
        v[outside] *= scale

    @pytest.mark.parametrize("radius", [
        1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 1.0 + TOL_BOUNDARY / 2, 1.0 - 1e-12, np.nan,
    ], ids=["below_one_ulp", "one", "above_one_ulp", "half_tol", "margin", "nan"])
    def test_rows_match_the_hypot_path(self, radius):
        # rows well inside (the early return), and rows with points at the
        # radius: one on the real axis, where |z| is exactly the radius
        angles = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
        inside = 0.999 * angles
        for z in (inside, np.concatenate([inside, [radius], radius * angles[:6]])):
            u, v = z.real.copy(), z.imag.copy()
            ref_u, ref_v = u.copy(), v.copy()
            project_to_disk(u, v)
            self._hypot_projection(ref_u, ref_v)
            assert np.array_equal(u, ref_u, equal_nan=True) and np.array_equal(v, ref_v, equal_nan=True)

    def test_beyond_the_tolerance_still_raises(self):
        z = np.concatenate([0.5 * np.ones(63), [(1.0 + 2 * TOL_BOUNDARY) * np.exp(0.3j)]])
        with pytest.raises(PointOutsideDisk):
            project_to_disk(z.real.copy(), z.imag.copy())
