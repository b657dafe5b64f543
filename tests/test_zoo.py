import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from diskcal.errors import BoundaryNotConstant, ConfigError
from diskcal.flow import ConcatIsotopy, ConjugatedIsotopy, RadialIsotopy, area_residual, chord_windings
from diskcal.geometry import TOL_AREA
from diskcal.zoo import (
    _vanishing_generator,
    boundary_shear_conjugator,
    bump,
    bump_profile,
    compose,
    conjugate,
    conjugated_rotation,
    from_spec,
    identity,
    inverse,
    iterate,
    off_center_conjugator,
    quadratic_twist,
    radial_twist,
    rotation,
)

from conftest import DifferencedField, central_vector_wirtinger, gradient_at, interior_points, wirtinger_at

GOLDEN = 0.6180339887498949


def gauss_on(lo, hi, k=64):
    x, w = leggauss(k)
    return lo + (hi - lo) * (x + 1) / 2, w * (hi - lo) / 2


class TestRotation:
    def test_zero_is_identity(self):
        pts = interior_points(20, seed=1)
        assert np.max(np.abs(rotation(0.0)(pts) - pts)) == 0.0

    def test_quarter_turn(self):
        assert rotation(0.25)(1.0 + 0j) == pytest.approx(1j, abs=1e-14)

    def test_boundary_lift_is_translation(self):
        lift = rotation(0.3).boundary_lift()
        assert np.max(np.abs(lift.delta(np.linspace(0, 1, 64)) - 0.3)) < 1e-12


class TestRadialTwist:
    def test_rejects_nonvanishing_boundary_profile(self):
        with pytest.raises(BoundaryNotConstant):
            radial_twist([0.3, -0.3, 0.3])

    def test_linear_profile_is_rigid_rotation(self):
        # g(s) = beta(1 - s) has constant angular speed beta
        tw = radial_twist([0.3, -0.3])
        rot = rotation(0.3)
        pts = interior_points(30, seed=2)
        assert np.max(np.abs(tw(pts) - rot(pts))) < 1e-12


class TestBump:
    @pytest.mark.parametrize("n", [2, 4, 7, 16])
    def test_unit_mass_exactly(self, n):
        profile = bump_profile(n)
        total = 0.0
        for lo, hi in [(0.0, 0.5 / n), (0.5 / n, 1.0 / n)]:
            r, w = gauss_on(lo, hi)
            total += np.sum(w * profile.g(r * r) * 2 * np.pi * r)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_constant_near_origin_and_zero_outside(self):
        profile = bump_profile(4)
        r = np.linspace(0, 0.5 / 4, 9)
        inner = profile.g(r * r)
        assert np.max(np.abs(inner - inner[0])) == 0.0
        r = np.linspace(0.25 + 1e-12, 1.0, 9)
        assert np.all(profile.g(r * r) == 0.0)

    def test_speed_is_positive_zero_off_the_descent(self):
        # a signed zero would reach reports (rho of the inverse prints -0.0)
        # the leaf's speed is the winding of a position, so read it there
        r = np.array([0.0, 0.1, 0.25, 0.5, 1.0])
        for w in (bump_profile(4).w_of_s(r * r), inverse(bump(4)).windings(r + 0j, None)[0]):
            assert np.all(w == 0.0) and not np.any(np.signbit(w))

    def test_displacement_bounded_by_support_diameter(self):
        for n in (2, 4, 8):
            bundle = bump(n)
            pts = interior_points(500, seed=3)
            moved = np.abs(bundle(pts) - pts)
            assert np.max(moved) <= 2.0 / n
            # points outside the support do not move at all
            outside = np.abs(pts) > 1.0 / n
            assert np.max(moved[outside]) == 0.0

    def test_invariant_constant_while_support_shrinks(self):
        from diskcal.calabi import cal3_tilde

        vals = [cal3_tilde(bump(n)) for n in (2, 4, 8)]
        assert np.max(np.abs(np.array(vals) - 2.0 / np.pi)) < 1e-9

    def test_rejects_small_index(self):
        with pytest.raises(ValueError):
            bump(1)


class TestConjugation:
    def test_tau_zero_is_plain_rotation(self):
        b = conjugated_rotation(0.3, off_center_conjugator(0.5), 0.0)
        assert b.name.startswith("rotation")

    def test_boundary_rotation_number_preserved(self):
        b = conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5)
        from diskcal.circle import rotation_number

        est = rotation_number(b.boundary_lift(), n=2000)
        assert abs(est.value - GOLDEN) <= est.rigorous_halfwidth + 1e-9

    def test_iterate_equals_conjugated_multiple(self):
        conj = off_center_conjugator(0.5)
        base = conjugated_rotation(GOLDEN, conj, 0.5)
        direct = conjugated_rotation(3 * GOLDEN, conj, 0.5)
        pts = interior_points(25, seed=4)
        assert np.max(np.abs(iterate(base, 3)(pts) - direct(pts))) < 1e-7

    def test_conjugation_preserves_area(self):
        b = conjugate(quadratic_twist(0.3), off_center_conjugator(0.5), 0.5)
        assert area_residual(b, seed=1) < 1e-6


class TestConjugatorKernels:
    # the conjugators' gradient and Wirtinger rows, read as complex numbers,
    # against the component formulas, on one s = u^2 + v^2, to 1e-15 of the
    # largest value
    @staticmethod
    def _close(new, old):
        assert np.max(np.abs(new - old)) <= 1e-15 * max(1.0, float(np.max(np.abs(old))))

    def test_off_center(self):
        beta, z = 0.5, interior_points(2000, seed=23, rmax=1.0)
        field = off_center_conjugator(beta)
        u, v = z.real, z.imag
        s = u * u + v * v
        hu = beta * ((1.0 - s) ** 2 - 4.0 * u * u * (1.0 - s))
        hv = -4.0 * beta * u * v * (1.0 - s)
        self._close(gradient_at(field, z), hu + 1j * hv)
        a, b = wirtinger_at(field, z)
        self._close(a, -2j * np.pi * beta * (z + np.conj(z)) * (3.0 * s - 2.0))
        self._close(b, -2j * np.pi * beta * z * (z * z + 3.0 * s - 2.0))

    def test_boundary_shear(self):
        beta, z = 0.3, interior_points(2000, seed=29, rmax=1.0)
        u, v = z.real, z.imag
        s = u * u + v * v
        hu = beta * ((1.0 - s) - 2.0 * u * u)
        hv = -2.0 * beta * u * v
        field = boundary_shear_conjugator(beta)
        self._close(gradient_at(field, z), hu + 1j * hv)
        a, b = wirtinger_at(field, z)
        self._close(a, 2j * np.pi * beta * (z + np.conj(z)))
        self._close(b, 2j * np.pi * beta * z)


class TestVanishingGeneratorKernel:
    # the one kernel of H = beta (1 - |z|^2)^m u behind both conjugators:
    # m = 2 is the off-center conjugator, m = 1 the boundary shear.  The
    # central differences (step 1e-5 (1 + |z|)) are off by their truncation
    # error, at most 3.2e-9 |beta| for the gradient and 1.5e-8 |beta| for the
    # Wirtinger rows on the unit disk
    CONJUGATORS = {2: off_center_conjugator, 1: boundary_shear_conjugator}
    cases = pytest.mark.parametrize("m", [1, 2])
    betas = pytest.mark.parametrize("beta", [0.3, 0.5, 1.7, -0.41])

    @staticmethod
    def _rows(seed):
        z = interior_points(2000, seed=seed, rmax=1.0)
        return z.real.copy(), z.imag.copy()

    @cases
    @betas
    def test_gradient_is_the_derivative_of_the_value(self, m, beta):
        field = self.CONJUGATORS[m](beta)
        u, v = self._rows(31)
        hu, hv = field.gradient(u, v)
        fu, fv = DifferencedField(field.value).gradient(u, v)
        assert max(np.max(np.abs(hu - fu)), np.max(np.abs(hv - fv))) <= 1e-8 * abs(beta)

    @cases
    @betas
    def test_wirtinger_rows_are_the_derivative_of_the_vector(self, m, beta):
        field = self.CONJUGATORS[m](beta)
        u, v = self._rows(37)
        rows = np.broadcast_arrays(*field.vector_wirtinger(u, v))
        fd = central_vector_wirtinger(field.vector, u, v)
        for row, ref in zip(rows, fd):
            assert np.max(np.abs(row - ref)) <= 5e-8 * abs(beta)

    @cases
    def test_re_a_is_the_scalar_zero(self, m):
        # FieldIsotopy._tangent_rhs skips the Re a products on the scalar 0.0
        ar = self.CONJUGATORS[m](0.5).vector_wirtinger(*self._rows(41))[0]
        assert type(ar) is float and ar == 0.0

    @cases
    def test_a_call_leaves_its_inputs_and_earlier_rows_alone(self, m):
        field = self.CONJUGATORS[m](0.5)
        u, v = self._rows(43)
        u0, v0 = u.copy(), v.copy()
        grad = field.gradient(u, v)
        wirt = field.vector_wirtinger(u, v)
        kept = [np.copy(row) for row in (*grad, *wirt)]
        field.gradient(*self._rows(47))
        field.vector_wirtinger(*self._rows(47))
        for row, copy in zip((*grad, *wirt), kept):
            assert np.array_equal(row, copy)
        assert np.array_equal(u, u0) and np.array_equal(v, v0)

    @cases
    @betas
    def test_rows_written_in_place_are_the_formulas_bit_for_bit(self, m, beta):
        # the kernel writes into the rows of out, with the formulas' operations
        # in their order, so it must equal them evaluated with temporaries
        u, v = self._rows(53)
        k, c = m - 1.0, 2.0 * m * np.pi * beta
        uu, vv, cu = u * u, v * v, -c * u
        ref = (cu * (3.0 * k * (uu + vv) - 2.0), (c * v) * (k * (3.0 * uu + vv) - 1.0), cu * (2.0 * k * uu - 1.0))
        out = np.full((4, u.size), np.nan)
        ar, *rows = self.CONJUGATORS[m](beta).vector_wirtinger(u, v, out)
        assert type(ar) is float and ar == 0.0
        for row, target, ref_row in zip(rows, out[1:], ref):
            assert np.shares_memory(row, target)
            assert np.array_equal(target, ref_row)

    def test_a_differenced_field_fills_out(self):
        field = DifferencedField(off_center_conjugator(0.5).value)
        u, v = self._rows(59)
        out = np.full((4, u.size), np.nan)
        assert field.vector_wirtinger(u, v, out) is out
        assert np.array_equal(out, central_vector_wirtinger(field.vector, u, v))

    @cases
    def test_what_vanishes_on_the_circle(self, m):
        # H vanishes on S^1 for both; dH only for m = 2, so only that flow fixes S^1
        field = self.CONJUGATORS[m](0.5)
        z = np.exp(2j * np.pi * np.arange(256) / 256)
        assert np.max(np.abs(field.value(z))) <= 1e-15
        grad = np.max(np.abs(gradient_at(field, z)))
        assert grad <= 1e-15 if m == 2 else grad >= 0.5

    @pytest.mark.parametrize("m", [0, 3, 1.5])
    def test_other_powers_are_refused(self, m):
        with pytest.raises(ValueError, match="m = 1 or 2"):
            _vanishing_generator(0.5, m, "x")


class TestComposition:
    def test_rotations_add(self):
        c = compose(rotation(0.2), rotation(0.1))
        pts = interior_points(25, seed=5)
        assert np.max(np.abs(c(pts) - rotation(0.3)(pts))) < 1e-7

    def test_iterate_rotation(self):
        c = iterate(rotation(0.1), 5)
        pts = interior_points(25, seed=6)
        assert np.max(np.abs(c(pts) - rotation(0.5)(pts))) < 1e-7

    def test_iterate_zero_is_identity(self):
        assert iterate(rotation(0.1), 0).name == "identity"

    def test_compose_with_inverse_is_identity(self):
        a = quadratic_twist(0.3)
        c = compose(a, inverse(a))
        pts = interior_points(25, seed=7)
        assert np.max(np.abs(c(pts) - pts)) < 1e-7

    def test_identity_bundle(self):
        pts = interior_points(10, seed=8)
        assert np.max(np.abs(identity()(pts) - pts)) == 0.0


class TestIterateOnTheTree:
    # iterate uses the isotopy tree's exact identities: a radial flow is a
    # one-parameter group, and (h f h^-1)^n = h f^n h^-1 on the same pair

    # the windings agreed within 2.6e-13 (n = 10) and 6.6e-13 (n = 100) on
    # these pairs, and within 2.4e-12 at n = 100 on 20k other pairs
    @pytest.mark.parametrize("n", [10, 100])
    def test_radial_leaf_is_one_scaled_leaf(self, n):
        base = quadratic_twist(0.3)
        it = iterate(base, n)
        assert isinstance(it, RadialIsotopy)
        x, y = interior_points(2000, seed=31, rmax=1.0), interior_points(2000, seed=32, rmax=1.0)
        w, _ = chord_windings(it, x, y)
        w_concat, _ = chord_windings(ConcatIsotopy([base] * n), x, y)
        assert np.max(np.abs(w - w_concat)) <= 1e-11

    def test_conjugated_rotation_iterates_on_its_own_pair(self):
        base = conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5)
        it = iterate(base, 5)
        assert isinstance(it, ConjugatedIsotopy)
        assert it.pair is base.pair
        # the inner speed is the float 5 * alpha that rotation(5 * alpha) turns
        # at, read as the winding of a position
        r = np.linspace(0.0, 1.0, 9) + 0j
        assert np.array_equal(it.inner.windings(r, None)[0], rotation(5 * GOLDEN).windings(r, None)[0])

    def test_inverse_iterate_runs_the_leaf_backwards(self):
        # a radial leaf's inverse and iterates change only its signed time
        base = bump(4)
        maps = [iterate(inverse(base), 3), iterate(base, -3), inverse(iterate(base, 3))]
        assert [f.tau for f in maps] == [-3.0, -3.0, -3.0] and all(f.profile is base.profile for f in maps)
        x, y = interior_points(200, seed=33, rmax=0.3), interior_points(200, seed=34, rmax=0.3)
        ref = maps[0]
        for f in maps[1:]:
            assert np.array_equal(f.flow(1.0, x), ref.flow(1.0, x))
            for a, b in zip(f.flow_wirtinger(0.7, x), ref.flow_wirtinger(0.7, x)):
                assert np.array_equal(a, b)
            assert np.array_equal(f.windings(x, y)[0], ref.windings(x, y)[0])
        # and it undoes the forward iterate, up to the rounding of phases of
        # hundreds of radians (1.7e-12 measured)
        assert np.max(np.abs(ref.flow(1.0, iterate(base, 3).flow(1.0, x)) - x)) <= 1e-11


    def test_long_iterate_of_a_concatenation_is_refused(self):
        # n copies of the pieces are refused before the list is built: 2^46
        # pointers exceed the user address space
        with pytest.raises(ConfigError, match="MAX_ITERATE_PIECES"):
            iterate(compose(rotation(0.1), quadratic_twist(0.3)), 2**45)


def _tree_nodes(f):
    """Every node of the isotopy tree of ``f``, its conjugators included."""
    nodes, stack = [], [f]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, ConcatIsotopy):
            stack.extend(node.pieces)
        if isinstance(node, ConjugatedIsotopy):
            stack.extend([node.inner, node.pair.h, node.pair.h_inverse])
    return nodes


SOURCES = {  # a map of each kind of tree root
    "radial": lambda: quadratic_twist(0.3),
    "concat": lambda: compose(rotation(0.1), quadratic_twist(0.3)),
    "conjugated": lambda: conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.3),
}


class TestDerivedMapsLeaveTheirSources:
    # a map is its isotopy node, and derived maps share the nodes of the maps
    # they are built from, so a build must rename or alter none of them
    @pytest.mark.parametrize("sources, build", [
        pytest.param(("radial", "concat"), compose, id="compose"),
        pytest.param(("concat", "conjugated"), compose, id="compose_concat_conjugated"),
        *[pytest.param((kind,), lambda f, n=n: iterate(f, n), id=f"iterate{n}_{kind}")
          for n in (0, 1, 3) for kind in SOURCES],
        *[pytest.param((kind,), inverse, id=f"inverse_{kind}") for kind in SOURCES],
        pytest.param(("radial",), lambda f: conjugate(f, off_center_conjugator(0.5), 0.0), id="conjugate_tau0"),
        pytest.param(("conjugated",), lambda f: conjugate(f, boundary_shear_conjugator(0.3), 0.4), id="conjugate"),
        pytest.param((), identity, id="identity"),
    ])
    def test_sources_keep_their_names_and_lifts(self, sources, build):
        maps = [SOURCES[kind]() for kind in sources]
        before = [(f, f.name, f.boundary_lift().values) for f in maps]
        # the nodes the sources hold; for identity, those of an earlier identity
        held = [node for f in maps or [identity()] for node in _tree_nodes(f)]
        out = build(*maps)
        out.boundary_lift()
        assert any(out is f for f in maps) or all(out is not node for node in held)
        for f, name, values in before:
            assert f.name == name
            assert np.array_equal(f.boundary_lift().values, values)


class TestFamiliesAreaResidual:
    @pytest.mark.parametrize(
        "mk",
        [
            lambda: rotation(0.3),
            lambda: quadratic_twist(0.3),
            lambda: bump(4),
            lambda: bump(16),
            lambda: conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5),
            lambda: compose(quadratic_twist(0.3), rotation(0.2)),
            lambda: iterate(quadratic_twist(0.2), 3),
            lambda: inverse(quadratic_twist(0.3)),
        ],
    )
    def test_within_budget(self, mk):
        assert area_residual(mk(), seed=0) <= 1e-6

    @pytest.mark.xfail(strict=True, reason="the determinant check of bump(16) passes at seed 0 by "
                       "rounding luck: one probe lies in the support, where |Df| ~ 1e6 puts the "
                       "rounding floor of |p|^2 - |q|^2 near 1e-4 (ROADMAP items 1 and 15)")
    def test_bump16_within_budget_at_every_seed(self):
        # reads 0.0 at seeds 0 and 11, but 6.1e-5, 1.2e-4 and 1.2e-3 at seeds 3, 5 and 7
        b = bump(16)
        assert max(area_residual(b, seed=s) for s in range(12)) <= TOL_AREA


class TestFromSpec:
    def test_round_trip_families(self):
        pts = interior_points(10, seed=9)
        cases = [
            ({"family": "rotation", "alpha": 0.3}, rotation(0.3)),
            ({"family": "quadratic_twist", "beta": 0.3}, quadratic_twist(0.3)),
            ({"family": "radial_twist", "coeffs": [0.3, -0.6, 0.3]}, quadratic_twist(0.3)),
            ({"family": "bump", "n": 4}, bump(4)),
            (
                {"family": "compose", "maps": [
                    {"family": "quadratic_twist", "beta": 0.3},
                    {"family": "rotation", "alpha": 0.2},
                ]},
                compose(quadratic_twist(0.3), rotation(0.2)),
            ),
            (
                {"family": "iterate", "map": {"family": "rotation", "alpha": 0.1}, "n": 5},
                rotation(0.5),
            ),
            (
                {"family": "inverse", "map": {"family": "rotation", "alpha": 0.1}},
                rotation(-0.1),
            ),
        ]
        for spec, expected in cases:
            built = from_spec(spec)
            assert np.max(np.abs(built(pts) - expected(pts))) < 1e-7

    def test_conjugated_spec(self):
        spec = {
            "family": "conjugated_rotation",
            "alpha": 0.3,
            "tau": 0.4,
            "conjugator": {"type": "off_center", "beta": 0.5},
        }
        built = from_spec(spec)
        direct = conjugated_rotation(0.3, off_center_conjugator(0.5), 0.4)
        pts = interior_points(10, seed=10)
        assert np.max(np.abs(built(pts) - direct(pts))) < 1e-9

    @pytest.mark.parametrize(
        "bad",
        [
            {"family": "nope"},
            {"alpha": 0.3},
            {"family": "rotation"},
            {"family": "bump", "n": "four"},
            {"family": "compose", "maps": [{"family": "rotation", "alpha": 0.1}]},
            {"family": "conjugated_rotation", "alpha": 0.1, "tau": 0.5,
             "conjugator": {"type": "weird"}},
            {"family": "conjugated_rotation", "alpha": 0.1, "tau": 0.5,
             "conjugator": {"type": "off_center"}},
        ],
    )
    def test_bad_specs_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            from_spec(bad)
