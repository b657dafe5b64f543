import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from diskcal.calabi import _action_averages, _checked_area_residual, _pullback_integrand
from diskcal.circle import DEFAULT_LIFT_SAMPLES, LiftedCircleMap, invariant_measure
from diskcal.fields import HamiltonianField
from diskcal.flow import FieldIsotopy

SEGMENT_NODES = 8  # least Gauss-Legendre nodes per radial segment of ActionFunction.a0
ACTION_RADIAL_NODES = 64  # Gauss-Legendre nodes per ray of ActionFunction.a0
BOUNDARY_PROFILE_SAMPLES = 512  # rays of the boundary profile behind c_mu
H_GRAD_STEP = 1e-5  # relative increment of the central differences below


def central_vector_wirtinger(vector, u, v, out=None):
    """Rows ``(Re a, Im a, Re b, Im b)`` of a row field by central differences,
    written into ``out`` (shape (4, N)) if given.

    ``vector(u, v)`` returns the rows ``(X_u, X_v)``; the increment is
    ``H_GRAD_STEP * (1 + |z|)`` along each axis, and ``a = (X_u - i X_v) / 2``,
    ``b = (X_u + i X_v) / 2`` for the partials of the complex field ``X``.
    """
    hh = H_GRAD_STEP * (1.0 + np.hypot(u, v))
    scale = 1.0 / (2.0 * hh)
    du = (vector(u + hh, v) - vector(u - hh, v)) * scale
    dv = (vector(u, v + hh) - vector(u, v - hh)) * scale
    out = np.empty((4,) + np.shape(du[0])) if out is None else out
    np.add(du[0], dv[1], out=out[0])
    np.subtract(du[1], dv[0], out=out[1])
    np.subtract(du[0], dv[1], out=out[2])
    np.add(du[1], dv[0], out=out[3])
    out *= 0.5
    return out


class DifferencedField(HamiltonianField):
    """A field from H alone: its gradient and its vector field's Wirtinger
    pair are central differences, the oracle of the analytic forms."""

    def __init__(self, h, **kwargs):
        super().__init__(h, self._differenced_gradient, self._differenced_wirtinger, **kwargs)

    def _differenced_gradient(self, u, v):
        z, hh = u + 1j * v, H_GRAD_STEP * (1.0 + np.hypot(u, v))
        return tuple((self._h(z + d) - self._h(z - d)) / (2.0 * hh) for d in (hh, 1j * hh))

    def _differenced_wirtinger(self, u, v, out):
        return central_vector_wirtinger(self.vector, u, v, out)


class BrokenField(DifferencedField):
    """A deliberately non-Hamiltonian field: X scaled by a position factor.

    Scaling keeps tangency to the circle but destroys area preservation;
    used as the negative control for determinant checks.  Its ``value`` is
    the base field's H, which does not generate it.
    """

    def __init__(self, base, factor=0.5):
        # central differences keep Re a, the divergence the determinant checks see
        super().__init__(base.value, name="broken")
        self.base = base
        self.factor = factor

    def vector(self, u, v, out=None):
        out = self.base.vector(u, v, out)
        out *= 1.0 + self.factor * u
        return out


@pytest.fixture(scope="session")
def broken_bundle():
    from diskcal.zoo import quadratic_twist

    field = BrokenField(quadratic_twist(0.3).field, factor=0.5)
    return FieldIsotopy(field)


def _rows(z):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return z.real.copy(), z.imag.copy()


def vector_at(field, z):
    """A generator's vector field ``X_u + i X_v`` at complex points, from its rows."""
    xu, xv = field.vector(*_rows(z))
    return xu + 1j * xv


def gradient_at(field, z):
    """``H_u + i H_v`` at complex points, from the gradient rows."""
    hu, hv = field.gradient(*_rows(z))
    return hu + 1j * hv


def wirtinger_at(field, z):
    """The Wirtinger pair ``(a, b)`` at complex points, from its four rows."""
    u, v = _rows(z)
    ar, ai, br, bi = field.vector_wirtinger(u, v)
    return np.broadcast_to(ar + 1j * ai, u.shape), np.broadcast_to(br + 1j * bi, u.shape)


def interior_points(n, seed, rmax=0.95):
    rng = np.random.default_rng(seed)
    r = rmax * np.sqrt(rng.random(n))
    return r * np.exp(2j * np.pi * rng.random(n))


def sampled(delta, n=DEFAULT_LIFT_SAMPLES):
    """The lift of the displacement ``delta`` (vectorized, 1-periodic), sampled at n points."""
    return LiftedCircleMap(delta(np.arange(n) / n))


def translation(alpha):
    """The lift ``x -> x + alpha``."""
    return sampled(lambda x: np.full_like(x, alpha))


def composed(f, g):
    """The lift ``f o g`` (g acts first)."""
    return sampled(lambda x: f(g(x)) - x)


def encloses(est, target):
    """Whether a RotationNumberEstimate's rigorous enclosure contains ``target``."""
    return abs(est.value - target) <= est.rigorous_halfwidth


def _segment_nodes(edges_lo, edges_hi, m: int):
    """GL-m nodes/weights on per-point segments [lo, hi] (vectorized)."""
    x, w = leggauss(m)
    half = (edges_hi - edges_lo)[..., None] / 2.0
    mid = (edges_hi + edges_lo)[..., None] / 2.0
    return mid + half * x, half * w


class ActionFunction:
    """Primitive of ``f^* lambda - lambda`` with zero boundary-measure average,
    the pointwise reference for cal1's Fubini rule.

    ``a0`` integrates ``lambda_{f(t z)}(Df . z)`` along the radial path
    ``t -> t z`` by composite Gauss-Legendre (the pure-lambda term along the
    ray vanishes identically).  ``c_mu``, the mu-average of the boundary
    profile, comes from the same per-ray rule as ``cal1``; mu defaults to the
    orbit measure of the boundary lift.  An optional primitive shift
    ``(u, grad u)`` evaluates the same construction for the perturbed
    Liouville form ``lambda + du``.
    """

    def __init__(self, bundle, mu=None, primitive_shift=None):
        _checked_area_residual(bundle)
        if mu is None:
            mu = invariant_measure(bundle.boundary_lift())
        self.bundle = bundle
        self.mu = mu
        self.primitive_shift = primitive_shift
        self._breaks = bundle.radial_breakpoints
        [(_, self.c_mu)] = _action_averages(
            bundle, mu, [(ACTION_RADIAL_NODES, BOUNDARY_PROFILE_SAMPLES)], primitive_shift
        )

    def _integrand(self, pos, direction):
        return _pullback_integrand(self.bundle, self.primitive_shift, pos, direction)

    def a0(self, z):
        """Radial-path primitive at point(s) ``z``, zero at the origin."""
        pts = np.atleast_1d(np.asarray(z, dtype=complex))
        r = np.abs(pts)
        unit = np.where(r > 0, pts / np.where(r > 0, r, 1.0), 1.0)
        edges = np.concatenate([[0.0], np.asarray(self._breaks, dtype=float), [1.0]])
        lo = np.minimum(edges[:-1][None, :], r[:, None])
        hi = np.minimum(edges[1:][None, :], r[:, None])
        m = max(SEGMENT_NODES, ACTION_RADIAL_NODES // (edges.size - 1))
        rho, w = _segment_nodes(lo, hi, m)  # (N, S, m)
        shape = rho.shape
        pos = (rho * unit[:, None, None]).reshape(-1)
        direction = np.broadcast_to(unit[:, None, None], shape).reshape(-1)
        vals = self._integrand(pos, direction).reshape(shape)
        out = np.sum(vals * w, axis=(1, 2))
        return out if np.ndim(z) else float(out[0])

    def __call__(self, z):
        return self.a0(z) - self.c_mu


def pullback_defect(action, z):
    """Components of ``f^* lambda' - lambda'`` at ``z``, the exact gradient of ``action.a0``."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return action._integrand(z, np.ones_like(z)), action._integrand(z, np.full_like(z, 1j))
