import numpy as np
import pytest

from diskcal.circle import LiftedCircleMap
from diskcal.fields import central_vector_wirtinger
from diskcal.flow import FieldIsotopy


class BrokenField:
    """A deliberately non-Hamiltonian field: X scaled by a position factor.

    Scaling keeps tangency to the circle but destroys area preservation;
    used as the negative control for determinant checks.
    """

    name = "broken"

    def __init__(self, base, factor=0.5):
        self.base = base
        self.factor = factor

    def vector(self, u, v, out=None):
        out = self.base.vector(u, v, out)
        out *= 1.0 + self.factor * u
        return out

    def vector_wirtinger(self, u, v):
        # central differences keep Re a, the divergence the determinant checks see
        return central_vector_wirtinger(self.vector, u, v)


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


def translation(alpha):
    """The lift ``x -> x + alpha`` as a displacement function."""
    return LiftedCircleMap(delta_fn=lambda x: np.full_like(np.asarray(x, dtype=float), alpha))


def composed(f, g):
    """The lift ``f o g`` (g acts first) as a displacement function."""
    return LiftedCircleMap(delta_fn=lambda x: f(g(x)) - x)


def encloses(est, target):
    """Whether a RotationNumberEstimate's rigorous enclosure contains ``target``."""
    return abs(est.value - target) <= est.rigorous_halfwidth


def pullback_defect(action, z):
    """Components of ``f^* lambda' - lambda'`` at ``z``, the exact gradient of ``action.a0``."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return action._integrand(z, np.ones_like(z)), action._integrand(z, np.full_like(z, 1j))
