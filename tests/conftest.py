import numpy as np
import pytest

from diskcal.circle import LiftedCircleMap
from diskcal.fields import H_GRAD_STEP
from diskcal.flow import FieldIsotopy, MapBundle
from diskcal.geometry import central_wirtinger


class BrokenField:
    """A deliberately non-Hamiltonian field: X scaled by a position factor.

    Scaling keeps tangency to the circle but destroys area preservation;
    used as the negative control for determinant checks.
    """

    name = "broken"

    def __init__(self, base, factor=0.5):
        self.base = base
        self.factor = factor

    def vector(self, t, z):
        return self.base.vector(t, z) * (1.0 + self.factor * np.real(z))

    def vector_wirtinger(self, t, z, step=H_GRAD_STEP):
        return central_wirtinger(lambda w: self.vector(t, w), z, step)


@pytest.fixture(scope="session")
def broken_bundle():
    from diskcal.zoo import quadratic_twist

    field = BrokenField(quadratic_twist(0.3).field, factor=0.5)
    return MapBundle(isotopy=FieldIsotopy(field), name="broken")


def interior_points(n, seed, rmax=0.95):
    rng = np.random.default_rng(seed)
    r = rmax * np.sqrt(rng.random(n))
    return r * np.exp(2j * np.pi * rng.random(n))


def translation(alpha):
    """The lift ``x -> x + alpha`` as a displacement function."""
    return LiftedCircleMap(delta_fn=lambda x: np.full_like(np.asarray(x, dtype=float), alpha),
                           name=f"x+{alpha}")


def encloses(est, target):
    """Whether a RotationNumberEstimate's rigorous enclosure contains ``target``."""
    return abs(est.value - target) <= est.rigorous_halfwidth


def pullback_defect(action, z):
    """Components of ``f^* lambda' - lambda'`` at ``z``, the exact gradient of ``action.a0``."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return action._integrand(z, np.ones_like(z)), action._integrand(z, np.full_like(z, 1j))
