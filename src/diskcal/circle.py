"""Lifted circle maps, rotation numbers, and invariant boundary measures.

A lift of an orientation-preserving circle homeomorphism is a map
``phi: R -> R`` with ``phi(x + 1) = phi(x) + 1``; it is stored through its
1-periodic displacement ``delta(x) = phi(x) - x``, so the commutation relation
holds exactly by construction.  The rotation number estimate carries the
rigorous enclosure ``|phi^n(x) - x - n rho| < 1``, i.e. a half-width of 1/n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepTooCoarse
from .flow import position_windings

DEFAULT_LIFT_SAMPLES = 4096
TOL_PERIOD = 1e-10
PERIOD_SEARCH_MAX = 10_000


class LiftedCircleMap:
    """A lift represented by its displacement function.

    ``delta`` is either a vectorized callable on [0, 1) or a sampled grid
    (interpolated periodically); both give an exact commutation invariant.
    """

    def __init__(self, delta_fn=None, grid_values=None, name: str = "lift"):
        if (delta_fn is None) == (grid_values is None):
            raise ValueError("provide exactly one of delta_fn, grid_values")
        self._delta_fn = delta_fn
        if grid_values is not None:
            vals = np.asarray(grid_values, dtype=float)
            self._grid = np.concatenate([vals, vals[:1]])
            self._xs = np.linspace(0.0, 1.0, vals.size + 1)
        self.name = name

    @classmethod
    def identity(cls):
        return cls(delta_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)), name="id")

    @classmethod
    def translation(cls, alpha: float):
        return cls(delta_fn=lambda x, a=float(alpha): np.full_like(np.asarray(x, dtype=float), a),
                   name=f"x+{alpha}")

    def delta(self, x):
        frac = np.mod(x, 1.0)
        if self._delta_fn is not None:
            return self._delta_fn(frac)
        return np.interp(frac, self._xs, self._grid)

    def __call__(self, x):
        return np.asarray(x, dtype=float) + self.delta(x)

    def compose(self, other: "LiftedCircleMap") -> "LiftedCircleMap":
        def delta(x, f=self, g=other):
            return f(g(np.asarray(x, dtype=float) + 0.0)) - x

        return LiftedCircleMap(delta_fn=lambda x: delta(x), name=f"{self.name}o{other.name}")

    def translate(self, k: int) -> "LiftedCircleMap":
        return LiftedCircleMap(delta_fn=lambda x: self.delta(x) + k, name=f"{self.name}+{k}")

    def monotonicity_margin(self, samples: int = 4096) -> float:
        """min over a grid of the increments of phi; positive for a lift of a homeo."""
        xs = np.linspace(0.0, 1.0, samples + 1)
        vals = self(xs)
        return float(np.min(np.diff(vals)))


@dataclass(frozen=True)
class RotationNumberEstimate:
    value: float
    rigorous_halfwidth: float
    iterates_used: int

    def encloses(self, target: float) -> bool:
        return abs(self.value - target) <= self.rigorous_halfwidth


@dataclass(frozen=True)
class BoundaryMeasure:
    """Weighted points of [0, 1) approximating an invariant probability measure."""

    points: np.ndarray
    weights: np.ndarray
    periodic: bool = False

    def __post_init__(self):
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    def integrate(self, psi) -> float:
        return float(np.sum(self.weights * psi(self.points)))

    def invariance_defect(self, lift: LiftedCircleMap, test_fns=None) -> float:
        """max over test functions of |int psi d(phi_* mu) - int psi d mu|."""
        if test_fns is None:
            test_fns = [
                lambda x: np.cos(2 * np.pi * x),
                lambda x: np.sin(2 * np.pi * x),
                lambda x: np.cos(4 * np.pi * x),
            ]
        pushed = np.mod(lift(self.points), 1.0)
        return max(
            abs(float(np.sum(self.weights * f(pushed))) - self.integrate(f))
            for f in test_fns
        )


def lift_from_isotopy(isotopy, n_samples: int = DEFAULT_LIFT_SAMPLES) -> LiftedCircleMap:
    """Lift of the boundary restriction by continuous argument tracking.

    Follows ``t -> f_t(e^{2 pi i x})`` for a grid of boundary points; the
    total argument variation is the displacement at x.
    """
    xs = np.arange(n_samples) / n_samples
    pts = np.exp(2j * np.pi * xs)
    turns, ok = position_windings(isotopy, pts, raise_on_fail=False)
    if not np.all(ok):
        raise StepTooCoarse("boundary rotation exceeds a quarter turn per step")
    return LiftedCircleMap(grid_values=turns, name="boundary lift")


def rotation_number(lift: LiftedCircleMap, n: int = 100_000, x0: float = 0.0) -> RotationNumberEstimate:
    """Estimate ``(phi^n(x0) - x0)/n`` with its rigorous half-width 1/n."""
    if n < 1:
        raise ValueError("need n >= 1")
    x = float(x0)
    for _ in range(n):
        x += float(lift.delta(x))
    return RotationNumberEstimate(value=(x - x0) / n, rigorous_halfwidth=1.0 / n, iterates_used=n)


def invariant_measure(
    lift: LiftedCircleMap,
    burn_in: int = 1000,
    samples: int = 10_000,
    x0: float = 0.0,
) -> BoundaryMeasure:
    """Empirical measure of an orbit segment, exact on detected periodic orbits.

    If the orbit returns to ``x0`` within 1e-10 (mod 1) at some period
    ``q <= min(samples, 10^4)`` the exact periodic-orbit measure with weights
    1/q is returned instead of a Birkhoff segment.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    limit = min(samples, PERIOD_SEARCH_MAX)
    orbit = [float(x0)]
    x = float(x0)
    for k in range(1, limit + 1):
        x += float(lift.delta(x))
        d = abs(x - x0 - round(x - x0))
        if d < TOL_PERIOD:
            pts = np.mod(np.array(orbit), 1.0)
            return BoundaryMeasure(points=pts, weights=np.full(k, 1.0 / k), periodic=True)
        orbit.append(x)
    x = float(x0)
    for _ in range(burn_in):
        x += float(lift.delta(x))
    pts = np.empty(samples)
    for k in range(samples):
        pts[k] = x % 1.0
        x += float(lift.delta(x))
    return BoundaryMeasure(points=pts, weights=np.full(samples, 1.0 / samples), periodic=False)


def birkhoff_displacement_average(lift: LiftedCircleMap, mu: BoundaryMeasure) -> float:
    """int delta d(mu), the Birkhoff form of the rotation number."""
    return mu.integrate(lift.delta)
