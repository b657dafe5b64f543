"""Lifted circle maps, rotation numbers, and invariant boundary measures.

A lift of an orientation-preserving circle homeomorphism is a map
``phi: R -> R`` with ``phi(x + 1) = phi(x) + 1``; it is stored as equally
spaced samples of its 1-periodic displacement ``delta(x) = phi(x) - x``,
interpolated linearly with period 1, so the commutation relation holds
exactly by construction.  A boundary lift samples the isotopy's boundary
windings.  The rotation number is returned as a rigorous enclosure, from the
range of the samples or from the order of many iterated starts, stopped as
soon as its half-width reaches 1/n.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .flow import position_windings

DEFAULT_LIFT_SAMPLES = 4096
TOL_PERIOD = 1e-10
PERIOD_SEARCH_MAX = 10_000
RHO_STARTS = 64
ORBIT_SAMPLES = 1000  # weighted points of a non-periodic orbit measure


class LiftedCircleMap:
    """A lift represented by N samples of its displacement.

    ``values[j]`` is ``delta(j / N)``; between the samples ``delta`` is
    interpolated linearly with period 1, so the commutation relation is
    exact.  The sample count of a boundary lift is ``DEFAULT_LIFT_SAMPLES``.
    """

    def __init__(self, grid_values):
        self.values = np.asarray(grid_values, dtype=float)
        self._grid = np.concatenate([self.values, self.values[:1]])
        self._xs = np.linspace(0.0, 1.0, self.values.size + 1)

    def delta(self, x):
        return np.interp(np.mod(x, 1.0), self._xs, self._grid)

    def __call__(self, x):
        return np.asarray(x, dtype=float) + self.delta(x)

    def scalar_delta(self):
        """``delta`` of one Python float, for orbit walks: it interpolates in
        Python floats as ``np.interp`` does, so the values agree bit for bit."""
        xs, fs = memoryview(self._xs), memoryview(self._grid)  # items read as Python floats

        def delta(x):
            x %= 1.0  # the remainder np.mod takes
            j = bisect.bisect_right(xs, x) - 1
            if xs[j] == x:  # a node (x = 1.0 included): its value, as np.interp returns
                return fs[j]
            return (fs[j + 1] - fs[j]) / (xs[j + 1] - xs[j]) * (x - xs[j]) + fs[j]

        return delta

    def interpolation_error(self) -> float:
        """Estimated sup distance to the lift the samples were taken from.

        The distance to the interpolant of every other sample, attained at the
        dropped samples: ``max_j |delta_{2j+1} - (delta_{2j} + delta_{2j+2}) / 2|``.
        """
        g = self._grid
        return float(np.max(np.abs(g[1:-1:2] - 0.5 * (g[:-2:2] + g[2::2])), initial=0.0))


@dataclass(frozen=True)
class RotationNumberEstimate:
    value: float
    rigorous_halfwidth: float
    iterates_used: int


@dataclass(frozen=True)
class BoundaryMeasure:
    """Weighted points of [0, 1) approximating an invariant probability measure."""

    points: np.ndarray
    weights: np.ndarray
    periodic: bool = False

    def __post_init__(self):
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")


def boundary_displacement(isotopy, xs) -> np.ndarray:
    """The displacement ``delta`` of the boundary lift at the angles ``xs``.

    Follows ``t -> f_t(e^{2 pi i x})`` by continuous argument tracking; the
    total argument variation is the displacement at x.  An unresolved
    winding raises StepTooCoarse (from ``position_windings``).
    """
    return position_windings(isotopy, np.exp(2j * np.pi * np.asarray(xs, dtype=float)))[0]


def lift_from_isotopy(isotopy) -> LiftedCircleMap:
    """Lift of the boundary restriction, sampled at ``DEFAULT_LIFT_SAMPLES``
    equally spaced angles."""
    xs = np.arange(DEFAULT_LIFT_SAMPLES) / DEFAULT_LIFT_SAMPLES
    return LiftedCircleMap(boundary_displacement(isotopy, xs))


def rotation_number(lift: LiftedCircleMap, n: int = 100_000, x0: float = 0.0) -> RotationNumberEstimate:
    """Rigorous enclosure of the rotation number, returned once its half-width is 1/n.

    rho is an orbit average of delta, so a lift whose sample range is
    within ``2/n`` returns it at once.  Otherwise the ``K = RHO_STARTS`` + 1
    starts ``x_k = x0 + k/K`` are iterated as one array: ``F^m`` is
    increasing, so ``m rho`` lies in ``[min_k (F^m(x_k) - x_{k+1}),
    max_k (F^m(x_{k+1}) - x_k)]``, of width below ``1 + 2/K``, and the loop
    stops by ``m = n``.  The value is the midpoint; the half-width adds one
    ulp of the iterates per step (rho is monotone and 1-Lipschitz in the
    lift's sup norm).  Rigorous for the sampled lift, plus the estimate
    ``lift.interpolation_error()`` of its distance to the lift it samples.
    Raises ValueError when the iterates leave their order (not increasing).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    interp = lift.interpolation_error()
    if np.ptp(lift.values) <= 2.0 / n:
        lo, hi = float(np.min(lift.values)), float(np.max(lift.values))
        ulp = float(np.spacing(max(-lo, hi)))
        return RotationNumberEstimate(0.5 * (lo + hi), 0.5 * (hi - lo) + ulp + interp, 1)
    starts = float(x0) + np.arange(RHO_STARTS + 1) / RHO_STARTS
    x, scale = starts, 0.0
    for m in range(1, n + 1):
        x = x + lift.delta(x)
        scale = max(scale, float(np.max(np.abs(x))))
        ulp = float(np.spacing(scale))
        if np.any(np.diff(x) < -m * ulp):
            raise ValueError("the iterates left their order: the lift is not increasing")
        lo, hi = np.min(x[:-1] - starts[1:]) / m, np.max(x[1:] - starts[:-1]) / m
        if 0.5 * (hi - lo) + ulp <= 1.0 / n:
            break
    return RotationNumberEstimate(float(0.5 * (lo + hi)), float(0.5 * (hi - lo)) + ulp + interp, m)


def invariant_measure(
    lift: LiftedCircleMap,
    burn_in: int = 1000,
    samples: int = ORBIT_SAMPLES,
    x0: float = 0.0,
) -> BoundaryMeasure:
    """Weighted orbit measure, exact on detected periodic orbits.

    If the orbit returns to ``x0`` within 1e-10 (mod 1) at some period
    ``q <= min(samples, PERIOD_SEARCH_MAX)`` the exact periodic-orbit measure
    with weights 1/q is returned.  Otherwise the ``samples`` points after
    ``burn_in`` steps (which reach an attracting orbit) are weighted by
    ``exp(-1/(t(1 - t)))`` at ``t = (n + 1/2)/samples``, normalized: on a
    quasiperiodic orbit this weighted Birkhoff average converges faster than
    any power of ``1/samples`` (Das-Yorke, Nonlinearity 31, 2018), where the
    plain average converges like ``1/samples``.  Both come from one walk.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    limit = min(samples, PERIOD_SEARCH_MAX)
    delta = lift.scalar_delta()
    orbit = [float(x0)]
    x = float(x0)
    for k in range(1, max(limit + 1, burn_in + samples)):
        x += delta(x)
        if k <= limit and abs(x - x0 - round(x - x0)) < TOL_PERIOD:
            pts = np.mod(np.array(orbit), 1.0)
            return BoundaryMeasure(points=pts, weights=np.full(k, 1.0 / k), periodic=True)
        orbit.append(x)
    pts = np.mod(orbit[burn_in:burn_in + samples], 1.0)
    t = (np.arange(samples) + 0.5) / samples
    weights = np.exp(-1.0 / (t * (1.0 - t)))
    return BoundaryMeasure(points=pts, weights=weights / np.sum(weights), periodic=False)
