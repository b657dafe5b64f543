"""Disk conventions and angle bookkeeping.

Points and tangent vectors of the plane are represented as complex numbers
``z = u + iv`` (scalars or numpy arrays).  All angles, windings and rotation
numbers are measured in *turns*: one turn is a full revolution (2*pi radians).
The area form is the normalized ``omega = (1/pi) du ^ dv`` so the closed unit
disk has total mass 1, and the Liouville primitive is
``lambda = r^2/(2 pi) d(theta)``, i.e. ``lambda_z(w) = (u w_v - v w_u)/(2 pi)``.
Sampled paths wind by one vectorized rule, ``unwrap_turns_along``, which flags
a path instead of unwrapping it when an argument step reaches a quarter turn
or a vector nearly vanishes.
"""

from __future__ import annotations

import numpy as np

from .errors import PointOutsideDisk

TOL_BOUNDARY = 1e-9
TOL_AREA = 1e-6
GAP_LIMIT_TURNS = 0.25
MIN_VECTOR_NORM = 1e-12
INSIDE_MARGIN = 1e-12  # project_to_disk's early return, far above the rounding of |z|^2

TWO_PI = 2.0 * np.pi


def liouville_eval(z, w):
    """Evaluate the Liouville form r^2/(2 pi) d(theta) at ``z`` on vector ``w``.

    In Cartesian terms this is ``(u w_v - v w_u) / (2 pi)``, the imaginary
    part of ``conj(z) * w`` over 2 pi.  Vectorized over arrays.
    """
    return np.imag(np.conj(z) * w) / TWO_PI


def unwrap_turns_along(paths: np.ndarray):
    """Vectorized winding of many paths sampled on a common time grid.

    ``paths`` has shape (T, N): T time samples of N planar vectors.  Returns
    ``(turns, ok)`` where ``turns[j]`` is the accumulated argument variation of
    column j and ``ok[j]`` is False when some step gap reached
    ``GAP_LIMIT_TURNS`` or some sample fell below the norm threshold (such
    columns need a finer grid; their value is unreliable).
    """
    small = np.abs(paths) < MIN_VECTOR_NORM
    steps = np.angle(paths[1:] * np.conj(paths[:-1])) / TWO_PI
    steps[paths[1:] == paths[:-1]] = 0.0  # equal endpoints wind by exactly zero
    ok = ~(np.any(np.abs(steps) >= GAP_LIMIT_TURNS, axis=0) | np.any(small, axis=0))
    return np.sum(steps, axis=0), ok


def wirtinger_det(p, q):
    """det of the real-linear map dz -> p dz + q dz_bar (vectorized)."""
    return np.abs(p) ** 2 - np.abs(q) ** 2


def wirtinger_apply(p, q, w):
    """Apply the real-linear map (p, q) to vector(s) ``w``."""
    return p * w + q * np.conj(w)


def wirtinger_from_images(e1, ei):
    """Wirtinger pair (p, q) of the real-linear map taking 1 to ``e1`` and i to ``ei``.

    ``e1 = p + q`` and ``ei = i (p - q)``, so ``p = (e1 - i ei)/2`` and
    ``q = (e1 + i ei)/2``.
    """
    return 0.5 * (e1 - 1j * ei), 0.5 * (e1 + 1j * ei)


def project_to_disk(u, v):
    """Radially project, in place, the points ``u + i v`` within ``TOL_BOUNDARY`` outside S^1 onto it.

    ``u`` and ``v`` are float rows.  Points farther outside raise
    PointOutsideDisk: flows of boundary-tangent fields must not leave the
    closed disk beyond numerical drift.  Rows whose largest ``u^2 + v^2`` is
    below ``1 - INSIDE_MARGIN`` return at once: the rounding of that sum and
    of ``hypot`` is far below the margin, so no ``hypot`` exceeds 1 there.
    """
    s = u * u
    s += v * v
    if np.max(s, initial=0.0) < 1.0 - INSIDE_MARGIN:  # NaN compares False
        return
    r = np.hypot(u, v)
    outside = r > 1.0
    if not np.any(outside):
        return
    if np.any(r > 1.0 + TOL_BOUNDARY):
        raise PointOutsideDisk(f"|z| = {float(np.max(r)):.12f} exceeds 1 + {TOL_BOUNDARY}")
    scale = 1.0 / r[outside]
    u[outside] *= scale
    v[outside] *= scale


def circle_point(x):
    """Point of the unit circle at position ``x`` in turns."""
    return np.exp(2j * np.pi * np.asarray(x, dtype=float))


def uniform_disk_points(n: int, rng) -> np.ndarray:
    """Draw ``n`` points distributed as the normalized area form (uniform)."""
    r = np.sqrt(rng.random(n))
    theta = rng.random(n)
    return r * circle_point(theta)
