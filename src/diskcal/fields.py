"""Time-dependent Hamiltonian generators and their vector fields.

A Hamiltonian ``H(t, z)`` (1-periodic in t, constant on the unit circle for
each t) generates the vector field solving ``dH = omega(X, .)`` with
``omega = (1/pi) du ^ dv``, namely ``X = pi (H_v, -H_u)``.  With this sign
``H(z) = alpha (1 - |z|^2)`` generates the counterclockwise rotation by
``alpha`` turns per unit time.

Only leaf isotopies carry a generator.  Concatenations and conjugations are
nodes of the isotopy tree (``flow``), and the generator route follows that
tree: it sums the pieces of a concatenation and reads a conjugation as its
inner isotopy, so no composite generator is ever built.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import central_wirtinger

H_GRAD_STEP = 1e-5
BOUNDARY_SAMPLES = 64  # points of S^1 in HamiltonianField.boundary_values


class HamiltonianField:
    """Generator ``H(t, z)`` with optional analytic derivatives.

    Parameters
    ----------
    h : callable (t, z) -> real, vectorized over a complex array ``z``
    grad : optional callable (t, z) -> complex ``H_u + i H_v``
    wirtinger : optional callable (t, z) -> (dX/dz, dX/dz_bar) of the induced
        vector field, used by the variational equation when available
    autonomous : whether ``h`` ignores ``t``
    radial_breakpoints : radii where ``z -> H(t, z)`` may be non-smooth
    """

    def __init__(
        self,
        h: Callable,
        grad: Optional[Callable] = None,
        wirtinger: Optional[Callable] = None,
        *,
        name: str = "field",
        autonomous: bool = False,
        radial_breakpoints: Sequence[float] = (),
    ):
        self._h = h
        self._grad = grad
        self._wirtinger = wirtinger
        self.name = name
        self.autonomous = autonomous
        self.radial_breakpoints = tuple(radial_breakpoints)

    def value(self, t, z):
        return self._h(t, z)

    def gradient(self, t, z):
        if self._grad is not None:
            return self._grad(t, z)
        # H_u + i H_v = 2 dH/dz_bar for a real H
        return 2.0 * central_wirtinger(lambda w: self._h(t, w), z, H_GRAD_STEP)[1]

    def vector(self, t, z):
        """Hamiltonian vector field X = pi (H_v, -H_u) as a complex number."""
        return -1j * np.pi * self.gradient(t, z)

    def vector_wirtinger(self, t, z):
        """(dX/dz, dX/dz_bar), analytic when supplied, else central differences."""
        if self._wirtinger is not None:
            return self._wirtinger(t, z)
        return central_wirtinger(lambda w: self.vector(t, w), z, H_GRAD_STEP)

    def boundary_values(self, t):
        theta = np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
        return self.value(t, np.exp(2j * np.pi * theta))


def scaled_field(base: HamiltonianField, scale: float, reverse: bool = False) -> HamiltonianField:
    """``scale * H(t, z)``, or ``scale * H(1 - t, z)`` with ``reverse``.

    ``scale=-1, reverse=True`` generates the inverse of the time-1 map; for an
    autonomous ``H`` the time-1 map of ``scale * H`` is the time-``scale`` map.
    """
    at = (lambda t: 1.0 - t) if reverse else (lambda t: t)
    return HamiltonianField(
        h=lambda t, z: scale * base.value(at(t), z),
        grad=None if base._grad is None else (lambda t, z: scale * base.gradient(at(t), z)),
        wirtinger=(
            None
            if base._wirtinger is None
            else (lambda t, z: tuple(scale * c for c in base.vector_wirtinger(at(t), z)))
        ),
        name=f"{scale}*{base.name}" + ("(1-t)" if reverse else ""),
        autonomous=base.autonomous,
        radial_breakpoints=base.radial_breakpoints,
    )

