"""Autonomous Hamiltonian generators and their vector fields.

A Hamiltonian ``H(z)`` (constant on the unit circle) generates the vector
field solving ``dH = omega(X, .)`` with ``omega = (1/pi) du ^ dv``, namely
``X = pi (H_v, -H_u)``.  With this sign ``H(z) = alpha (1 - |z|^2)``
generates the counterclockwise rotation by ``alpha`` turns per unit time.

The derivatives act on float rows: a set of N points is given by its rows
``u = Re z`` and ``v = Im z``, and every derivative comes back as real rows
of length N (a scalar may stand for a constant row).  The flow integrator
keeps its state in such rows, so no complex temporaries are built per stage.
Only the value ``H(z)`` takes complex points.

Generators carry no time.  Only leaf isotopies carry one, and the time
dependence of an isotopy lives in its tree (``flow``): a leaf flows its
generator for a signed time ``tau``, a concatenation runs its pieces in time
slots and a conjugation reads its inner isotopy, so no scaled, composite or
time-dependent generator is ever built.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

BOUNDARY_SAMPLES = 64  # points of S^1 in HamiltonianField.boundary_values


class HamiltonianField:
    """Generator ``H(z)`` with its analytic derivatives.

    Parameters
    ----------
    h : callable z -> real, vectorized over a complex array ``z``
    grad : callable (u, v) -> (H_u, H_v) on float rows
    wirtinger : callable (u, v, out) -> (Re a, Im a, Re b, Im b) of the
        Wirtinger pair ``(a, b) = (dX/dz, dX/dz_bar)`` of the induced vector
        field, written into the rows of ``out`` (shape (4, N)) but for a
        ``Re a`` it may return as the scalar 0.0; used by the variational
        equation
    radial_breakpoints : radii where ``H`` may be non-smooth
    fixes_circle : whether the flow fixes S^1 pointwise, declared for a field
        with ``|X(z)| <= C |1 - |z|^2|`` (so H and dH vanish on S^1); a flow
        of such a field moves no point of S^1 (``flow.FieldIsotopy``)
    """

    def __init__(
        self,
        h: Callable,
        grad: Callable,
        wirtinger: Callable,
        *,
        name: str = "field",
        radial_breakpoints: Sequence[float] = (),
        fixes_circle: bool = False,
    ):
        self._h = h
        self._grad = grad
        self._wirtinger = wirtinger
        self.name = name
        self.radial_breakpoints = tuple(radial_breakpoints)
        self.fixes_circle = fixes_circle

    def value(self, z):
        return self._h(z)

    def gradient(self, u, v):
        """Rows ``(H_u, H_v)``."""
        return self._grad(u, v)

    def vector(self, u, v, out=None):
        """Rows ``(X_u, X_v) = pi (H_v, -H_u)``, written into ``out`` (shape (2, N)) if given."""
        hu, hv = self.gradient(u, v)
        out = np.empty((2,) + np.shape(u)) if out is None else out
        np.multiply(hv, np.pi, out=out[0])
        np.multiply(hu, -np.pi, out=out[1])
        return out

    def vector_wirtinger(self, u, v, out=None):
        """Rows ``(Re a, Im a, Re b, Im b)``, written into ``out`` (shape (4, N))
        if given; ``Re a`` may come back as the scalar 0.0, leaving ``out[0]``
        unwritten."""
        return self._wirtinger(u, v, np.empty((4,) + np.shape(u)) if out is None else out)

    def boundary_values(self):
        theta = np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
        return self.value(np.exp(2j * np.pi * theta))
