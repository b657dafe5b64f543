"""Time-dependent Hamiltonian generators and their vector fields.

A Hamiltonian ``H(t, z)`` (1-periodic in t, constant on the unit circle for
each t) generates the vector field solving ``dH = omega(X, .)`` with
``omega = (1/pi) du ^ dv``, namely ``X = pi (H_v, -H_u)``.  With this sign
``H(z) = alpha (1 - |z|^2)`` generates the counterclockwise rotation by
``alpha`` turns per unit time.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

H_GRAD_STEP = 1e-5


def _fd_gradient(h, t, z, step=H_GRAD_STEP):
    """Central-difference gradient of ``h(t, .)`` returned as H_u + i H_v."""
    hh = step * (1.0 + np.abs(z))
    hu = (h(t, z + hh) - h(t, z - hh)) / (2.0 * hh)
    hv = (h(t, z + 1j * hh) - h(t, z - 1j * hh)) / (2.0 * hh)
    return hu + 1j * hv


class HamiltonianField:
    """Generator ``H(t, z)`` with optional analytic derivatives.

    Parameters
    ----------
    h : callable (t, z) -> real, vectorized over a complex array ``z``
    grad : optional callable (t, z) -> complex ``H_u + i H_v``
    wirtinger : optional callable (t, z) -> (dX/dz, dX/dz_bar) of the induced
        vector field, used by the variational equation when available
    autonomous : whether ``h`` ignores ``t``
    time_breakpoints : times in [0, 1] where ``t -> H(t, .)`` may be
        non-smooth (piecewise concatenations); quadratures split there
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
        time_breakpoints: Sequence[float] = (),
        radial_breakpoints: Sequence[float] = (),
    ):
        self._h = h
        self._grad = grad
        self._wirtinger = wirtinger
        self.name = name
        self.autonomous = autonomous
        self.time_breakpoints = tuple(time_breakpoints)
        self.radial_breakpoints = tuple(radial_breakpoints)

    def value(self, t, z):
        return self._h(t, z)

    def gradient(self, t, z):
        if self._grad is not None:
            return self._grad(t, z)
        return _fd_gradient(self._h, t, z)

    def vector(self, t, z):
        """Hamiltonian vector field X = pi (H_v, -H_u) as a complex number."""
        return -1j * np.pi * self.gradient(t, z)

    def vector_wirtinger(self, t, z, step=H_GRAD_STEP):
        """(dX/dz, dX/dz_bar), analytic when supplied, else central differences."""
        if self._wirtinger is not None:
            return self._wirtinger(t, z)
        hh = step * (1.0 + np.abs(z))
        xu = (self.vector(t, z + hh) - self.vector(t, z - hh)) / (2.0 * hh)
        xv = (self.vector(t, z + 1j * hh) - self.vector(t, z - 1j * hh)) / (2.0 * hh)
        return (xu - 1j * xv) / 2.0, (xu + 1j * xv) / 2.0

    def boundary_values(self, t, n: int = 64):
        theta = np.arange(n) / n
        return self.value(t, np.exp(2j * np.pi * theta))


def hamiltonian_vector_field(field: HamiltonianField, t: float, z):
    """Vector field of ``dH = omega(X, .)`` at time ``t`` and point(s) ``z``."""
    return field.vector(t, z)


class TimeReversedField(HamiltonianField):
    """Generator of the inverse time-1 map: K(t, z) = -H(1 - t, z)."""

    def __init__(self, base: HamiltonianField):
        self.base = base
        super().__init__(
            h=lambda t, z: -base.value(1.0 - t, z),
            grad=(None if base._grad is None else (lambda t, z: -base.gradient(1.0 - t, z))),
            wirtinger=(
                None
                if base._wirtinger is None
                else (lambda t, z: tuple(-c for c in base.vector_wirtinger(1.0 - t, z)))
            ),
            name=f"inv({base.name})",
            autonomous=base.autonomous,
            time_breakpoints=tuple(sorted(1.0 - b for b in base.time_breakpoints)),
            radial_breakpoints=base.radial_breakpoints,
        )


class ScaledField(HamiltonianField):
    """tau * H for an autonomous H; its time-1 map is the time-tau map of H."""

    def __init__(self, base: HamiltonianField, tau: float):
        if not base.autonomous:
            raise ValueError("only autonomous generators can be time-scaled")
        self.base = base
        self.tau = float(tau)
        super().__init__(
            h=lambda t, z: tau * base.value(t, z),
            grad=(None if base._grad is None else (lambda t, z: tau * base.gradient(t, z))),
            wirtinger=(
                None
                if base._wirtinger is None
                else (lambda t, z: tuple(tau * c for c in base.vector_wirtinger(t, z)))
            ),
            name=f"{tau}*{base.name}",
            autonomous=True,
            radial_breakpoints=base.radial_breakpoints,
        )


class ConcatenatedField(HamiltonianField):
    """Generator of a time-concatenation of isotopies, each run at m-fold speed."""

    def __init__(self, pieces: Sequence[HamiltonianField]):
        self.pieces = list(pieces)
        m = len(self.pieces)
        breaks = set()
        for i, p in enumerate(self.pieces):
            breaks.add(i / m)
            breaks.update((i + b) / m for b in p.time_breakpoints)
        breaks.discard(0.0)

        def h(t, z, _m=m):
            i = min(int(t * _m), _m - 1)
            return _m * self.pieces[i].value(t * _m - i, z)

        super().__init__(
            h=h,
            name="concat(" + ",".join(p.name for p in self.pieces) + ")",
            autonomous=False,
            time_breakpoints=tuple(sorted(breaks)),
            radial_breakpoints=tuple(
                sorted({r for p in self.pieces for r in p.radial_breakpoints})
            ),
        )


class ConjugatedField(HamiltonianField):
    """Generator of h . f_t . h^-1: K(t, z) = H(t, h^-1(z)) for symplectic h."""

    def __init__(self, inner: HamiltonianField, h_inverse_map: Callable, name: str = ""):
        self.inner = inner
        self._h_inverse_map = h_inverse_map
        super().__init__(
            h=lambda t, z: inner.value(t, h_inverse_map(np.asarray(z, dtype=complex))),
            name=name or f"conj({inner.name})",
            autonomous=inner.autonomous,
            time_breakpoints=inner.time_breakpoints,
        )
