"""Built-in families of area-preserving disk maps with closed-form oracles.

Radial families (rotations, radial twists, compactly supported bumps) are the
backbone: an autonomous radial generator rotates every circle rigidly, so the
flow, the Jacobian, the boundary lift, the action function and all three
invariant computations have closed forms that the generic machinery is tested
against.  Conjugation by the time-tau map of a non-radial generator produces
the non-trivial examples (stand-ins for irrational pseudo-rotations: same
rotation number, zero action average).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial

from .errors import BoundaryNotConstant, ConfigError
from .fields import HamiltonianField, scaled_field
from .flow import ConcatIsotopy, ConjugatedIsotopy, FieldIsotopy, MapBundle, RadialIsotopy


class PolyRadialProfile:
    """Autonomous generator ``H(z) = g(|z|^2)`` for a polynomial ``g``.

    Angular speed in turns per unit time is ``w(s) = -g'(s)``; circles are
    invariant, the boundary rotates at ``-g'(1)``.
    """

    def __init__(self, g: Polynomial, name: str = "radial"):
        self.g = g
        self.dg = g.deriv()
        self.d2g = g.deriv(2) if g.degree() >= 2 else Polynomial([0.0])
        self.name = name

    def w_of_s(self, s):
        return -self.dg(s)

    def dw_ds(self, s):
        return -self.d2g(s)

    def negated(self):
        return PolyRadialProfile(-self.g, name=f"-{self.name}")

    def field(self) -> HamiltonianField:
        g, dg, d2g = self.g, self.dg, self.d2g

        def h(t, z):
            return g(np.abs(np.asarray(z)) ** 2)

        def grad(t, z):
            z = np.asarray(z)
            return 2.0 * dg(np.abs(z) ** 2) * z

        def wirt(t, z):
            z = np.asarray(z)
            s = np.abs(z) ** 2
            a = -2j * np.pi * (dg(s) + s * d2g(s))
            b = -2j * np.pi * d2g(s) * z * z
            return a, b

        return HamiltonianField(
            h, grad=grad, wirtinger=wirt, name=self.name, autonomous=True
        )


def _smoothstep(u):
    return u * u * (3.0 - 2.0 * u)


def _smoothstep_d(u):
    return 6.0 * u * (1.0 - u)


def _smoothstep_dd(u):
    return 6.0 - 12.0 * u


class BumpRadialProfile:
    """Compactly supported plateau bump ``H(z) = h_n(|z|)``.

    ``h_n(r) = c_n psi(n r)`` with ``psi = 1`` on [0, 1/2], a cubic smoothstep
    descent on [1/2, 1] and 0 beyond, so ``h_n`` is constant near the origin
    and vanishes for ``r > 1/n``.  The constant ``c_n = 40 n^2 / (23 pi)``
    makes ``int_0^1 h_n(r) 2 pi r dr = 1`` exactly (the profile's first moment
    is 23/80 in closed form).
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("bump index must be >= 2")
        self.n = int(n)
        self.c = 40.0 * n * n / (23.0 * np.pi)
        self.name = f"bump({n})"

    def _psi(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[x <= 0.5] = 1.0
        mid = (x > 0.5) & (x < 1.0)
        out[mid] = _smoothstep(2.0 * (1.0 - x[mid]))
        return out

    def _psi_d(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        mid = (x > 0.5) & (x < 1.0)
        out[mid] = -2.0 * _smoothstep_d(2.0 * (1.0 - x[mid]))
        return out

    def _psi_dd(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        mid = (x > 0.5) & (x < 1.0)
        out[mid] = 4.0 * _smoothstep_dd(2.0 * (1.0 - x[mid]))
        return out

    def h_of_r(self, r):
        return self.c * self._psi(self.n * np.asarray(r, dtype=float))

    def _hp(self, r):
        return self.c * self.n * self._psi_d(self.n * np.asarray(r, dtype=float))

    def _hpp(self, r):
        return self.c * self.n**2 * self._psi_dd(self.n * np.asarray(r, dtype=float))

    def w_of_s(self, s):
        r = np.sqrt(np.asarray(s, dtype=float))
        out = np.zeros_like(r)
        mid = (r > 0.5 / self.n) & (r < 1.0 / self.n)
        out[mid] = -self._hp(r[mid]) / (2.0 * r[mid])
        return out

    def _dw_dr(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        mid = (r > 0.5 / self.n) & (r < 1.0 / self.n)
        rm = r[mid]
        out[mid] = -(self._hpp(rm) * rm - self._hp(rm)) / (2.0 * rm**2)
        return out

    def dw_ds(self, s):
        r = np.sqrt(np.asarray(s, dtype=float))
        out = np.zeros_like(r)
        mid = (r > 0.5 / self.n) & (r < 1.0 / self.n)
        out[mid] = self._dw_dr(r[mid]) / (2.0 * r[mid])
        return out

    def negated(self):
        neg = BumpRadialProfile(self.n)
        neg.c = -neg.c
        neg.name = f"-{self.name}"
        return neg

    def radial_breakpoints(self):
        return (0.5 / self.n, 1.0 / self.n)

    def field(self) -> HamiltonianField:
        def h(t, z):
            return self.h_of_r(np.abs(np.asarray(z)))

        def grad(t, z):
            z = np.asarray(z, dtype=complex)
            r = np.abs(z)
            out = np.zeros_like(z)
            mid = (r > 0.5 / self.n) & (r < 1.0 / self.n)
            out[mid] = self._hp(r[mid]) * z[mid] / r[mid]
            return out

        return HamiltonianField(
            h,
            grad=grad,
            name=self.name,
            autonomous=True,
            radial_breakpoints=self.radial_breakpoints(),
        )


# ---------------------------------------------------------------------------
# families


def rotation(alpha: float) -> MapBundle:
    """Rigid rotation by ``alpha`` turns, generated by H = alpha (1 - |z|^2)."""
    profile = PolyRadialProfile(Polynomial([alpha, -alpha]), name=f"rotation({alpha})")
    return MapBundle(
        isotopy=RadialIsotopy(profile),
        name=f"rotation({alpha})",
        oracle={"cal1": 0.0, "cal": float(alpha), "rho": float(alpha)},
    )


def radial_twist(coeffs) -> MapBundle:
    """Twist generated by ``H(z) = g(|z|^2)`` for a polynomial with g(1) = 0.

    Closed forms attached as oracle values: invariant ``2 int_0^1 g``,
    boundary rotation ``-g'(1)``, action ``A(z) = g(s) - s g'(s) + g'(1)``
    with ``s = |z|^2``, per-circle winding ``-g'(s)``.
    """
    g = Polynomial(np.asarray(coeffs, dtype=float))
    if abs(g(1.0)) > 1e-12:
        raise BoundaryNotConstant(f"twist profile must vanish at s=1, got g(1)={g(1.0)}")
    profile = PolyRadialProfile(g, name="twist")
    dg = g.deriv()
    cal = float(2.0 * (g.integ()(1.0) - g.integ()(0.0)))
    rho = float(-dg(1.0))

    def action(z):
        s = np.abs(np.asarray(z)) ** 2
        return g(s) - s * dg(s) + dg(1.0)

    def winding(z):
        return -dg(np.abs(np.asarray(z)) ** 2)

    return MapBundle(
        isotopy=RadialIsotopy(profile),
        name="twist(" + ",".join(f"{c:g}" for c in np.asarray(coeffs, dtype=float)) + ")",
        oracle={
            "cal1": cal - rho,
            "cal": cal,
            "rho": rho,
            "action": action,
            "winding": winding,
        },
    )


def quadratic_twist(beta: float) -> MapBundle:
    """The workhorse twist ``g(s) = beta (1 - s)^2``."""
    return radial_twist([beta, -2.0 * beta, beta])


def bump(n: int) -> MapBundle:
    """Compactly supported bump with unit mass; invariant 2/pi for every n."""
    profile = BumpRadialProfile(n)
    return MapBundle(
        isotopy=RadialIsotopy(profile),
        name=f"bump({n})",
        oracle={
            "cal1": 2.0 / np.pi,
            "cal": 2.0 / np.pi,
            "rho": 0.0,
            "d0_bound": 2.0 / n,
            "support_radius": 1.0 / n,
        },
    )


def off_center_conjugator(beta: float = 0.5) -> HamiltonianField:
    """Non-radial generator ``H = beta (1 - |z|^2)^2 u`` vanishing on the circle.

    Both H and dH vanish on the boundary, so its flow fixes S^1 pointwise;
    conjugating by its time-tau map preserves boundary dynamics exactly.
    """

    def h(t, z):
        z = np.asarray(z)
        s = np.abs(z) ** 2
        return beta * (1.0 - s) ** 2 * np.real(z)

    def grad(t, z):
        z = np.asarray(z)
        u, v = np.real(z), np.imag(z)
        s = u * u + v * v
        hu = beta * ((1.0 - s) ** 2 - 4.0 * u * u * (1.0 - s))
        hv = -4.0 * beta * u * v * (1.0 - s)
        return hu + 1j * hv

    def wirt(t, z):
        z = np.asarray(z, dtype=complex)
        zb = np.conj(z)
        s = np.abs(z) ** 2
        a = -2j * np.pi * beta * (z + zb) * (3.0 * s - 2.0)
        b = -2j * np.pi * beta * z * (z * z + 3.0 * s - 2.0)
        return a, b

    return HamiltonianField(h, grad=grad, wirtinger=wirt, name=f"offcenter({beta})", autonomous=True)


def boundary_shear_conjugator(beta: float = 0.3) -> HamiltonianField:
    """Non-radial generator ``H = beta (1 - |z|^2) u``, constant (0) on the circle.

    Unlike the off-center conjugator its differential does not vanish on the
    boundary, so its flow moves S^1 non-rigidly (with fixed points at +-i);
    conjugating a rational rotation by it yields distinct periodic boundary
    orbits carrying genuinely different action values.
    """

    def h(t, z):
        z = np.asarray(z)
        return beta * (1.0 - np.abs(z) ** 2) * np.real(z)

    def grad(t, z):
        z = np.asarray(z)
        u, v = np.real(z), np.imag(z)
        s = u * u + v * v
        hu = beta * ((1.0 - s) - 2.0 * u * u)
        hv = -2.0 * beta * u * v
        return hu + 1j * hv

    def wirt(t, z):
        z = np.asarray(z, dtype=complex)
        a = 2j * np.pi * beta * (z + np.conj(z))
        b = 2j * np.pi * beta * z
        return a, b

    return HamiltonianField(h, grad=grad, wirtinger=wirt, name=f"shear({beta})", autonomous=True)


def conjugate(bundle: MapBundle, conjugator: HamiltonianField, tau: float) -> MapBundle:
    """``h . f . h^-1`` for ``h`` the time-tau map of an autonomous generator."""
    if tau == 0.0:
        return bundle
    if not conjugator.autonomous:
        raise ValueError("only autonomous generators can be time-scaled")
    h_iso = FieldIsotopy(scaled_field(conjugator, tau))
    iso = ConjugatedIsotopy(h_iso, bundle.isotopy, name=f"conj({bundle.name})")
    oracle = {k: bundle.oracle[k] for k in ("cal1", "cal", "rho") if k in bundle.oracle}
    return MapBundle(isotopy=iso, name=f"conj({bundle.name};tau={tau})", oracle=oracle)


def conjugated_rotation(alpha: float, conjugator=None, tau: float = 0.0) -> MapBundle:
    """Conjugated rotation ``h R_alpha h^-1``: rotation number alpha, cal1 = 0."""
    base = rotation(alpha)
    if conjugator is None or tau == 0.0:
        return base
    out = conjugate(base, conjugator, tau)
    out.oracle.update({"cal1": 0.0, "cal": float(alpha), "rho": float(alpha)})
    return out


def compose(a: MapBundle, b: MapBundle) -> MapBundle:
    """Bundle of ``a o b`` (b acts first), by time-concatenation of isotopies."""
    pieces = []
    for part in (b.isotopy, a.isotopy):
        pieces.extend(part.pieces if isinstance(part, ConcatIsotopy) else [part])
    oracle = {}
    for key in ("cal", "rho"):
        if key in a.oracle and key in b.oracle:
            oracle[key] = a.oracle[key] + b.oracle[key]
    return MapBundle(
        isotopy=ConcatIsotopy(pieces), name=f"{a.name}o{b.name}", oracle=oracle
    )


def iterate(a: MapBundle, n: int) -> MapBundle:
    if n == 0:
        return identity()
    if n < 0:
        return iterate(inverse(a), -n)
    base = a.isotopy.pieces if isinstance(a.isotopy, ConcatIsotopy) else [a.isotopy]
    oracle = {k: n * a.oracle[k] for k in ("cal", "rho") if k in a.oracle}
    return MapBundle(isotopy=ConcatIsotopy(base * n), name=f"{a.name}^{n}", oracle=oracle)


def inverse(a: MapBundle) -> MapBundle:
    oracle = {k: -a.oracle[k] for k in ("cal", "rho") if k in a.oracle}
    return MapBundle(isotopy=a.isotopy.inverse(), name=f"{a.name}^-1", oracle=oracle)


def identity() -> MapBundle:
    out = rotation(0.0)
    out.name = "identity"
    return out


# ---------------------------------------------------------------------------
# serialization from configuration trees


def _finite(value):
    """A map parameter as float (or float array); NaN and infinities are rejected."""
    out = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"map parameters must be finite, got {value!r}")
    return float(out) if out.ndim == 0 else out


def _build_conjugator(spec: dict) -> HamiltonianField:
    kind = spec.get("type")
    if kind == "off_center":
        return off_center_conjugator(_finite(spec.get("beta", 0.5)))
    if kind == "radial_twist":
        bundle = radial_twist(_finite(spec["coeffs"]))
        return bundle.field
    raise ConfigError(f"unknown conjugator type: {kind!r}")


def from_spec(spec: dict) -> MapBundle:
    """Build a bundle from a nested family description (the CLI map tree)."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError("map spec must be an object with a 'family' key")
    fam = spec["family"]
    try:
        if fam == "identity":
            return identity()
        if fam == "rotation":
            return rotation(_finite(spec["alpha"]))
        if fam == "radial_twist":
            return radial_twist(_finite(spec["coeffs"]))
        if fam == "quadratic_twist":
            return quadratic_twist(_finite(spec["beta"]))
        if fam == "bump":
            return bump(int(spec["n"]))
        if fam == "conjugated_rotation":
            conj = _build_conjugator(spec["conjugator"]) if "conjugator" in spec else None
            return conjugated_rotation(_finite(spec["alpha"]), conj, _finite(spec.get("tau", 0.0)))
        if fam == "compose":
            maps = [from_spec(m) for m in spec["maps"]]
            if len(maps) < 2:
                raise ConfigError("compose needs at least two maps")
            out = maps[-1]
            for m in reversed(maps[:-1]):
                out = compose(m, out)
            return out
        if fam == "iterate":
            return iterate(from_spec(spec["map"]), int(spec["n"]))
        if fam == "inverse":
            return inverse(from_spec(spec["map"]))
    except KeyError as exc:
        raise ConfigError(f"family {fam!r} is missing parameter {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad parameters for family {fam!r}: {exc}") from exc
    raise ConfigError(f"unknown family: {fam!r}")
