"""Built-in families of area-preserving disk maps.

Radial families (rotations, radial twists, compactly supported bumps) are the
backbone: a radial generator rotates every circle rigidly, so the
flow, the Jacobian, the boundary lift, the action function and all three
invariants have closed forms (stated in the family docstrings) that the
generic machinery is tested against.  Conjugation by the time-tau map of a
non-radial generator produces the non-trivial examples (stand-ins for
irrational pseudo-rotations: same rotation number, zero action average).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial

from .errors import BoundaryNotConstant, ConfigError
from .fields import HamiltonianField, scaled_field
from .flow import ConcatIsotopy, ConjugatedIsotopy, ConjugatorPair, FieldIsotopy, MapBundle, RadialIsotopy


class RadialProfile:
    """Radial generator ``H(z) = g(|z|^2)``.

    ``g``, the angular speed ``w = -g'`` in turns per unit time and its
    derivative ``dw`` are vectorized functions of ``s = |z|^2``.  Every circle
    is invariant and rotates rigidly at ``w(s)``, so the field has the closed
    gradient ``-2 w z`` and Wirtinger pair ``(2 pi i (w + s w'), 2 pi i w' z^2)``,
    evaluated on the rows ``u = Re z``, ``v = Im z`` (see ``fields``).
    ``breakpoints`` are the radii where ``g`` may be non-smooth.
    """

    def __init__(self, g, w, dw, name: str = "radial", breakpoints=()):
        self.g = g
        self.w_of_s = w
        self.dw_ds = dw
        self.name = name
        self.breakpoints = tuple(breakpoints)

    def scaled(self, c: float):
        # 0.0 + c x rather than c x: at c = -1 a speed of zero stays +0.0
        g, w, dw = self.g, self.w_of_s, self.dw_ds
        return RadialProfile(
            lambda s: 0.0 + c * g(s),
            lambda s: 0.0 + c * w(s),
            lambda s: 0.0 + c * dw(s),
            name=f"{c}*{self.name}",
            breakpoints=self.breakpoints,
        )

    def field(self) -> HamiltonianField:
        g, w, dw = self.g, self.w_of_s, self.dw_ds

        def h(z):
            return g(np.abs(np.asarray(z)) ** 2)

        def grad(u, v):
            c = -2.0 * w(u * u + v * v)
            return c * u, c * v

        # b = 2 pi i w'(s) z^2, z^2 = (u^2 - v^2) + 2 i u v
        def wirt(u, v):
            s = u * u + v * v
            dws = dw(s)
            c = 2.0 * np.pi * dws
            return 0.0, 2.0 * np.pi * (w(s) + s * dws), -c * (2.0 * u * v), c * (u * u - v * v)

        return HamiltonianField(h, grad=grad, wirtinger=wirt, name=self.name,
                                radial_breakpoints=self.breakpoints)


def poly_profile(g: Polynomial, name: str = "radial") -> RadialProfile:
    """Radial profile of a polynomial ``g``; the boundary rotates at ``-g'(1)``."""
    w = -g.deriv()
    return RadialProfile(g, w, w.deriv(), name=name)


def bump_profile(n: int) -> RadialProfile:
    """Compactly supported plateau bump ``H(z) = h_n(|z|)``.

    ``h_n = c_n`` for ``r <= 1/(2n)``, ``c_n psi(u)`` on the descent
    ``1/(2n) < r < 1/n`` (cubic smoothstep ``psi(u) = u^2 (3 - 2u)``,
    ``u = 2 (1 - n r)``) and 0 beyond, so ``h_n`` is constant near the origin
    and vanishes for ``r > 1/n``.  The constant ``c_n = 40 n^2 / (23 pi)``
    makes ``int_0^1 h_n(r) 2 pi r dr = 1`` exactly (the profile's first moment
    is 23/80 in closed form).  The speed is ``w = -h_n' / 2r``.
    """
    if n < 2:
        raise ValueError("bump index must be >= 2")
    n = int(n)
    c = 40.0 * n * n / (23.0 * np.pi)

    def descent(fn, inside=0.0):
        # fn(r, u) on the descent, ``inside`` on the plateau, 0 beyond
        def of_s(s):
            r = np.sqrt(np.asarray(s, dtype=float))
            out = np.where(r <= 0.5 / n, inside, 0.0)
            mid = (r > 0.5 / n) & (r < 1.0 / n)
            out[mid] = fn(r[mid], 2.0 * (1.0 - n * r[mid]))
            return out

        return of_s

    # h_n'(r) = -2 n c_n psi'(u) and h_n''(r) = 4 n^2 c_n psi''(u); w' = (dw/dr) / 2r
    def hp(u):
        return c * n * (-2.0 * (6.0 * u * (1.0 - u)))

    def hpp(u):
        return c * n**2 * (4.0 * (6.0 - 12.0 * u))

    return RadialProfile(
        descent(lambda r, u: c * (u * u * (3.0 - 2.0 * u)), inside=c),
        descent(lambda r, u: -hp(u) / (2.0 * r)),
        descent(lambda r, u: -(hpp(u) * r - hp(u)) / (2.0 * r**2) / (2.0 * r)),
        name=f"bump({n})",
        breakpoints=(0.5 / n, 1.0 / n),
    )


# ---------------------------------------------------------------------------
# families


def rotation(alpha: float) -> MapBundle:
    """Rigid rotation by ``alpha`` turns, generated by H = alpha (1 - |z|^2)."""
    profile = poly_profile(Polynomial([alpha, -alpha]), name=f"rotation({alpha})")
    return MapBundle(isotopy=RadialIsotopy(profile), name=f"rotation({alpha})")


def radial_twist(coeffs) -> MapBundle:
    """Twist generated by ``H(z) = g(|z|^2)`` for a polynomial with g(1) = 0.

    Closed forms: invariant ``2 int_0^1 g``, boundary rotation ``-g'(1)``,
    action ``A(z) = g(s) - s g'(s) + g'(1)`` with ``s = |z|^2``, per-circle
    winding ``-g'(s)``.
    """
    g = Polynomial(np.asarray(coeffs, dtype=float))
    if abs(g(1.0)) > 1e-12:
        raise BoundaryNotConstant(f"twist profile must vanish at s=1, got g(1)={g(1.0)}")
    return MapBundle(
        isotopy=RadialIsotopy(poly_profile(g, name="twist")),
        name="twist(" + ",".join(f"{c:g}" for c in np.asarray(coeffs, dtype=float)) + ")",
    )


def quadratic_twist(beta: float) -> MapBundle:
    """The workhorse twist ``g(s) = beta (1 - s)^2``."""
    return radial_twist([beta, -2.0 * beta, beta])


def bump(n: int) -> MapBundle:
    """Compactly supported bump with unit mass; invariant 2/pi for every n."""
    return MapBundle(isotopy=RadialIsotopy(bump_profile(n)), name=f"bump({n})")


def off_center_conjugator(beta: float = 0.5) -> HamiltonianField:
    """Non-radial generator ``H = beta (1 - |z|^2)^2 u`` vanishing on the circle.

    Both H and dH vanish on the boundary, so its flow fixes S^1 pointwise;
    conjugating by its time-tau map preserves boundary dynamics exactly.
    """

    def h(z):
        z = np.asarray(z)
        s = np.abs(z) ** 2
        return beta * (1.0 - s) ** 2 * np.real(z)

    # H_u + i H_v = beta (1 - s)((1 - s) - 4 u z), in place on the rows
    def grad(u, v):
        w = 1.0 - (u * u + v * v)
        m = -4.0 * u
        hu = m * u
        hu += w
        hv = m * v
        w *= beta
        hu *= w
        hv *= w
        return hu, hv

    # (dX/dz, dX/dz_bar) = (-4 i pi beta u (3s - 2), -2 i pi beta z (z^2 + 3s - 2)),
    # z (z^2 + 3s - 2) = 2 u (2 u^2 - 1) + 2 i v (3 u^2 + v^2 - 1)
    def wirt(u, v):
        c, uu, vv = 4.0 * np.pi * beta, u * u, v * v
        cu = -c * u
        return 0.0, cu * (3.0 * (uu + vv) - 2.0), (c * v) * (3.0 * uu + vv - 1.0), cu * (2.0 * uu - 1.0)

    return HamiltonianField(h, grad=grad, wirtinger=wirt, name=f"offcenter({beta})")


def boundary_shear_conjugator(beta: float = 0.3) -> HamiltonianField:
    """Non-radial generator ``H = beta (1 - |z|^2) u``, constant (0) on the circle.

    Unlike the off-center conjugator its differential does not vanish on the
    boundary, so its flow moves S^1 non-rigidly (with fixed points at +-i);
    conjugating a rational rotation by it yields distinct periodic boundary
    orbits carrying genuinely different action values.
    """

    def h(z):
        z = np.asarray(z)
        return beta * (1.0 - np.abs(z) ** 2) * np.real(z)

    # H_u + i H_v = beta ((1 - s) - 2 u z)
    def grad(u, v):
        return beta * ((1.0 - (u * u + v * v)) - 2.0 * u * u), (-2.0 * beta) * (u * v)

    # (dX/dz, dX/dz_bar) = (2 i pi beta (z + z_bar), 2 i pi beta z)
    def wirt(u, v):
        c = 2.0 * np.pi * beta
        return 0.0, (2.0 * c) * u, -c * v, c * u

    return HamiltonianField(h, grad=grad, wirtinger=wirt, name=f"shear({beta})")


def conjugate(bundle: MapBundle, conjugator: HamiltonianField, tau: float) -> MapBundle:
    """``h . f . h^-1`` for ``h`` the time-tau map of a generator (the flow of ``tau H``)."""
    if tau == 0.0:
        return bundle
    pair = ConjugatorPair(FieldIsotopy(scaled_field(conjugator, tau)))
    return MapBundle(isotopy=ConjugatedIsotopy(pair, bundle.isotopy), name=f"conj({bundle.name};tau={tau})")


def conjugated_rotation(alpha: float, conjugator=None, tau: float = 0.0) -> MapBundle:
    """Conjugated rotation ``h R_alpha h^-1``: rotation number alpha, cal1 = 0."""
    base = rotation(alpha)
    if conjugator is None:
        return base
    return conjugate(base, conjugator, tau)


def compose(a: MapBundle, b: MapBundle) -> MapBundle:
    """Bundle of ``a o b`` (b acts first), by time-concatenation of isotopies."""
    pieces = []
    for part in (b.isotopy, a.isotopy):
        pieces.extend(part.pieces if isinstance(part, ConcatIsotopy) else [part])
    return MapBundle(isotopy=ConcatIsotopy(pieces), name=f"{a.name}o{b.name}")


def _iterated(iso, n: int):
    """The n-th iterate: a radial flow of n times the generator (a one-parameter
    group), a conjugation of the iterated inner isotopy on the same conjugator
    pair (``(h f h^-1)^n = h f^n h^-1``), else n concatenated copies."""
    if isinstance(iso, RadialIsotopy):
        return RadialIsotopy(iso.profile.scaled(n))
    if isinstance(iso, ConjugatedIsotopy):
        return ConjugatedIsotopy(iso.pair, _iterated(iso.inner, n))
    return ConcatIsotopy((iso.pieces if isinstance(iso, ConcatIsotopy) else [iso]) * n)


def iterate(a: MapBundle, n: int) -> MapBundle:
    if n == 0:
        return identity()
    if n < 0:
        return iterate(inverse(a), -n)
    return MapBundle(isotopy=_iterated(a.isotopy, n), name=f"{a.name}^{n}")


def inverse(a: MapBundle) -> MapBundle:
    return MapBundle(isotopy=a.isotopy.inverse(), name=f"{a.name}^-1")


def identity() -> MapBundle:
    out = rotation(0.0)
    out.name = "identity"
    return out


# ---------------------------------------------------------------------------
# serialization from configuration trees


def _count(value, what: str, minimum=1) -> int:
    """A parameter that must be an integer of at least ``minimum``.

    One rule for map counts and CLI budgets: a non-integral number, a string
    or a boolean is a ConfigError, never truncated or read as 0/1.
    """
    try:
        if not isinstance(value, bool) and int(value) == value and int(value) >= minimum:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    bound = f" >= {minimum}" if np.isfinite(minimum) else ""
    raise ConfigError(f"{what} must be an integer{bound}, got {value!r}")


def _known_keys(obj: dict, allowed, what: str) -> dict:
    """``obj`` when it holds only keys from ``allowed``; a stray key is a
    ConfigError that names it.  One rule for every object of a config tree."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{what} has unknown keys {unknown}; it reads {tuple(allowed)}")
    return obj


def _finite(value):
    """A map parameter as float (or float array); booleans, NaN and infinities are rejected."""
    out = np.asarray(value, dtype=float)
    booleans = any(isinstance(v, bool) for v in np.ravel(np.asarray(value, dtype=object)))
    if booleans or not np.all(np.isfinite(out)):
        raise ConfigError(f"map parameters must be finite numbers, got {value!r}")
    return float(out) if out.ndim == 0 else out


def _build_conjugator(spec: dict) -> HamiltonianField:
    if not isinstance(spec, dict):
        raise ConfigError(f"conjugator must be an object with a 'type' key, got {spec!r}")
    kind = spec.get("type")
    if kind == "off_center":
        _known_keys(spec, ("type", "beta"), "off_center conjugator")
        return off_center_conjugator(_finite(spec.get("beta", 0.5)))
    if kind == "radial_twist":
        _known_keys(spec, ("type", "coeffs"), "radial_twist conjugator")
        return radial_twist(_finite(spec["coeffs"])).field
    raise ConfigError(f"unknown conjugator type: {kind!r}")


FAMILY_PARAMS = {  # the keys each family of a map spec reads besides "family"
    "identity": (),
    "rotation": ("alpha",),
    "radial_twist": ("coeffs",),
    "quadratic_twist": ("beta",),
    "bump": ("n",),
    "conjugated_rotation": ("alpha", "conjugator", "tau"),
    "compose": ("maps",),
    "iterate": ("map", "n"),
    "inverse": ("map",),
}


def from_spec(spec: dict) -> MapBundle:
    """Build a bundle from a nested family description (the CLI map tree)."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError("map spec must be an object with a 'family' key")
    fam = spec["family"]
    if not isinstance(fam, str) or fam not in FAMILY_PARAMS:
        raise ConfigError(f"unknown family: {fam!r}")
    _known_keys(spec, ("family", *FAMILY_PARAMS[fam]), f"family {fam!r}")
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
            return bump(_count(spec["n"], "bump n", minimum=2))
        if fam == "conjugated_rotation":
            if ("conjugator" in spec) != ("tau" in spec):
                raise ConfigError("conjugated_rotation takes a 'conjugator' and its 'tau' together")
            conj = _build_conjugator(spec["conjugator"]) if "conjugator" in spec else None
            return conjugated_rotation(_finite(spec["alpha"]), conj, _finite(spec.get("tau", 0.0)))
        if fam == "compose":
            maps = [from_spec(m) for m in spec["maps"]]
            if len(maps) < 2:
                raise ConfigError("compose needs at least two maps")
            out = maps[-1]
            for m in maps[:-1][::-1]:
                out = compose(m, out)
            return out
        if fam == "iterate":
            return iterate(from_spec(spec["map"]), _count(spec["n"], "iterate n", minimum=-np.inf))
        if fam == "inverse":
            return inverse(from_spec(spec["map"]))
    except KeyError as exc:
        raise ConfigError(f"family {fam!r} is missing parameter {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad parameters for family {fam!r}: {exc}") from exc
