"""Built-in families of area-preserving disk maps.

Radial families (rotations, radial twists, compactly supported bumps) are the
backbone: a radial generator rotates every circle rigidly, so the
flow, the Jacobian, the boundary lift, the action function and all three
invariants have closed forms (stated in the family docstrings) that the
generic machinery is tested against.  Conjugation by the time-tau map of a
non-radial generator produces the non-trivial examples (stand-ins for
irrational pseudo-rotations: same rotation number, zero action average).
A leaf flows its unit generator for a signed time tau, so the inverse of a
leaf and the iterate of a radial leaf change only that time.
Every family returns the map as a fresh ``flow.MapBundle`` isotopy node named
for it (``conjugate`` at tau = 0 returns its map), so the maps a derived map
is built from keep their names and cached boundary lifts.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import Polynomial

from .errors import BoundaryNotConstant, ConfigError
from .fields import HamiltonianField
from .flow import ConcatIsotopy, ConjugatedIsotopy, ConjugatorPair, FieldIsotopy, MapBundle, RadialIsotopy

MAX_ITERATE_PIECES = 2**20  # pieces of a concatenated iterate: 8 MB of pointers, far above any use


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


def _named(node: MapBundle, name: str) -> MapBundle:
    """``node`` under ``name``; a family names only the node it has just built."""
    node.name = name
    return node


def rotation(alpha: float) -> MapBundle:
    """Rigid rotation by ``alpha`` turns, generated by H = alpha (1 - |z|^2)."""
    profile = poly_profile(Polynomial([alpha, -alpha]), name=f"rotation({alpha})")
    return _named(RadialIsotopy(profile), f"rotation({alpha})")


def radial_twist(coeffs) -> MapBundle:
    """Twist generated by ``H(z) = g(|z|^2)`` for a polynomial with g(1) = 0.

    Closed forms: invariant ``2 int_0^1 g``, boundary rotation ``-g'(1)``,
    action ``A(z) = g(s) - s g'(s) + g'(1)`` with ``s = |z|^2``, per-circle
    winding ``-g'(s)``.
    """
    g = Polynomial(np.asarray(coeffs, dtype=float))
    if abs(g(1.0)) > 1e-12:
        raise BoundaryNotConstant(f"twist profile must vanish at s=1, got g(1)={g(1.0)}")
    return _named(
        RadialIsotopy(poly_profile(g, name="twist")),
        "twist(" + ",".join(f"{c:g}" for c in np.asarray(coeffs, dtype=float)) + ")",
    )


def quadratic_twist(beta: float) -> MapBundle:
    """The workhorse twist ``g(s) = beta (1 - s)^2``."""
    return radial_twist([beta, -2.0 * beta, beta])


def bump(n: int) -> MapBundle:
    """Compactly supported bump with unit mass; invariant 2/pi for every n."""
    return _named(RadialIsotopy(bump_profile(n)), f"bump({n})")


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
    """``h . f . h^-1`` for ``h`` the time-tau map of a generator; ``h^-1`` runs ``-tau``."""
    if tau == 0.0:
        return bundle
    pair = ConjugatorPair(FieldIsotopy(conjugator, tau))
    return _named(ConjugatedIsotopy(pair, bundle), f"conj({bundle.name};tau={tau})")


def conjugated_rotation(alpha: float, conjugator=None, tau: float = 0.0) -> MapBundle:
    """Conjugated rotation ``h R_alpha h^-1``: rotation number alpha, cal1 = 0."""
    base = rotation(alpha)
    if conjugator is None:
        return base
    return conjugate(base, conjugator, tau)


def compose(a: MapBundle, b: MapBundle) -> MapBundle:
    """``a o b`` (b acts first), by time-concatenation of isotopies."""
    pieces = []
    for part in (b, a):
        pieces.extend(part.pieces if isinstance(part, ConcatIsotopy) else [part])
    return _named(ConcatIsotopy(pieces), f"{a.name}o{b.name}")


def iterate(a: MapBundle, n: int) -> MapBundle:
    """The n-th iterate: a radial flow for n times as long (a one-parameter
    group), a conjugation of the iterated inner isotopy on the same conjugator
    pair (``(h f h^-1)^n = h f^n h^-1``), else n concatenated copies, at most
    ``MAX_ITERATE_PIECES`` pieces."""
    if n == 0:
        return identity()
    if n < 0:
        return iterate(inverse(a), -n)
    if isinstance(a, RadialIsotopy):
        out = RadialIsotopy(a.profile, n * a.tau)
    elif isinstance(a, ConjugatedIsotopy):
        out = ConjugatedIsotopy(a.pair, iterate(a.inner, n))
    else:
        pieces = a.pieces if isinstance(a, ConcatIsotopy) else [a]
        if len(pieces) * n > MAX_ITERATE_PIECES:
            raise ConfigError(f"iterate {n} of {len(pieces)} concatenated pieces exceeds MAX_ITERATE_PIECES")
        out = ConcatIsotopy(pieces * n)
    return _named(out, f"{a.name}^{n}")


def inverse(a: MapBundle) -> MapBundle:
    return _named(a.inverse(), f"{a.name}^-1")


def identity() -> MapBundle:
    return _named(rotation(0.0), "identity")


# ---------------------------------------------------------------------------
# reading configuration trees
#
# A rule ``rule(value, what)`` returns the value it reads or raises a
# ConfigError that names ``what``.  Every object of the CLI's config tree is
# read by ``read_object`` against a schema that lists each of its keys once,
# with that key's rule.


class ConfigObject(dict):
    """The keys a config object holds, each read by its rule.  Indexing a key
    the object does not hold is a ConfigError that names it, so a builder
    indexes the keys it needs and passes the optional ones on with ``**``."""

    def __init__(self, items, what: str):
        super().__init__(items)
        self.what = what

    def __missing__(self, key):
        raise ConfigError(f"{self.what} needs a value for {key!r}")


def config_number(value, what: str, minimum=-math.inf, integer=False):
    """The one number rule of the config tree: a JSON int or float, never a
    boolean or a string, finite and at least ``minimum``.  A count
    (``integer``) is also integral and below 2^53 in size, where every
    integer is exactly a float; it is returned as an int, a parameter as a float."""
    try:
        number = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.nan
    ok = math.isfinite(number) and number >= minimum
    if integer:
        ok = ok and number.is_integer() and abs(number) < 2.0**53
    if not ok:
        bound = f" >= {minimum}" if math.isfinite(minimum) else ""
        kind = f"an integer{bound} and below 2^53 in size" if integer else f"a finite number{bound}"
        raise ConfigError(f"{what} must be {kind}, got {value!r}")
    return int(number) if integer else number


def entries(rule, length=None):
    """The rule of a non-empty list (of exactly ``length`` entries when given)
    whose entries each follow ``rule``."""

    def read(value, what: str) -> list:
        if not isinstance(value, (list, tuple)) or not value or length not in (None, len(value)):
            size = f"list of {length} entries" if length else "non-empty list"
            raise ConfigError(f"{what} must be a {size}, got {value!r}")
        return [rule(v, f"{what} entry") for v in value]

    return read


def read_object(obj, schema: dict, what: str) -> ConfigObject:
    """The keys of the object ``obj``, each read by its rule in ``schema``.
    A non-object, or a key the schema does not list, is a ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise ConfigError(f"{what} has unknown keys {unknown}; it reads {tuple(schema)}")
    read = ((key, rule(obj[key], f"{what} {key}")) for key, rule in schema.items() if key in obj)
    return ConfigObject(read, what)


def _build(spec, table: dict, tag: str, what: str):
    """What ``spec`` describes: ``spec[tag]`` names a ``(builder, schema)``
    entry of ``table``, and the builder takes the other keys as read by the schema."""
    kind = spec.get(tag) if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{what} must be an object whose {tag!r} is one of {tuple(table)}, got {spec!r}")
    builder, schema = table[kind]
    return builder(read_object({k: v for k, v in spec.items() if k != tag}, schema, f"{what} {kind!r}"))


def _conjugated_rotation(p: ConfigObject) -> MapBundle:
    if ("conjugator" in p) != ("tau" in p):
        raise ConfigError("conjugated_rotation takes a 'conjugator' and its 'tau' together")
    return conjugated_rotation(p["alpha"], p.get("conjugator"), p.get("tau", 0.0))


def _composed(p: ConfigObject) -> MapBundle:
    if len(p["maps"]) < 2:
        raise ConfigError("compose needs at least two maps")
    return functools.reduce(compose, p["maps"])


def _map(spec, what: str) -> MapBundle:
    """The rule of a nested map spec."""
    return from_spec(spec)


# The builders reach the family functions through the module globals, where
# a caller may have rebound them.
CONJUGATORS = {  # conjugator type -> (builder, the rule of each key besides "type")
    "off_center": (lambda p: off_center_conjugator(**p), {"beta": config_number}),
    "radial_twist": (lambda p: radial_twist(p["coeffs"]).field, {"coeffs": entries(config_number)}),
}

FAMILIES = {  # family -> (builder, the rule of each key besides "family")
    "identity": (lambda p: identity(), {}),
    "rotation": (lambda p: rotation(p["alpha"]), {"alpha": config_number}),
    "radial_twist": (lambda p: radial_twist(p["coeffs"]), {"coeffs": entries(config_number)}),
    "quadratic_twist": (lambda p: quadratic_twist(p["beta"]), {"beta": config_number}),
    "bump": (lambda p: bump(p["n"]), {"n": functools.partial(config_number, minimum=2, integer=True)}),
    "conjugated_rotation": (_conjugated_rotation, {
        "alpha": config_number,
        "conjugator": lambda spec, what: _build(spec, CONJUGATORS, "type", what),
        "tau": config_number,
    }),
    "compose": (_composed, {"maps": entries(_map)}),
    "iterate": (lambda p: iterate(p["map"], p["n"]),
                {"map": _map, "n": functools.partial(config_number, integer=True)}),
    "inverse": (lambda p: inverse(p["map"]), {"map": _map}),
}


def from_spec(spec: dict) -> MapBundle:
    """Build a map from a nested family description (the CLI map tree)."""
    return _build(spec, FAMILIES, "family", "map")
