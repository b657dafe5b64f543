"""Isotopies of the disk: flows, Jacobians, and chord windings.

An isotopy is a path ``f_t`` (t in [0, 1]) of area-preserving diffeomorphisms
starting at the identity, together with enough structure to evaluate the flow
at arbitrary times, its Jacobian (as a Wirtinger pair), and the winding of
chords ``f_t(x) - f_t(y)`` in turns.  Four realizations cover the package:

* ``FieldIsotopy``     -- classical RK4 integration of a generator field with
                          the variational equation alongside,
* ``RadialIsotopy``    -- exact flow ``z -> z exp(2 pi i t w(|z|^2))`` of an
                          autonomous radial generator,
* ``ConcatIsotopy``    -- time-concatenation (reparametrized to [0, 1]),
* ``ConjugatedIsotopy``-- ``h . f_t . h^-1`` for a fixed symplectic ``h``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .errors import StepTooCoarse
from .fields import ConcatenatedField, ConjugatedField, HamiltonianField, TimeReversedField
from .geometry import (
    GAP_LIMIT_TURNS,
    TOL_BOUNDARY,
    Jacobian2,
    project_to_disk,
    uniform_disk_points,
    unwrap_turns_along,
    wirtinger_compose,
    wirtinger_det,
)

TOL_ODE = 1e-8
DEFAULT_STEPS = 256
MAX_CALIBRATION_DOUBLINGS = 6
MAX_WINDING_DOUBLINGS = 8
MIN_WINDING_STEPS = 64
MAX_TRAJ_ELEMENTS = 4_000_000


def _as_points(z):
    return np.atleast_1d(np.asarray(z, dtype=complex))


class Isotopy:
    """Common interface; subclasses provide trajectories and Jacobians."""

    field: Optional[HamiltonianField] = None

    def flow(self, t, z):
        pts = _as_points(z)
        out = self.trajectory(pts, np.array([float(t)]))[-1]
        return out if np.ndim(z) else complex(out[0])

    def flow1(self, z):
        return self.flow(1.0, z)

    def trajectory(self, z, times) -> np.ndarray:
        """Positions at the given non-decreasing times, shape (T, N)."""
        raise NotImplementedError

    def flow_wirtinger(self, t, z):
        """(positions, dF/dz, dF/dz_bar) at time ``t``."""
        raise NotImplementedError

    def inverse(self) -> "Isotopy":
        raise NotImplementedError

    # winding support ------------------------------------------------------

    def winding_steps_hint(self, x, y):
        """Per-pair lower bound on time samples resolving the chord winding."""
        return np.full(np.broadcast(x, y).size, MIN_WINDING_STEPS, dtype=np.int64)

    def position_winding_steps_hint(self, x):
        return np.full(np.size(x), MIN_WINDING_STEPS, dtype=np.int64)

    def winding_parts(self, x, y):
        """Optional exact decomposition of windings into sub-windings.

        ``y=None`` asks for the position windings of ``x`` around the origin.
        Returns None (default) or a list of ``(isotopy, x_pts, y_pts, sign)``
        whose signed windings sum to the winding of this isotopy; used where
        a conjugation identity makes the direct trajectory needlessly fine.
        """
        return None


class FieldIsotopy(Isotopy):
    """RK4 integration of a generator on a fixed grid with step-doubling control.

    The step count is calibrated once: starting from ``base_steps`` per unit
    time, the grid is doubled until two successive resolutions agree within
    ``tol_ode`` on a probe set, then frozen.
    """

    def __init__(self, generator, base_steps: int = DEFAULT_STEPS, tol_ode: float = TOL_ODE):
        self.generator = generator
        self.field = generator if isinstance(generator, HamiltonianField) else None
        self.tol_ode = tol_ode
        self.n_steps = self._calibrate(base_steps)

    def _calibrate(self, n0: int) -> int:
        radii = np.array([0.25, 0.5, 0.75, 0.95, 1.0])
        angles = np.exp(2j * np.pi * np.arange(8) / 8.0)
        probes = (radii[:, None] * angles[None, :]).ravel()
        n = n0
        prev = self._integrate(probes, 0.0, 1.0, n)
        for _ in range(MAX_CALIBRATION_DOUBLINGS):
            cur = self._integrate(probes, 0.0, 1.0, 2 * n)
            if float(np.max(np.abs(cur - prev))) <= self.tol_ode:
                return 2 * n
            n *= 2
            prev = cur
        raise StepTooCoarse(
            f"flow of {getattr(self.generator, 'name', 'field')} did not reach "
            f"tol {self.tol_ode} within {n} steps per unit time"
        )

    def _rhs(self, t, z):
        return self.generator.vector(t, z)

    def _integrate(self, z, t0, t1, n_sub):
        h = (t1 - t0) / n_sub
        for k in range(n_sub):
            t = t0 + k * h
            k1 = self._rhs(t, z)
            k2 = self._rhs(t + 0.5 * h, z + 0.5 * h * k1)
            k3 = self._rhs(t + 0.5 * h, z + 0.5 * h * k2)
            k4 = self._rhs(t + h, z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            z = project_to_disk(z)
        return z

    def _integrate_var(self, z, p, q, t0, t1, n_sub):
        # variational equation in Wirtinger form alongside the flow
        h = (t1 - t0) / n_sub

        def rhs(t, state):
            z, p, q = state
            x = self.generator.vector(t, z)
            a, b = self.generator.vector_wirtinger(t, z)
            return (x, a * p + b * np.conj(q), a * q + b * np.conj(p))

        for k in range(n_sub):
            t = t0 + k * h
            s = (z, p, q)
            k1 = rhs(t, s)
            k2 = rhs(t + 0.5 * h, tuple(s[i] + 0.5 * h * k1[i] for i in range(3)))
            k3 = rhs(t + 0.5 * h, tuple(s[i] + 0.5 * h * k2[i] for i in range(3)))
            k4 = rhs(t + h, tuple(s[i] + h * k3[i] for i in range(3)))
            z, p, q = tuple(
                s[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                for i in range(3)
            )
            z = project_to_disk(z)
        return z, p, q

    def trajectory(self, z, times):
        z = _as_points(z)
        times = np.asarray(times, dtype=float)
        out = np.empty((times.size, z.size), dtype=complex)
        cur, t_cur = z, 0.0
        for j, t in enumerate(times):
            if t > t_cur:
                n_sub = max(1, int(np.ceil((t - t_cur) * self.n_steps)))
                cur = self._integrate(cur, t_cur, t, n_sub)
                t_cur = t
            out[j] = cur
        return out

    def flow_wirtinger(self, t, z):
        z = _as_points(z)
        p = np.ones_like(z)
        q = np.zeros_like(z)
        n_sub = max(1, int(np.ceil(t * self.n_steps)))
        if t > 0.0:
            z, p, q = self._integrate_var(z, p, q, 0.0, t, n_sub)
        return z, p, q

    def inverse(self):
        if self.field is None:
            raise ValueError("cannot invert an isotopy without a Hamiltonian generator")
        return FieldIsotopy(TimeReversedField(self.field), base_steps=self.n_steps, tol_ode=self.tol_ode)

    def winding_steps_hint(self, x, y):
        n = np.broadcast(x, y).size
        return np.full(n, max(MIN_WINDING_STEPS, min(self.n_steps, 1024)), dtype=np.int64)


class RadialIsotopy(Isotopy):
    """Exact flow of an autonomous radial generator.

    The profile supplies the angular speed ``w(s)`` in turns per unit time as
    a function of ``s = |z|^2``; every circle is invariant and rotates rigidly,
    so flow, Jacobian and windings admit closed forms.
    """

    def __init__(self, profile):
        self.profile = profile
        self.field = profile.field()

    def speed(self, z):
        return self.profile.w_of_s(np.abs(np.asarray(z)) ** 2)

    def flow(self, t, z):
        pts = _as_points(z)
        w = self.profile.w_of_s(np.abs(pts) ** 2)
        out = pts * np.exp(2j * np.pi * t * w)
        return out if np.ndim(z) else complex(out[0])

    def trajectory(self, z, times):
        z = _as_points(z)
        times = np.asarray(times, dtype=float)
        w = self.profile.w_of_s(np.abs(z) ** 2)
        return z[None, :] * np.exp(2j * np.pi * times[:, None] * w[None, :])

    def flow_wirtinger(self, t, z):
        z = _as_points(z)
        s = np.abs(z) ** 2
        w = self.profile.w_of_s(s)
        dw = self.profile.dw_ds(s)
        e = np.exp(2j * np.pi * t * w)
        rot = 2j * np.pi * t * dw
        p = e * (1.0 + rot * s)
        q = e * rot * z * z
        return z * e, p, q

    def inverse(self):
        return RadialIsotopy(self.profile.negated())

    def winding_steps_hint(self, x, y):
        x = _as_points(x)
        y = _as_points(y)
        sx, sy = np.abs(x) ** 2, np.abs(y) ** 2
        wx, wy = self.profile.w_of_s(sx), self.profile.w_of_s(sy)
        rx, ry = np.abs(x), np.abs(y)
        gap = np.abs(rx - ry)
        lip = self.profile.max_abs_dw_dr()
        ratio = np.minimum(np.abs(wx - wy) / np.maximum(gap, 1e-12), lip)
        # chord argument rate <= |w_b| + |w_a - w_b| r_a / |r_a - r_b|,
        # minimized over the two orderings
        b1 = np.abs(wy) + ratio * rx
        b2 = np.abs(wx) + ratio * ry
        rate = np.minimum(b1, b2)
        return np.clip(np.ceil(8.0 * rate), MIN_WINDING_STEPS, 2**22).astype(np.int64)

    def position_winding_steps_hint(self, x):
        w = np.abs(self.speed(_as_points(x)))
        return np.clip(np.ceil(8.0 * w), MIN_WINDING_STEPS, 2**22).astype(np.int64)


class ConcatIsotopy(Isotopy):
    """Concatenation of isotopies, each compressed to an equal time slot.

    ``pieces[0]`` runs first; the time-1 map is ``pieces[-1] o ... o pieces[0]``.
    """

    def __init__(self, pieces: Sequence[Isotopy], name: str = ""):
        if not pieces:
            raise ValueError("need at least one piece")
        self.pieces = list(pieces)
        fields = [p.field for p in self.pieces]
        self.field = ConcatenatedField(fields) if all(f is not None for f in fields) else None
        self.name = name

    def trajectory(self, z, times):
        z = _as_points(z)
        times = np.asarray(times, dtype=float)
        m = len(self.pieces)
        out = np.empty((times.size, z.size), dtype=complex)
        out[times <= 1e-15] = z
        state = z
        for i, piece in enumerate(self.pieces):
            lo, hi = i / m, (i + 1) / m
            sel = np.nonzero((times > lo + 1e-15) & (times <= hi + 1e-15))[0]
            local = np.clip(times[sel] * m - i, 0.0, 1.0)
            rows = piece.trajectory(state, np.concatenate([local, [1.0]]))
            out[sel] = rows[:-1]
            state = rows[-1]
        return out

    def flow_wirtinger(self, t, z):
        z = _as_points(z)
        m = len(self.pieces)
        p = np.ones_like(z)
        q = np.zeros_like(z)
        remaining = t
        for i, piece in enumerate(self.pieces):
            if remaining <= 0.0:
                break
            local = min(1.0, remaining * m)
            z, pp, qq = piece.flow_wirtinger(local, z)
            p, q = wirtinger_compose((pp, qq), (p, q))
            remaining -= local / m
        return z, p, q

    def inverse(self):
        return ConcatIsotopy([p.inverse() for p in reversed(self.pieces)])

    def winding_steps_hint(self, x, y):
        m = len(self.pieces)
        hints = np.stack([p.winding_steps_hint(x, y) for p in self.pieces])
        return (m * hints.max(axis=0)).astype(np.int64)

    def position_winding_steps_hint(self, x):
        m = len(self.pieces)
        hints = np.stack([p.position_winding_steps_hint(x) for p in self.pieces])
        return (m * hints.max(axis=0)).astype(np.int64)


class ConjugatedIsotopy(Isotopy):
    """``t -> h . f_t . h^-1`` for the time-1 map ``h`` of a fixed isotopy.

    Chord windings, and position windings on S^1 (the boundary lift), are
    sums of windings of ``f_t`` and ``h`` at ``W = h^-1 x`` (``winding_parts``,
    an exact identity), never tracked along the conjugated trajectory.
    """

    def __init__(self, h_isotopy: Isotopy, inner: Isotopy, name: str = ""):
        self.h_isotopy = h_isotopy
        self.h_inverse_isotopy = h_isotopy.inverse()
        self.inner = inner
        inner_field = inner.field
        self.field = (
            ConjugatedField(inner_field, self.h_inverse_isotopy.flow1, name=name)
            if inner_field is not None
            else None
        )
        self.name = name
        self._kappa = None

    def _h_batched(self, iso, pts):
        flat = pts.ravel()
        out = np.empty_like(flat)
        step = max(1, MAX_TRAJ_ELEMENTS // 4)
        for k in range(0, flat.size, step):
            out[k : k + step] = iso.flow(1.0, flat[k : k + step])
        return out.reshape(pts.shape)

    def trajectory(self, z, times):
        w = self._h_batched(self.h_inverse_isotopy, _as_points(z))
        inner_traj = self.inner.trajectory(w, times)
        return self._h_batched(self.h_isotopy, inner_traj)

    def flow_wirtinger(self, t, z):
        w, pi_, qi_ = self.h_inverse_isotopy.flow_wirtinger(1.0, _as_points(z))
        mid, pm, qm = self.inner.flow_wirtinger(t, w)
        out, po, qo = self.h_isotopy.flow_wirtinger(1.0, mid)
        p, q = wirtinger_compose((pm, qm), (pi_, qi_))
        p, q = wirtinger_compose((po, qo), (p, q))
        return out, p, q

    def inverse(self):
        return ConjugatedIsotopy(self.h_isotopy, self.inner.inverse())

    def distortion(self) -> float:
        """max |Dh| * max |Dh^-1| over a probe grid (operator-norm bound)."""
        if self._kappa is None:
            rng = np.random.default_rng(20)
            probes = uniform_disk_points(256, rng)
            kappa = 1.0
            for iso in (self.h_isotopy, self.h_inverse_isotopy):
                _, p, q = iso.flow_wirtinger(1.0, probes)
                kappa *= float(np.max(np.abs(p) + np.abs(q)))
            self._kappa = max(kappa, 1.0)
        return self._kappa

    def winding_steps_hint(self, x, y):
        wx = self._h_batched(self.h_inverse_isotopy, _as_points(x))
        wy = self._h_batched(self.h_inverse_isotopy, _as_points(y))
        inner = self.inner.winding_steps_hint(wx, wy)
        return np.clip(np.ceil(self.distortion() * inner), MIN_WINDING_STEPS, 2**22).astype(np.int64)

    def winding_parts(self, x, y):
        # Ang_{h f h^-1}(x, y) = Ang_f(W_x, W_y)
        #                      + Ang_h(f W_x, f W_y) - Ang_h(W_x, W_y)
        # with W = h^-1 applied pointwise.  Exact: the square (s, t) -> h_s f_t W
        # deforms its side s = 1 (the conjugated path) rel endpoints into the
        # other three, and chords never vanish on it.  Positions (y=None) miss
        # the origin on it only on S^1, which every h_s and f_t preserve.
        if y is None and np.any(np.abs(np.abs(x) - 1.0) > TOL_BOUNDARY):
            return None
        wx = self._h_batched(self.h_inverse_isotopy, _as_points(x))
        wy = None if y is None else self._h_batched(self.h_inverse_isotopy, _as_points(y))
        fx = self.inner.flow(1.0, wx)
        fy = None if y is None else self.inner.flow(1.0, wy)
        return [
            (self.inner, wx, wy, 1.0),
            (self.h_isotopy, fx, fy, 1.0),
            (self.h_isotopy, wx, wy, -1.0),
        ]


# ---------------------------------------------------------------------------
# winding engine


def _windings_at(isotopy, x, y, n_steps, gap_limit):
    """Chord windings on a uniform grid of ``n_steps`` intervals.

    ``y=None`` winds the positions themselves around the origin.  Returns
    (turns, ok); chunked so a trajectory block stays within the memory cap.
    """
    n = x.size
    out = np.empty(n)
    ok = np.empty(n, dtype=bool)
    times = np.linspace(0.0, 1.0, n_steps + 1)
    per_point = n_steps + 1
    block = max(1, MAX_TRAJ_ELEMENTS // (per_point * (1 if y is None else 2)))
    for k in range(0, n, block):
        sl = slice(k, min(k + block, n))
        if y is None:
            paths = isotopy.trajectory(x[sl], times)
        else:
            pts = np.concatenate([x[sl], y[sl]])
            traj = isotopy.trajectory(pts, times)
            m = sl.stop - sl.start
            paths = traj[:, :m] - traj[:, m:]
        out[sl], ok[sl] = unwrap_turns_along(paths, gap_limit)
    return out, ok


def _windings_refined(isotopy, x, y, base, max_doublings, gap_limit):
    n = x.size
    values = np.full(n, np.nan)
    done = np.zeros(n, dtype=bool)
    hints = isotopy.winding_steps_hint(x, y) if y is not None else isotopy.position_winding_steps_hint(x)
    start = np.maximum(hints, base)
    # bucket pairs by power-of-two step count so each batch shares a grid
    levels = np.ceil(np.log2(start)).astype(int)
    for lev in np.unique(levels):
        idx = np.nonzero(levels == lev)[0]
        steps = 1 << int(lev)
        for _ in range(max_doublings + 1):
            if idx.size == 0:
                break
            vals, ok = _windings_at(
                isotopy, x[idx], None if y is None else y[idx], steps, gap_limit
            )
            good = np.nonzero(ok)[0]
            values[idx[good]] = vals[good]
            done[idx[good]] = True
            idx = idx[~ok]
            steps *= 2
    return values, done


def chord_windings(
    isotopy,
    x,
    y,
    *,
    base_steps: int = MIN_WINDING_STEPS,
    max_doublings: int = MAX_WINDING_DOUBLINGS,
    gap_limit: float = GAP_LIMIT_TURNS,
    raise_on_fail: bool = True,
):
    """Winding in turns of ``f_t(x) - f_t(y)`` for arrays of pairs.

    ``y=None`` winds ``f_t(x)`` around the origin.  An exact ``winding_parts``
    decomposition of the isotopy replaces the direct trajectory.  Otherwise
    the time grid starts at the per-pair hint of the isotopy and doubles until
    every consecutive argument gap is below ``gap_limit`` turns, up to
    ``max_doublings``.  Returns ``(turns, ok)``; with ``raise_on_fail`` a
    remaining violation raises StepTooCoarse (nearly colliding trajectories).
    """
    x = _as_points(x)
    y = None if y is None else _as_points(y)
    parts = isotopy.winding_parts(x, y)
    if parts is not None:
        total = np.zeros(x.size)
        ok_all = np.ones(x.size, dtype=bool)
        for iso, px, py, sign in parts:
            vals, ok = chord_windings(
                iso, px, py, base_steps=base_steps, max_doublings=max_doublings,
                gap_limit=gap_limit, raise_on_fail=False,
            )
            total += sign * np.where(ok, vals, 0.0)
            ok_all &= ok
        if raise_on_fail and not np.all(ok_all):
            raise StepTooCoarse("chord winding not resolved after maximal refinement")
        return total, ok_all
    values, done = _windings_refined(isotopy, x, y, base_steps, max_doublings, gap_limit)
    if raise_on_fail and not np.all(done):
        raise StepTooCoarse("chord winding not resolved after maximal refinement")
    return values, done


def position_windings(isotopy, x, **kw):
    """Winding of trajectories ``t -> f_t(x)`` around the origin, in turns."""
    return chord_windings(isotopy, x, None, **kw)


# ---------------------------------------------------------------------------
# bundles and module-level operations


@dataclass
class MapBundle:
    """An area-preserving disk map carried together with its isotopy.

    ``oracle`` holds closed-form reference values attached by the family
    constructors (expected invariants, action function, winding profile);
    it is metadata for tests and never feeds the computations.
    """

    isotopy: Isotopy
    name: str = "map"
    oracle: dict = dc_field(default_factory=dict)
    _lifts: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def field(self) -> Optional[HamiltonianField]:
        return self.isotopy.field

    def __call__(self, z):
        return self.isotopy.flow(1.0, z)

    def boundary_lift(self, n_samples: int = 4096):
        from .circle import lift_from_isotopy

        if n_samples not in self._lifts:
            self._lifts[n_samples] = lift_from_isotopy(self.isotopy, n_samples=n_samples)
        return self._lifts[n_samples]


def _as_isotopy(obj) -> Isotopy:
    if isinstance(obj, MapBundle):
        return obj.isotopy
    if isinstance(obj, Isotopy):
        return obj
    if isinstance(obj, HamiltonianField):
        return FieldIsotopy(obj)
    raise TypeError(f"expected a bundle, isotopy, or generator, got {type(obj)!r}")


def flow_map(bundle, t: float, z):
    """Point(s) ``f_t(z)`` of a bundle, bare isotopy, or generator field."""
    return _as_isotopy(bundle).flow(t, z)


def flow_jacobian(bundle, t: float, z) -> Jacobian2:
    """Jacobian ``D_z f_t`` via the variational equation (closed form where exact)."""
    _, p, q = _as_isotopy(bundle).flow_wirtinger(t, _as_points(z))
    return Jacobian2.from_wirtinger(complex(p[0]), complex(q[0]))


def flow_jacobian_fd(bundle, t: float, z, step: float = 1e-5) -> Jacobian2:
    """Central-difference Jacobian of the flow map, the non-smooth fallback."""
    iso = _as_isotopy(bundle)
    h = step * (1.0 + abs(z))
    pts = np.array([z + h, z - h, z + 1j * h, z - 1j * h], dtype=complex)
    f = iso.trajectory(pts, np.array([t]))[-1]
    du = (f[0] - f[1]) / (2.0 * h)
    dv = (f[2] - f[3]) / (2.0 * h)
    return Jacobian2(a=du.real, b=dv.real, c=du.imag, d=dv.imag)


def area_residual(bundle, sample_count: int = 100, seed: int = 0, t: float = 1.0) -> float:
    """max over sampled points of |det(Df_t) - 1|."""
    rng = np.random.default_rng(seed)
    pts = uniform_disk_points(sample_count, rng) * 0.999
    _, p, q = _as_isotopy(bundle).flow_wirtinger(t, pts)
    return float(np.max(np.abs(wirtinger_det(p, q) - 1.0)))
