"""Isotopies of the disk: flows, Jacobians, and chord windings.

An isotopy is a path ``f_t`` (t in [0, 1]) of area-preserving diffeomorphisms
starting at the identity, together with enough structure to evaluate the flow
at arbitrary times, its derivative, and the winding of chords
``f_t(x) - f_t(y)`` in turns.  The one derivative primitive is the
push-forward of tangent vectors, ``flow_tangent(t, z, v) = (f_t(z), Df_t(z)
v)``; the Wirtinger pair of ``Df_t`` (``flow_wirtinger``) is the push-forward
of the frame ``(1, i)``, or a radial leaf's closed form.  Every map is such a
node, whose time-1 map it is: ``MapBundle``, the base class, also carries the
map's name and its cached boundary lift.  Four realizations cover the package:

* ``FieldIsotopy``     -- fixed-step 8th-order Dormand-Prince (DOP853)
                          integration of a generator field, with the
                          variational equation of each tangent vector
                          alongside, on the float rows of its complex state,
* ``RadialIsotopy``    -- exact flow ``z -> z exp(2 pi i tau t w(|z|^2))`` of a
                          radial generator,
* ``ConcatIsotopy``    -- time-concatenation (reparametrized to [0, 1]),
* ``ConjugatedIsotopy``-- ``h . f_t . h^-1`` for a fixed symplectic ``h``.

Each isotopy has one ``windings`` method.  A radial leaf winds in closed form;
the two composites sum the windings of their parts by exact identities; a
field leaf is tracked on a time grid refined until every argument step is
resolved.  A conjugation winds positions only on S^1, where its identity
holds, and raises ValueError for an interior one: no composite is tracked.

A field leaf flows only the points that move: a generator that fixes S^1
pointwise (``fixes_circle``, the off-center conjugator) leaves every point
of S^1 in place, so no boundary quantity of a map conjugated by it (the
lift, cal1's boundary angles, d0's circle points) flows a boundary point,
and both ``h`` terms of a boundary winding read exactly 0.

Only the two leaves carry a generator (``field``), which they flow for the
signed time ``tau * t``: a leaf's inverse runs ``-tau``, and no scaled or
reversed generator is ever built.  The composites carry none: the generator
route and the radial kinks of the action route's grid
(``radial_breakpoints``) follow the tree of pieces and inner isotopies.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from .errors import PointOutsideDisk, StepTooCoarse
from .fields import HamiltonianField
from .geometry import (
    MIN_VECTOR_NORM,
    TOL_BOUNDARY,
    TWO_PI,
    project_to_disk,
    uniform_disk_points,
    unwrap_turns_along,
    wirtinger_apply,
    wirtinger_det,
    wirtinger_from_images,
)

TOL_ODE = 1e-8
DEFAULT_STEPS = 4
MAX_CALIBRATION_DOUBLINGS = 12
MAX_DOUBLING_CONTRACTION = 2.0**10  # twice the largest seen in a calibration ladder
MAX_WINDING_DOUBLINGS = 8
MIN_WINDING_STEPS = 64
MAX_TRAJ_ELEMENTS = 4_000_000
# points a field flow steps at once, so its (12, 2, STEP_BLOCK) stage
# workspace (1.5 MB) stays in a core's L2 cache instead of streaming from
# memory at every stage: the 49,664-point d0 grid flows by the off-center
# conjugator in 42 ms instead of 55 ms on a 2-vCPU Xeon with 2 MB of L2;
# such blocks also took 10% off pushing tangent vectors along that grid
STEP_BLOCK = 8192
AREA_PROBES = 100  # points of area_residual's determinant check
# h^-1 images kept per conjugator by its functools.lru_cache.  At seed 7 a
# rigidity pass at q <= 2 makes 13 lookups and hits 4, one per reused point
# set (the d0 grid of 49,664 points, the 100 area probes with the frame, mu's
# 1,000 atoms with the 128 theta nodes, the 8,192 cal1 nodes with their
# directions), while the S^1 lift samples and two fresh far-pair sets per
# iterate miss; bypassing the memo raises its least time over seven passes
# from 0.25 s to 0.31 s on a 2-vCPU Xeon.  A conjugated_link pass makes 7
# lookups and hits none
H_INVERSE_MEMO_SIZE = 8
# |1 - |z|^2| up to which a flow that fixes S^1 leaves z in place: four ulp of
# 1, twice the rounding of |z|^2 at a point of S^1 computed as exp(2 pi i x)
# and rotated once more (measured: at most 1 and 2 ulp)
FIXED_CIRCLE_TOL = 4.0 * np.finfo(float).eps

# DOP853, the 8th-order Dormand-Prince method of Hairer, Norsett and Wanner,
# "Solving Ordinary Differential Equations I" (2nd ed.), ch. II: coupling
# rows and weights of its 12-stage 8th-order solution.  A fixed step of a
# time-independent field needs neither the stage nodes, the embedded error
# estimators nor the dense output.
_DOP853_A_ROWS = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
DOP853_STAGES = len(_DOP853_A_ROWS)
DOP853_A = np.array([row + (0.0,) * (DOP853_STAGES - len(row)) for row in _DOP853_A_ROWS])
DOP853_B = np.array([
    5.42937341165687622380535766363e-2,
    0.0,
    0.0,
    0.0,
    0.0,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])
# The order in which _dop853 stores its stages.  Stage 0 feeds every coupling
# row and the weights, stages 1 and 2 only rows 2 to 4, and stages 3 and 4 no
# weight: with k2 and k1 stored ahead of k0, each coupling row and the weight
# vector reads one contiguous span of computed stages that holds all its
# nonzero entries, 62 products a step where the full rows take 78.
DOP853_ORDER = (2, 1, 0, 3, 4, 5, 6, 7, 8, 9, 10, 11)
DOP853_SLOTS = tuple(DOP853_ORDER.index(i) for i in range(DOP853_STAGES))  # stage -> stored slot


def _span(coefficients):
    """(coefficients, slots): the stored slots from the first to the last
    nonzero of a coefficient vector, and its entries for them in stored order."""
    nonzero = [slot for slot, stage in enumerate(DOP853_ORDER) if coefficients[stage] != 0.0]
    slots = slice(nonzero[0], nonzero[-1] + 1)
    return coefficients[list(DOP853_ORDER[slots])], slots


DOP853_SPANS = tuple(_span(row) for row in DOP853_A[1:])  # the coupling rows of stages 1 to 11
DOP853_WEIGHT_SPAN = _span(DOP853_B)


def _as_points(z):
    return np.atleast_1d(np.asarray(z, dtype=complex))


def _rows(*zs):
    """The float rows ``Re z, Im z`` of each 1-d complex array, stacked in order."""
    return np.stack([part for z in zs for part in (z.real, z.imag)])


def _forward_times(times):
    """``times`` as a float array; a field flow runs forward from t = 0, so
    they must be non-negative and non-decreasing."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError(f"a field flow runs forward from t = 0, not through times {times}")
    return times


def _tangents(z, v):
    """Points as a 1-d complex array, and vectors ``v`` broadcast to their shape,
    (N,) for one vector per point or (k, N) for k."""
    z = _as_points(z)
    v = np.asarray(v, dtype=complex)
    return z, np.broadcast_to(v, v.shape[:-1] + z.shape)


_FRAME = np.array([[1.0], [1j]])  # the vectors (1, i) at every point


def _pushed_frame(bundle, t, z):
    """(f_t(z), p, q) from ``bundle.flow_tangent`` of the frame (1, i) at each point."""
    f, (e1, ei) = bundle.flow_tangent(t, z, _FRAME)
    return (f, *wirtinger_from_images(e1, ei))


class MapBundle:
    """An area-preserving disk map ``f_1`` (``__call__``), carried as its isotopy from the identity.

    Subclasses provide trajectories and Jacobians.  The boundary lift is built
    from the isotopy once, at the sample count ``circle`` chooses, and cached.
    """

    name = "map"
    field: Optional[HamiltonianField] = None  # a leaf's generator, flowed for time tau; composites carry none
    # radii where z -> f_t(z) may kink: a leaf's own, the union over the pieces
    # of a concatenation, none under a conjugation (h^-1 moves them off circles)
    radial_breakpoints: tuple = ()
    _lift = None

    def __call__(self, z):
        return self.flow(1.0, z)

    def boundary_lift(self):
        from .circle import lift_from_isotopy

        if self._lift is None:
            self._lift = lift_from_isotopy(self)
        return self._lift

    def flow(self, t, z):
        pts = _as_points(z)
        out = self.trajectory(pts, np.array([float(t)]))[-1]
        return out if np.ndim(z) else complex(out[0])

    def trajectory(self, z, times) -> np.ndarray:
        """Positions at the given non-decreasing times, shape (T, N)."""
        raise NotImplementedError

    def flow_tangent(self, t, z, v):
        """``(f_t(z), Df_t(z) v)`` for N points ``z`` and vectors ``v`` of shape
        (N,) or (k, N), or broadcast to one; the pushed vectors keep that shape."""
        raise NotImplementedError

    def flow_wirtinger(self, t, z):
        """(positions, dF/dz, dF/dz_bar) at time ``t``."""
        raise NotImplementedError

    def inverse(self) -> "MapBundle":
        raise NotImplementedError

    def windings(self, x, y):
        """Windings in turns of ``t -> f_t(x) - f_t(y)`` for 1-d arrays of pairs.

        ``y=None`` winds the positions ``f_t(x)`` around the origin.  Returns
        ``(turns, ok)``; ``ok`` is False where the winding is unresolved
        (nearly colliding trajectories).  By default tracked along the
        trajectory (``_tracked_windings``).
        """
        return _tracked_windings(self, x, y)


class FieldIsotopy(MapBundle):
    """DOP853 integration of a generator on a fixed grid with step-doubling control.

    The step count is calibrated once: starting from ``base_steps`` per unit
    time, the grid is doubled until two successive resolutions agree within
    ``TOL_ODE`` on a probe set, then frozen.  StepTooCoarse is raised once a
    difference with r doublings left exceeds ``TOL_ODE * MAX_DOUBLING_CONTRACTION**r``.
    A resolution whose flow leaves the disk counts as unresolved;
    PointOutsideDisk is raised if the finest one still leaves it, and by any
    flow outside calibration.  ``f_t`` is the flow of the HamiltonianField
    ``field``, whose row methods read no time, for the signed time
    ``tau * t``: each step of length h in isotopy time is a DOP853 step of
    length ``tau * h``, so ``tau = -1`` flows the inverse isotopy and the
    steps per unit time count isotopy time.

    The flow of a field that declares ``fixes_circle`` moves no point of
    S^1: the points with ``|1 - |z|^2| <= FIXED_CIRCLE_TOL`` stay
    where they are at every time, and only the rest are flowed.  Such a field
    has ``|X(z)| <= C |1 - |z|^2|``, and as H vanishes to second order on
    S^1, ``1 - |z|^2`` changes at a rate ``O((1 - |z|^2)^2)``; so a point
    within the bound moves by at most about ``C |tau| FIXED_CIRCLE_TOL``, a
    few ulp (3.5e-15 for off-center(0.5), ``C = 5 pi beta``, at tau = 0.5).
    ``flow_tangent`` still pushes their tangent vectors, since Df is not the
    identity on S^1, and returns their positions unchanged, so
    ``flow_wirtinger(t, z)[0]`` equals ``flow(t, z)``.
    """

    def __init__(self, field: HamiltonianField, tau: float = 1.0, base_steps: int = DEFAULT_STEPS):
        self.field = field
        self.tau = tau
        self.radial_breakpoints = field.radial_breakpoints
        self.fixes_circle = field.fixes_circle
        self.n_steps = self._calibrate(base_steps)

    def _calibrate(self, n0: int) -> int:
        # the inner radii see generators supported inside r < 1/4
        radii = np.array([1 / 16, 1 / 8, 3 / 16, 0.25, 0.5, 0.75, 0.95, 1.0])
        angles = np.exp(2j * np.pi * np.arange(8) / 8.0)
        probes = (radii[:, None] * angles[None, :]).ravel()
        n = n0
        prev = self._probe(probes, n)
        for left in range(MAX_CALIBRATION_DOUBLINGS - 1, -1, -1):
            cur = self._probe(probes, 2 * n)
            diff = float(np.max(np.abs(cur - prev)))
            if diff <= TOL_ODE:
                return 2 * n
            n *= 2
            prev = cur
            if diff > TOL_ODE * MAX_DOUBLING_CONTRACTION**left:
                break
        name = f"{self.field.name} for time tau={self.tau}"
        if np.isnan(prev).all():
            raise PointOutsideDisk(f"flow of {name} leaves the disk at {n} steps per unit time")
        raise StepTooCoarse(
            f"flow of {name} cannot reach tol {TOL_ODE} by the step cap: {diff:.2e} at {n} steps"
        )

    def _probe(self, probes, n):
        """Time-1 images of the probes at ``n`` steps; all NaN if the flow leaves the disk."""
        try:
            (y,) = self._dop853(self._rhs, _rows(probes), [1.0], n)
        except PointOutsideDisk:
            return np.full_like(probes, np.nan)
        return y[0] + 1j * y[1]

    def _rhs(self, y, out):
        self.field.vector(y[0], y[1], out)

    def _tangent_rhs(self, k, n):
        """Right-hand side of n positions with k tangent vectors each.

        The rows ``Re w, Im w`` of each vector follow ``w' = a w + b conj(w)``,
        with the generator's Wirtinger pair ``(a, b)`` evaluated once per stage:
        ``Re w' = (Re a + Re b) Re w + (Im b - Im a) Im w`` and
        ``Im w' = (Im a + Im b) Re w + (Re a - Re b) Im w``.  The ``Re a``
        products are skipped when a kernel returns the scalar 0.0 (a
        Hamiltonian field has no divergence).  The pair's rows and every
        product are written into ``out`` or buffers reused at every stage.
        """
        wirt, c_re, c_im, tmp = np.empty((4, n)), np.empty(n), np.empty(n), np.empty((k, n))

        def rhs(y, out):
            self.field.vector(y[0], y[1], out[:2])
            ar, ai, br, bi = self.field.vector_wirtinger(y[0], y[1], wirt)
            w_re, w_im, d_re, d_im = y[2::2], y[3::2], out[2::2], out[3::2]
            np.subtract(bi, ai, out=c_re)
            np.add(ai, bi, out=c_im)
            np.multiply(w_re, br, out=d_re)
            d_re += np.multiply(w_im, c_re, out=tmp)
            np.multiply(w_re, c_im, out=d_im)
            d_im -= np.multiply(w_im, br, out=tmp)
            if isinstance(ar, np.ndarray) or ar != 0.0:
                d_re += np.multiply(w_re, ar, out=tmp)
                d_im += np.multiply(w_im, ar, out=tmp)

        return rhs

    def _dop853(self, rhs, y, times, n_steps):
        """Advance ``y' = rhs(y, out)`` in place from t = 0, yielding ``y`` at each of ``times``.

        ``y`` holds the float rows (real part, imaginary part) of each complex
        state component, the position first; it is projected back onto the
        disk after every step.  ``rhs`` writes a stage's derivative into
        ``out``.  A time gap d takes ``ceil(d * n_steps)`` equal steps of
        length h, each a step of ``tau * h`` in the generator's time.  The
        stages live in one (12, rows, N) workspace in the order
        ``DOP853_ORDER``, and each stage point and step increment is one
        product of a coupling row's span of nonzeros (``DOP853_SPANS``,
        ``DOP853_WEIGHT_SPAN``) with the stages it reads, written into one
        reused buffer.  Times must be non-negative and non-decreasing
        (``_forward_times``).
        """
        k = np.empty((DOP853_STAGES,) + y.shape)
        stage = np.empty_like(y)
        k_flat, stage_flat, y_flat = k.reshape(DOP853_STAGES, -1), stage.reshape(-1), y.reshape(-1)
        first = k[DOP853_SLOTS[0]]
        stages = [(k_flat[slots], k[slot]) for (_, slots), slot in zip(DOP853_SPANS, DOP853_SLOTS[1:])]
        weights, slots = DOP853_WEIGHT_SPAN
        weighted = k_flat[slots]
        t0 = 0.0
        for t1 in times:
            if t1 > t0:
                n_sub = max(1, int(np.ceil((t1 - t0) * n_steps)))
                h = self.tau * ((t1 - t0) / n_sub)
                rows, b = [h * coefficients for coefficients, _ in DOP853_SPANS], h * weights
                for _ in range(n_sub):
                    rhs(y, first)
                    for row, (head, k_i) in zip(rows, stages):
                        np.matmul(row, head, out=stage_flat)
                        stage_flat += y_flat
                        rhs(stage, k_i)
                    np.matmul(b, weighted, out=stage_flat)
                    y_flat += stage_flat
                    project_to_disk(y[0], y[1])
                t0 = t1
            yield y

    def _fixed(self, z):
        """The mask of the points of S^1 this flow leaves in place, or None if there are none."""
        if not self.fixes_circle:
            return None
        fixed = np.abs(1.0 - (z.real * z.real + z.imag * z.imag)) <= FIXED_CIRCLE_TOL
        return fixed if fixed.any() else None

    def trajectory(self, z, times):
        """Positions at the given times; the moved points are flowed in blocks
        of ``STEP_BLOCK`` and written straight into the output."""
        z, times = _as_points(z), _forward_times(times)
        out = np.empty((times.size, z.size), dtype=complex)
        fixed = self._fixed(z)
        moving = np.arange(z.size)
        if fixed is not None:
            out[:, fixed] = z[fixed]
            moving = moving[~fixed]
        parts = out.view(float).reshape(out.shape + (2,))  # (Re, Im) of each entry
        for k in range(0, moving.size, STEP_BLOCK):
            sel = moving[k:k + STEP_BLOCK]
            for j, y in enumerate(self._dop853(self._rhs, _rows(z[sel]), times, self.n_steps)):
                parts[j, sel] = y.T
        return out

    def flow_tangent(self, t, z, v):
        z, v = _tangents(z, v)
        times = _forward_times([t])
        vs = v.reshape(-1, z.size)
        out = np.empty((1 + len(vs), z.size), dtype=complex)
        for k in range(0, z.size, STEP_BLOCK):
            sl = slice(k, k + STEP_BLOCK)
            rhs = self._tangent_rhs(len(vs), z[sl].size)
            (y,) = self._dop853(rhs, _rows(z[sl], *vs[:, sl]), times, self.n_steps)
            out[:, sl].real, out[:, sl].imag = y[0::2], y[1::2]
        fixed = self._fixed(z)
        if fixed is not None:
            out[0, fixed] = z[fixed]
        return out[0], out[1:].reshape(v.shape)

    flow_wirtinger = _pushed_frame

    def inverse(self):
        # the reversed flow is as regular as this one, so calibration starts
        # from half the count: its TOL_ODE check then lands on n_steps
        # (calibration returns twice the count it starts from)
        return FieldIsotopy(self.field, -self.tau, base_steps=self.n_steps // 2)


class RadialIsotopy(MapBundle):
    """Exact flow of a radial generator for the signed time ``tau * t``.

    The profile supplies the angular speed ``w(s)`` in turns per unit time as
    a function of ``s = |z|^2``; every circle is invariant and rotates rigidly
    at ``tau * w``, so flow, Jacobian and windings admit closed forms.  The
    inverse runs ``-tau`` and the n-th iterate ``n * tau`` (a one-parameter
    group).
    """

    def __init__(self, profile, tau: float = 1.0):
        self.profile = profile
        self.tau = tau
        self.field = profile.field()
        self.radial_breakpoints = profile.breakpoints

    def _speed(self, s):
        # 0.0 + tau w rather than tau w: at tau < 0 a speed of zero stays +0.0
        return 0.0 + self.tau * self.profile.w_of_s(s)

    def trajectory(self, z, times):
        z = _as_points(z)
        times = np.asarray(times, dtype=float)
        w = self._speed(np.abs(z) ** 2)
        # phase, exponential and product share one (T, N) buffer
        out = np.multiply.outer(2j * np.pi * times, w)
        np.exp(out, out=out)
        return np.multiply(z, out, out=out)

    def flow_tangent(self, t, z, v):
        z, v = _tangents(z, v)
        f, p, q = self._pair(t, z)
        return f, wirtinger_apply(p, q, v)

    def flow_wirtinger(self, t, z):
        return self._pair(t, _as_points(z))

    def _pair(self, t, z):
        s = np.abs(z) ** 2
        w = self._speed(s)
        dw = 0.0 + self.tau * self.profile.dw_ds(s)
        e = np.exp(2j * np.pi * t * w)
        rot = 2j * np.pi * t * dw
        p = e * (1.0 + rot * s)
        q = e * rot * z * z
        return z * e, p, q

    def inverse(self):
        return RadialIsotopy(self.profile, -self.tau)

    def windings(self, x, y):
        # f_t(x) - f_t(y) = e^{2 pi i t c} (u - v e^{2 pi i t psi}) with |v| < |u|
        # (u = x, c = w(|x|^2) when |y| < |x|, else the roles swap): the first
        # factor winds c turns, the second stays in the disk of radius |v|
        # about u, which misses 0, so it winds by the principal argument of
        # its endpoint ratio (Gambaudo-Ghys)
        a = self._speed(np.abs(x) ** 2)
        if y is None:
            return a, np.abs(x) >= MIN_VECTOR_NORM
        b = self._speed(np.abs(y) ** 2)
        rx, ry = np.abs(x), np.abs(y)
        phi = b - a
        inner = ry < rx
        u, v = np.where(inner, x, y), np.where(inner, y, x)
        end = u - v * np.exp(2j * np.pi * np.where(inner, phi, -phi))
        turns = np.where(inner, a, b) + np.angle(end * np.conj(u - v)) / TWO_PI
        turns = np.where(phi == 0.0, a, turns)  # a rigid chord winds exactly a
        # |chord| >= ||x| - |y|| and >= |x - y| - 2 pi |phi| min(|x|, |y|)
        bound = np.maximum(np.abs(rx - ry), np.abs(x - y) - TWO_PI * np.abs(phi) * np.minimum(rx, ry))
        return turns, bound >= MIN_VECTOR_NORM


class ConcatIsotopy(MapBundle):
    """Concatenation of isotopies, each compressed to an equal time slot.

    ``pieces[0]`` runs first; the time-1 map is ``pieces[-1] o ... o pieces[0]``.
    """

    def __init__(self, pieces: Sequence[MapBundle]):
        if not pieces:
            raise ValueError("need at least one piece")
        self.pieces = list(pieces)
        self.radial_breakpoints = tuple(sorted({r for p in self.pieces for r in p.radial_breakpoints}))

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

    def flow_tangent(self, t, z, v):
        # each piece pushes the points and vectors the previous ones left
        z, v = _tangents(z, v)
        m = len(self.pieces)
        remaining = t
        for piece in self.pieces:
            if remaining <= 0.0:
                break
            local = min(1.0, remaining * m)
            z, v = piece.flow_tangent(local, z, v)
            remaining -= local / m
        return z, v

    flow_wirtinger = _pushed_frame

    def inverse(self):
        return ConcatIsotopy([p.inverse() for p in self.pieces[::-1]])

    def windings(self, x, y):
        # windings add along a concatenated path: each piece winds the chord
        # (or position) from where the previous pieces left it
        parts = [(self.pieces[0], x, y, 1.0)]
        for prev, piece in zip(self.pieces, self.pieces[1:]):
            x = prev.flow(1.0, x)
            y = None if y is None else prev.flow(1.0, y)
            parts.append((piece, x, y, 1.0))
        return _summed_windings(parts)


class ConjugatorPair:
    """A conjugator ``h``, its inverse, and a memo of ``h^-1`` images.

    Every conjugation by one ``h`` shares one pair (a conjugation and its
    inverse, the iterates of a conjugated rotation), so ``h^-1`` is calibrated
    once, and a point set it has mapped before is not flowed again.  The memo
    is a ``functools.lru_cache`` of ``H_INVERSE_MEMO_SIZE`` entries keyed by
    the exact bytes of the points, and of the vectors with their shape for a
    tangent push-forward; its arrays are read-only, and ``cache_info()``
    reports its traffic.  The cache's own lock keeps it thread-safe.  It
    closes over ``h^-1`` alone, so a pair holds no reference cycle and is
    freed with its last reference.
    """

    def __init__(self, h: MapBundle):
        self.h = h
        self.h_inverse = h_inverse = h.inverse()

        @functools.lru_cache(maxsize=H_INVERSE_MEMO_SIZE)
        def images(points, vectors=None, shape=None):
            z = np.frombuffer(points, dtype=complex)
            if vectors is None:
                out = (h_inverse.flow(1.0, z),)
            else:
                out = h_inverse.flow_tangent(1.0, z, np.frombuffer(vectors, dtype=complex).reshape(shape))
            for arr in out:
                arr.setflags(write=False)
            return out

        self._images = images
        self.cache_info = images.cache_info

    def inverse_images(self, z):
        """``h^-1(z)`` pointwise, for a 1-d array of points."""
        return self._images(np.asarray(z, dtype=complex).tobytes())[0]

    def inverse_tangents(self, z, v):
        """``h_inverse.flow_tangent(1, z, v)``, keyed by the points and by the
        vectors as given (the frame (1, i) before broadcasting), since a
        points-only key would return a stale ``Dh^-1 v``."""
        v = np.asarray(v, dtype=complex)
        return self._images(_as_points(z).tobytes(), v.tobytes(), v.shape)


class ConjugatedIsotopy(MapBundle):
    """``t -> h . f_t . h^-1`` for the time-1 map ``h`` of a fixed isotopy.

    ``pair`` is the ``ConjugatorPair`` of ``h``; every conjugation by the same
    ``h`` shares its inverse and memo.  Chord windings, and position windings
    on S^1 (the boundary lift), are sums of windings of ``f_t`` and ``h`` at
    ``W = h^-1 x`` (an exact identity), never tracked along the conjugated
    trajectory; a position winding off S^1 raises ValueError.
    """

    def __init__(self, pair: ConjugatorPair, inner: MapBundle):
        self.pair = pair
        self.inner = inner

    def trajectory(self, z, times):
        pts = _as_points(z)
        inner = self.inner.trajectory(self.pair.inverse_images(pts), times)
        out = self.pair.h.flow(1.0, inner.ravel()).reshape(inner.shape)
        out[np.asarray(times) == 0.0] = pts  # f_0 = id exactly, not h(h^-1 z)
        return out

    def flow_tangent(self, t, z, v):
        w, dw = self.pair.inverse_tangents(z, v)
        return self.pair.h.flow_tangent(1.0, *self.inner.flow_tangent(t, w, dw))

    flow_wirtinger = _pushed_frame

    def inverse(self):
        return ConjugatedIsotopy(self.pair, self.inner.inverse())

    def windings(self, x, y):
        # Ang_{h f h^-1}(x, y) = Ang_f(W_x, W_y)
        #                      + Ang_h(f W_x, f W_y) - Ang_h(W_x, W_y)
        # with W = h^-1 applied pointwise.  Exact: the square (s, t) -> h_s f_t W
        # deforms its side s = 1 (the conjugated path) rel endpoints into the
        # other three, and chords never vanish on it.  Positions (y=None) miss
        # the origin on it only on S^1, which every h_s and f_t preserve, so
        # only positions on S^1 are wound.
        if y is None and np.any(np.abs(np.abs(x) - 1.0) > TOL_BOUNDARY):
            raise ValueError("a conjugated map winds positions only on S^1")
        wx = self.pair.inverse_images(x)
        wy = None if y is None else self.pair.inverse_images(y)
        fx = self.inner.flow(1.0, wx)
        fy = None if y is None else self.inner.flow(1.0, wy)
        return _summed_windings([
            (self.inner, wx, wy, 1.0),
            (self.pair.h, fx, fy, 1.0),
            (self.pair.h, wx, wy, -1.0),
        ])


# ---------------------------------------------------------------------------
# winding engine


def _windings_at(isotopy, x, y, n_steps):
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
        out[sl], ok[sl] = unwrap_turns_along(paths)
    return out, ok


def _tracked_windings(isotopy, x, y):
    """Windings tracked along the trajectory of ``isotopy``.

    The time grid starts at ``MIN_WINDING_STEPS`` intervals, or at the step
    count of a field leaf if that is smaller, and doubles, up to
    ``MAX_WINDING_DOUBLINGS`` times, for the pairs with an argument step of a
    quarter turn or more.  Unresolved pairs keep NaN and ``ok = False``.  The
    gap check is blind only to steps of 3/4 turn or more.  A chord of a field
    with Lipschitz constant L turns at most ``L h`` radians in a step of length
    h, and a grid that meets ``tol_ode`` has ``L h`` of order 1 at most, so
    each calibrated step turns well under 3/4 turn.
    """
    values = np.full(x.size, np.nan)
    done = np.zeros(x.size, dtype=bool)
    idx = np.arange(x.size)
    steps = MIN_WINDING_STEPS
    if isinstance(isotopy, FieldIsotopy):
        steps = min(steps, isotopy.n_steps)
    for _ in range(MAX_WINDING_DOUBLINGS + 1):
        if idx.size == 0:
            break
        vals, ok = _windings_at(isotopy, x[idx], None if y is None else y[idx], steps)
        values[idx[ok]] = vals[ok]
        done[idx[ok]] = True
        idx = idx[~ok]
        steps *= 2
    return values, done


def _summed_windings(parts):
    """Signed sum of the windings of ``(isotopy, x, y, sign)`` parts, with their joint ok."""
    total = np.zeros(parts[0][1].size)
    ok_all = np.ones(total.size, dtype=bool)
    for iso, px, py, sign in parts:
        vals, ok = iso.windings(px, py)
        total += sign * np.where(ok, vals, 0.0)
        ok_all &= ok
    return total, ok_all


def chord_windings(isotopy, x, y, *, raise_on_fail: bool = True):
    """Winding in turns of ``f_t(x) - f_t(y)`` for arrays of pairs.

    ``y=None`` winds ``f_t(x)`` around the origin.  Returns ``(turns, ok)``
    from ``isotopy.windings``; with ``raise_on_fail`` an unresolved pair
    raises StepTooCoarse (nearly colliding trajectories).
    """
    x = _as_points(x)
    y = None if y is None else _as_points(y)
    values, ok = isotopy.windings(x, y)
    if raise_on_fail and not np.all(ok):
        raise StepTooCoarse("chord winding not resolved after maximal refinement")
    return values, ok


def position_windings(isotopy, x, **kw):
    """Winding of trajectories ``t -> f_t(x)`` around the origin, in turns."""
    return chord_windings(isotopy, x, None, **kw)


def area_residual(bundle: MapBundle, seed: int = 0) -> float:
    """max over ``AREA_PROBES`` sampled points of |det(Df_1) - 1|."""
    rng = np.random.default_rng(seed)
    pts = uniform_disk_points(AREA_PROBES, rng) * 0.999
    _, p, q = bundle.flow_wirtinger(1.0, pts)
    return float(np.max(np.abs(wirtinger_det(p, q) - 1.0)))
