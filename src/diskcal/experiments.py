"""Batch experiments: C^1 continuity bound, C^0 discontinuity, iterate rigidity.

Every PASS/FAIL column derives from an explicitly quoted bound plus stated
numerical budgets; the sup-distances d0/d1 are measured on dense sample grids
and therefore reported as lower bounds.  They flow the map only, since
``sup |f^-1(p) - p| = sup |f(x) - x|`` and, for ``det Df = 1``, the inverse's
Wirtinger pair at ``f(x)`` is ``(conj(p), -q)`` of the same d1 norm.  The
rigidity rows ``h R_theta h^-1`` take d0 from one flow of ``h`` by a Fourier
shift (``_rotation_d0s``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .arithmetic import continued_fraction
from .calabi import PairSampler, cal1, cal2_tilde, cal3_tilde
from .circle import boundary_displacement, invariant_measure, rotation_number
from .errors import QMaxExceeded, ScaleTooLarge
from .flow import MapBundle, blocks, chord_windings
from .geometry import uniform_disk_points
from .zoo import bump, conjugated_rotation, identity, iterate, off_center_conjugator, radial_twist

D_GRID = (256, 256)
D_BOUNDARY = 512
C1_TWIST = (0.3, -0.6, 0.3)  # the twist exp_c1_continuity scales
C0_CAL_BUDGET = 1e-3  # allowance of each exp_c0_discontinuity cal3 against 2/pi
RIGIDITY_CAL_BUDGET = 1e-4  # per-iterate allowance of exp_rigidity's cal1 drift
RIGIDITY_CONJUGATOR = off_center_conjugator(0.5)  # the h of exp_rigidity's h R_alpha h^-1
RIGIDITY_CAL_GRID = (64, 128)  # the grid of exp_rigidity's cal1
RIGIDITY_D_GRID = (192, 256)  # the grid of exp_rigidity's d0


def _sample_points(grid):
    """The sample set of a sup distance: the ``D_BOUNDARY`` points of S^1,
    then the grid's ``nr`` rings of ``nt`` equally spaced angles each."""
    nr, nt = grid
    radii = (np.arange(nr) + 0.5) / nr
    angles = np.exp(2j * np.pi * (np.arange(nt) + 0.5) / nt)
    circle = np.exp(2j * np.pi * np.arange(D_BOUNDARY) / D_BOUNDARY)
    return np.concatenate([circle, (radii[:, None] * angles[None, :]).ravel()])


def sup_distance_to_identity(bundle: MapBundle, order: int = 0, grid=D_GRID) -> float:
    """Sampled d0 (order=0) or lifted d1 (order=1) distance between the bundle and id.

    d0 is the max of ``|f(x) - x|`` over the ``blocks`` of the sample set
    (``_sample_points``).  d1 is the lifted-pair distance, for which the
    near-identity angle bound is stated: the sup also of ``|p - 1| + |q|``
    for the Wirtinger pair ``(p, q)`` of Df, and of the boundary lift's
    displacement at the ``D_BOUNDARY`` angles of S^1, wound directly
    (``boundary_displacement``; no lift is built), so a lift that has
    drifted by an integer is far from the identity's.  The inverse's sups
    are the same: ``f^-1`` moves ``f(x)`` by ``|f(x) - x|``, and for
    ``det Df = 1`` its pair at ``f(x)`` is ``(conj(p), -q)``.
    """
    pts = _sample_points(grid)
    if order == 0:
        return max(float(np.max(np.abs(bundle.flow(1.0, pts[sl]) - pts[sl]))) for sl in blocks(pts.size))
    # operator norm of a real-linear Wirtinger pair (p, q) is |p| + |q|
    f, p, q = bundle.flow_wirtinger(1.0, pts)
    delta = boundary_displacement(bundle, np.arange(D_BOUNDARY) / D_BOUNDARY)
    return max(float(np.max(s)) for s in (np.abs(f - pts), np.abs(p - 1.0) + np.abs(q), np.abs(delta)))


def _rotation_d0s(h: MapBundle, thetas, grid) -> list:
    """Sampled d0 of ``h R_theta h^-1`` for each angle theta (in turns), from one flow of ``h``.

    With ``w = h^-1 z`` the sup is ``sup_w |h(R_theta w) - h(w)|``, over w in
    ``_sample_points``, which ``h`` maps once (a field flow, in ``blocks``).
    On each ring of w, ``h(R_theta w)`` is the ring's trigonometric
    interpolant shifted by theta, its FFT times ``e^{2 pi i k theta}``
    (Trefethen, Spectral Methods in MATLAB, ch. 3).  The samples are ``h``
    of the grid: a lower bound of the same sup as a direct d0, not its bits.
    """
    hw = h.flow(1.0, _sample_points(grid))
    d0s = np.zeros(len(thetas))
    for ring in (hw[:D_BOUNDARY].reshape(1, -1), hw[D_BOUNDARY:].reshape(grid)):
        n = ring.shape[1]
        coeffs, k = np.fft.fft(ring), np.fft.fftfreq(n, 1.0 / n)
        for i, theta in enumerate(thetas):
            shifted = np.fft.ifft(coeffs * np.exp(2j * np.pi * k * theta))
            d0s[i] = max(d0s[i], np.max(np.abs(shifted - ring)))
    return d0s.tolist()


@dataclass
class ExperimentResult:
    name: str
    rows: list
    passed: bool
    meta: dict = dc_field(default_factory=dict)

    @property
    def columns(self) -> list:
        """The table's columns: the keys of its rows, in their order."""
        return list(self.rows[0])

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.name,
            "passed": self.passed,
            "columns": self.columns,
            "rows": self.rows,
            "meta": self.meta,
        }


# ---------------------------------------------------------------------------
# C1 continuity: |cal| <= sqrt(2 eps)/pi near the identity


def exp_c1_continuity(
    scales=(0.04, 0.02, 0.01, 0.005),
    *,
    pairs: int = 4000,
    seed: int = 7,
) -> ExperimentResult:
    """Scaled twists tau*H (H the ``C1_TWIST`` profile) against the bound sqrt(2 eps)/pi.

    eps is the measured lifted d1 distance to the identity; scales producing
    eps > 1/2 are outside the bound's range and raise ScaleTooLarge.
    """
    if not scales:
        raise ValueError("exp_c1_continuity needs at least one scale")
    rows = []
    coeffs = np.asarray(C1_TWIST, dtype=float)
    for tau in scales:
        bundle = radial_twist(tau * coeffs)
        eps = sup_distance_to_identity(bundle, order=1)
        if eps > 0.5:
            raise ScaleTooLarge(f"measured d1 = {eps:.3f} > 1/2 at tau = {tau}")
        c2 = cal2_tilde(bundle, PairSampler(n=pairs, seed=seed))
        c3 = cal3_tilde(bundle)
        bound = np.sqrt(2.0 * eps) / np.pi + 3.0 * c2.stderr
        rows.append({
            "tau": float(tau), "eps_d1": eps, "cal2": c2.value, "cal2_stderr": c2.stderr,
            "cal3": c3, "bound": float(bound), "pass": bool(abs(c2.value) <= bound),
        })
    passed = all(r["pass"] for r in rows)
    return ExperimentResult("c1-continuity", rows, passed,
                            meta={"pairs": pairs, "seed": seed, "bound": "sqrt(2 eps)/pi + 3 stderr"})


# ---------------------------------------------------------------------------
# C0 discontinuity: constant invariant on shrinking supports


def exp_c0_discontinuity(ns=(2, 4, 8, 16)) -> ExperimentResult:
    """Bump maps: invariant pinned at 2/pi while displacement shrinks like 2/n.

    One row per distinct n, in increasing order, whatever the order of
    ``ns``.  PASS requires every invariant within ``C0_CAL_BUDGET`` of 2/pi,
    every measured d0 below its 2/n bound and a strictly decreasing d0
    column, which then ends at most 2/max(ns).
    """
    if not ns:
        raise ValueError("exp_c0_discontinuity needs at least one n")
    target = 2.0 / np.pi
    rows = []
    for n in sorted(set(ns)):
        bundle = bump(n)
        c3 = cal3_tilde(bundle)
        d0 = sup_distance_to_identity(bundle, order=0)
        ok = bool(abs(c3 - target) <= C0_CAL_BUDGET and d0 <= 2.0 / n + 1e-9)
        rows.append({"n": int(n), "cal3": c3, "cal_error": abs(c3 - target),
                     "d0": d0, "d0_bound": 2.0 / n, "pass": ok})
    d0s = [r["d0"] for r in rows]
    decreasing = all(b < a for a, b in zip(d0s[:-1], d0s[1:]))
    passed = all(r["pass"] for r in rows) and decreasing
    return ExperimentResult("c0-discontinuity", rows, passed,
                            meta={"target": target, "cal_budget": C0_CAL_BUDGET, "d0_decreasing": decreasing})


# ---------------------------------------------------------------------------
# rigidity along approximation denominators


def _far_pairs(rng, count: int, min_sep: float):
    xs, ys = [], []
    have = 0
    for _ in range(400):
        x = uniform_disk_points(4 * count, rng)
        y = uniform_disk_points(4 * count, rng)
        keep = np.abs(x - y) >= min_sep
        xs.append(x[keep])
        ys.append(y[keep])
        have += int(np.sum(keep))
        if have >= count:
            break
    x = np.concatenate(xs)[:count]
    y = np.concatenate(ys)[:count]
    if x.size < count:
        raise ValueError(f"could not sample {count} pairs at separation {min_sep}")
    return x, y


def exp_rigidity(
    alpha: float = 0.6180339887498949,
    depth: int = 12,
    tau: float = 0.5,
    *,
    q_max: int = 200,
    far_pairs: int = 1000,
    seed: int = 7,
) -> ExperimentResult:
    """Iterates of a conjugated rotation (by default of the golden rotation
    number (sqrt 5 - 1)/2) along approximation denominators.

    The base map is ``h R_alpha h^-1`` for ``h`` the time-tau map of
    ``RIGIDITY_CONJUGATOR``, the off-center generator at beta = 0.5.  For each
    denominator q the iterate is ``iterate(base, q)``, the conjugate of the
    rotation by q*alpha on the base map's conjugator pair (``h^-1`` is
    calibrated once).  Every d0 is one flow of ``h`` on ``RIGIDITY_D_GRID``
    shifted by ``q*alpha mod 1`` (``_rotation_d0s``); cal1 is taken on
    ``RIGIDITY_CAL_GRID``.  The rows check that far pairs wind by nearly the
    same integer k, that k/q tracks the rotation number within 1/q + 2
    eps^(1/4)/pi, and that the action average grows like q times a value
    pinned at 0.  Every ``cal1`` is normalized by the base map's invariant
    boundary measure mu: an f-invariant mu is f^q-invariant, so iterates
    build no lift or orbit; each winds mu's atoms for its own displacement.
    """
    cf = continued_fraction(alpha, depth)
    qs = sorted({q for q in cf.q if 1 <= q <= q_max})
    if not qs:
        raise QMaxExceeded(f"no approximation denominators of {alpha} fit the budget {q_max}")
    base = conjugated_rotation(alpha, RIGIDITY_CONJUGATOR, tau)
    lift = base.boundary_lift()
    rho = rotation_number(lift, n=100_000)
    mu = invariant_measure(lift)
    cal_f = cal1(base, mu=mu, grid=RIGIDITY_CAL_GRID, richardson=False).value
    rng = np.random.default_rng(seed)
    # base is h R_alpha h^-1, or R_alpha itself at tau = 0 (h = id)
    h = base.pair.h if tau else identity()
    d0s = _rotation_d0s(h, np.mod(np.multiply(qs, alpha), 1.0), RIGIDITY_D_GRID)

    rows = []
    for q, eps in zip(qs, d0s):
        it = iterate(base, q)
        # the q = 1 iterate is the base map on the same conjugator pair
        c1 = cal_f if q == 1 else cal1(it, mu=mu, grid=RIGIDITY_CAL_GRID, richardson=False).value
        drift = abs(c1 - q * cal_f)
        drift_budget = (q + 1) * RIGIDITY_CAL_BUDGET

        min_sep = min(np.sqrt(eps), 1.2)
        x, y = _far_pairs(rng, far_pairs, min_sep)
        w, _ = chord_windings(it, x, y)
        k = int(np.round(np.median(w)))
        k_consistent = bool(np.all(np.round(w) == k))
        dev = float(np.max(np.abs(w - k)))
        lemma_applies = bool(eps <= 1.0 / 16.0)
        lemma_bound = 2.0 * eps ** 0.25 / np.pi
        # eps <= 1/16 gives lemma_bound <= 1/pi < 1/2: dev <= lemma_bound implies k_consistent
        lemma_ok = (not lemma_applies) or dev <= lemma_bound
        kq_res = abs(k / q - rho.value)
        kq_bound = 1.0 / q + lemma_bound
        row_pass = bool(lemma_ok and kq_res <= kq_bound and drift <= drift_budget)
        rows.append({
            "q": int(q), "eps_d0": eps, "cal1_iter": c1, "cal1_drift": drift,
            "drift_budget": drift_budget, "k": k, "k_consistent": k_consistent,
            "ang_dev_max": dev, "lemma_applies": lemma_applies, "lemma_ok": bool(lemma_ok),
            "kq_residual": kq_res, "kq_bound": kq_bound, "pass": row_pass,
        })
    passed = all(r["pass"] for r in rows) and abs(cal_f) <= RIGIDITY_CAL_BUDGET
    return ExperimentResult("rigidity", rows, passed,
                            meta={"alpha": alpha, "tau": tau, "cal1_base": cal_f,
                                  "rho": rho.value, "qs": [int(q) for q in qs],
                                  "cal_budget": RIGIDITY_CAL_BUDGET, "seed": seed})
