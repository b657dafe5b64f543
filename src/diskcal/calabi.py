"""Three routes to the Calabi invariant and the identities tying them together.

* ``cal1``       -- area average of the action function, the primitive of
                    ``f^* lambda - lambda`` normalized to zero boundary average,
* ``cal2_tilde`` -- Monte-Carlo double integral of the chord winding (turns),
* ``cal3_tilde`` -- ``2 int_0^1 int_D H_t omega dt`` for a generator vanishing
                    on the boundary circle.

For any bundle built from a generator the three values satisfy
``cal2 = cal1 + rho`` and ``cal2 = cal3`` up to quadrature and sampling error;
``verify_link`` evaluates all of them and reports the residuals against an
explicit budget.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .circle import BoundaryMeasure, invariant_measure, rotation_number
from .errors import BoundaryNotConstant, NotAreaPreserving, OrbitCollision, StepTooCoarse
from .flow import MapBundle, area_residual, chord_windings
from .geometry import TOL_AREA, liouville_eval, uniform_disk_points, wirtinger_apply

MIN_PAIR_SEPARATION = 1e-6
DIAGONAL_GUARD = 1e-9
SEGMENT_NODES = 8


# ---------------------------------------------------------------------------
# quadrature helpers


def composite_gauss_radii(n_nodes: int, breakpoints=()):
    """Gauss-Legendre nodes/weights on [0, 1] split at interior breakpoints."""
    edges = np.unique(np.concatenate([[0.0, 1.0], np.asarray(breakpoints, dtype=float)]))
    edges = edges[(edges >= 0.0) & (edges <= 1.0)]
    segs = list(zip(edges[:-1], edges[1:]))
    nodes, weights = [], []
    for lo, hi in segs:
        k = max(8, int(round(n_nodes * (hi - lo))))
        x, w = leggauss(k)
        nodes.append(lo + (hi - lo) * (x + 1.0) / 2.0)
        weights.append(w * (hi - lo) / 2.0)
    r = np.concatenate(nodes)
    w = np.concatenate(weights)
    order = np.argsort(r)
    return r[order], w[order]


def _segment_nodes(edges_lo, edges_hi, m: int):
    """GL-m nodes/weights on per-point segments [lo, hi] (vectorized)."""
    x, w = leggauss(m)
    half = (edges_hi - edges_lo)[..., None] / 2.0
    mid = (edges_hi + edges_lo)[..., None] / 2.0
    return mid + half * x, half * w


def periodic_spectral_interp(values: np.ndarray, offset: float, x):
    """Evaluate the trigonometric interpolant of uniform periodic samples.

    ``values[j] = f(offset + j/N)`` for a smooth 1-periodic ``f``; convergence
    is spectral in N, which square-grid linear interpolation of boundary
    action profiles cannot match.
    """
    n = values.size
    coeffs = np.fft.fft(values) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    t = np.mod(np.asarray(x, dtype=float), 1.0) - offset
    return np.real(np.exp(2j * np.pi * np.outer(t, k)) @ coeffs)


def _pullback_integrand(bundle, primitive_shift, pos, direction):
    """``lambda'_{f(p)}(Df . v) - lambda'_p(v)`` at points ``pos``, vectors ``direction``."""
    f, p, q = bundle.isotopy.flow_wirtinger(1.0, pos)
    jv = wirtinger_apply(p, q, direction)
    val = liouville_eval(f, jv) - liouville_eval(pos, direction)
    if primitive_shift is not None:
        _, grad_u = primitive_shift
        val = val + np.real(np.conj(grad_u(f)) * jv) - np.real(np.conj(grad_u(pos)) * direction)
    return val


def _action_averages(bundle, mu, grid, primitive_shift=None):
    """(area average of ``a0 - c_mu``, ``c_mu``) from one radial rule per ray.

    For the pullback integrand ``g`` along a ray, Fubini gives exactly
    ``int_0^1 2 r a0(r) dr = int_0^1 g(rho) (1 - rho^2) d rho``, and the
    boundary profile ``a0(1) = int_0^1 g`` is a sum over the same composite
    Gauss-Legendre nodes (split at the generator's radial kinks).
    """
    nr, ntheta = grid
    breaks = tuple(bundle.field.radial_breakpoints) if bundle.field else ()
    r, w = composite_gauss_radii(nr, breaks)
    thetas = (np.arange(ntheta) + 0.5) / ntheta
    units = np.exp(2j * np.pi * thetas)
    pos = (r[:, None] * units[None, :]).reshape(-1)
    direction = np.broadcast_to(units[None, :], (r.size, ntheta)).reshape(-1)
    g = _pullback_integrand(bundle, primitive_shift, pos, direction).reshape(r.size, ntheta)
    area_a0 = float(np.sum(w * (1.0 - r * r) * np.mean(g, axis=1)))
    boundary = w @ g
    c_mu = float(np.sum(mu.weights * periodic_spectral_interp(boundary, thetas[0], mu.points)))
    return area_a0 - c_mu, c_mu


# ---------------------------------------------------------------------------
# action function


class ActionFunction:
    """Primitive of ``f^* lambda - lambda`` with zero boundary-measure average.

    ``a0`` integrates ``lambda_{f(t z)}(Df . z)`` along the radial path
    ``t -> t z`` by composite Gauss-Legendre (the pure-lambda term along the
    ray vanishes identically).  ``c_mu``, the mu-average of the boundary
    profile, comes from the same per-ray rule as ``cal1``.  An optional
    primitive shift ``(u, grad u)`` evaluates the same construction for the
    perturbed Liouville form ``lambda + du``.
    """

    def __init__(
        self,
        bundle: MapBundle,
        mu: BoundaryMeasure,
        radial_nodes: int = 64,
        primitive_shift=None,
        boundary_profile_samples: int = 512,
    ):
        res = area_residual(bundle, sample_count=100, seed=11)
        if res > 10.0 * TOL_AREA:
            raise NotAreaPreserving(f"area residual {res:.3e} exceeds {10 * TOL_AREA:.1e}")
        self.bundle = bundle
        self.mu = mu
        self.radial_nodes = radial_nodes
        self.primitive_shift = primitive_shift
        self._breaks = tuple(bundle.field.radial_breakpoints) if bundle.field else ()
        _, self.c_mu = _action_averages(
            bundle, mu, (radial_nodes, boundary_profile_samples), primitive_shift
        )

    def _integrand(self, pos, direction):
        return _pullback_integrand(self.bundle, self.primitive_shift, pos, direction)

    def a0(self, z):
        """Radial-path primitive at point(s) ``z``, zero at the origin."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        r = np.abs(z)
        unit = np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0)
        edges = np.concatenate([[0.0], np.asarray(self._breaks, dtype=float), [1.0]])
        lo = np.minimum(edges[:-1][None, :], r[:, None])
        hi = np.minimum(edges[1:][None, :], r[:, None])
        m = max(SEGMENT_NODES, self.radial_nodes // (edges.size - 1))
        rho, w = _segment_nodes(lo, hi, m)  # (N, S, m)
        shape = rho.shape
        pos = (rho * unit[:, None, None]).reshape(-1)
        direction = np.broadcast_to(unit[:, None, None], shape).reshape(-1)
        vals = self._integrand(pos, direction).reshape(shape)
        out = np.sum(vals * w, axis=(1, 2))
        return out if np.ndim(z) else float(out[0])

    def __call__(self, z):
        out = self.a0(z) - self.c_mu
        return out if np.ndim(z) else float(np.atleast_1d(out)[0])

    def a0_along_polyline(self, z: complex, nodes_per_leg: int = 48) -> float:
        """Primitive recomputed along 0 -> (u, 0) -> (u, v), for path-independence checks."""
        z = complex(z)
        legs = [(0.0 + 0.0j, complex(z.real, 0.0)), (complex(z.real, 0.0), z)]
        total = 0.0
        x, w = leggauss(nodes_per_leg)
        for a, b in legs:
            if abs(b - a) == 0.0:
                continue
            t = (x + 1.0) / 2.0
            pos = a + t * (b - a)
            direction = np.full_like(pos, b - a)
            total += float(np.sum(self._integrand(pos, direction) * w / 2.0))
        return total

    def pullback_defect(self, z):
        """Components of ``f^* lambda' - lambda'`` at ``z`` (the exact gradient of a0)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        du = self._integrand(z, np.ones_like(z))
        dv = self._integrand(z, np.full_like(z, 1j))
        return du, dv


def action_function(
    bundle: MapBundle,
    mu: Optional[BoundaryMeasure] = None,
    radial_nodes: int = 64,
    primitive_shift=None,
) -> ActionFunction:
    """Normalized action function of a bundle (measure defaults to a boundary orbit)."""
    if mu is None:
        mu = invariant_measure(bundle.boundary_lift())
    return ActionFunction(bundle, mu, radial_nodes=radial_nodes, primitive_shift=primitive_shift)


# ---------------------------------------------------------------------------
# cal1: area average of the action function


@dataclass(frozen=True)
class Cal1Result:
    value: float
    richardson_delta: float
    c_mu: float


def cal1(
    bundle: MapBundle,
    mu: Optional[BoundaryMeasure] = None,
    grid=(128, 256),
    primitive_shift=None,
    richardson: bool = True,
) -> Cal1Result:
    """Area integral of the normalized action function.

    One radial quadrature per ray by Fubini (exact for every map), times
    uniform angles; ``richardson_delta`` is the difference against the
    half-resolution value.  Raises NotAreaPreserving when the bundle fails
    the determinant check.
    """
    res = area_residual(bundle, sample_count=100, seed=11)
    if res > 10.0 * TOL_AREA:
        raise NotAreaPreserving(f"area residual {res:.3e} exceeds {10 * TOL_AREA:.1e}")
    if mu is None:
        mu = invariant_measure(bundle.boundary_lift())
    value, c_mu = _action_averages(bundle, mu, grid, primitive_shift)
    delta = np.nan
    if richardson:
        half = (max(16, grid[0] // 2), max(32, grid[1] // 2))
        coarse, _ = _action_averages(bundle, mu, half, primitive_shift)
        delta = abs(value - coarse)
    return Cal1Result(value=value, richardson_delta=float(delta), c_mu=c_mu)


# ---------------------------------------------------------------------------
# angle function and the winding double integral


def angle_function(bundle: MapBundle, x: complex, y: complex) -> float:
    """Winding in turns of ``t -> f_t(x) - f_t(y)`` along the bundle's isotopy."""
    if abs(complex(x) - complex(y)) < DIAGONAL_GUARD:
        raise ValueError("angle function evaluated too close to the diagonal")
    vals, _ = chord_windings(bundle.isotopy, np.array([x]), np.array([y]))
    return float(vals[0])


@dataclass
class PairSampler:
    """Draws pairs from the product of the normalized area form with itself.

    ``stratified`` splits the disk into equal-area annuli for each factor and
    allocates samples proportionally (deterministic largest-remainder rounding),
    which sharpens the estimator for radially concentrated windings.
    """

    n: int
    seed: int
    s_min: float = MIN_PAIR_SEPARATION
    strategy: str = "uniform"
    n_strata: int = 8

    def _draw_uniform(self, rng, size):
        return uniform_disk_points(size, rng), uniform_disk_points(size, rng)

    def _draw_stratum(self, rng, i, j, size, k):
        rx = np.sqrt((i + rng.random(size)) / k)
        ry = np.sqrt((j + rng.random(size)) / k)
        x = rx * np.exp(2j * np.pi * rng.random(size))
        y = ry * np.exp(2j * np.pi * rng.random(size))
        return x, y

    def _separate(self, rng, draw, x, y):
        resampled = 0
        for _ in range(100):
            bad = np.abs(x - y) < self.s_min
            if not np.any(bad):
                break
            resampled += int(np.sum(bad))
            nx, ny = draw(rng, int(np.sum(bad)))
            x[bad], y[bad] = nx, ny
        return x, y, resampled

    def sample_pairs(self):
        """Returns (x, y, cell masses or None, cell slices or None, resampled)."""
        rng = np.random.default_rng(self.seed)
        if self.strategy == "uniform":
            x, y = self._draw_uniform(rng, self.n)
            x, y, resampled = self._separate(rng, self._draw_uniform, x, y)
            return x, y, None, None, resampled
        if self.strategy != "stratified":
            raise ValueError(f"unknown strategy {self.strategy!r}")
        k = self.n_strata
        cells = [(i, j) for i in range(k) for j in range(k)]
        counts = self._cell_counts()
        xs, ys, slices = [], [], []
        start = 0
        for (i, j), c in zip(cells, counts):
            draw = lambda r, s, _i=i, _j=j: self._draw_stratum(r, _i, _j, s, k)
            x, y = draw(rng, int(c))
            x, y, _ = self._separate(rng, draw, x, y)
            xs.append(x)
            ys.append(y)
            slices.append(slice(start, start + int(c)))
            start += int(c)
        masses = np.full(len(cells), 1.0 / (k * k))
        return np.concatenate(xs), np.concatenate(ys), masses, slices, 0

    def _cell_counts(self):
        k = self.n_strata
        base = self.n // (k * k)
        counts = np.full(k * k, base, dtype=int)
        counts[: self.n - base * k * k] += 1
        return np.maximum(counts, 1)

    def redraw(self, rng, idx):
        """Fresh pairs for the sample indices ``idx``, each from its own stratum."""
        if self.strategy == "uniform":
            return self._draw_uniform(rng, idx.size)
        k = self.n_strata
        cell = np.searchsorted(np.cumsum(self._cell_counts()), idx, side="right")
        return self._draw_stratum(rng, cell // k, cell % k, idx.size, k)


@dataclass(frozen=True)
class Cal2Result:
    value: float
    stderr: float
    n_pairs: int
    resampled: int = 0
    retried: int = 0


def cal2_tilde(bundle: MapBundle, sampler: PairSampler, workers: int = 1) -> Cal2Result:
    """Monte-Carlo mean of the angle function over area-form pairs.

    Deterministic for fixed seed: windings land in a preallocated array in
    sample order, so neither chunking nor thread scheduling affects the result.
    Pairs whose winding stays unresolved after maximal refinement (nearly
    colliding trajectories) are resampled within a small retry budget, each
    inside its own stratum when the sampler is stratified.
    """
    x, y, masses, slices, resampled = sampler.sample_pairs()
    values = np.empty(x.size)

    def run(idx):
        vals, ok = chord_windings(bundle.isotopy, x[idx], y[idx], raise_on_fail=False)
        values[idx] = vals
        return idx[~ok]

    chunks = np.array_split(np.arange(x.size), max(1, workers))
    chunks = [c for c in chunks if c.size]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            failed = list(pool.map(run, chunks))
    else:
        failed = [run(c) for c in chunks]
    bad = np.concatenate(failed) if failed else np.empty(0, dtype=int)

    retried = 0
    rng = np.random.default_rng(sampler.seed + 1)
    for _ in range(3):
        if bad.size == 0:
            break
        retried += bad.size
        nx, ny = sampler.redraw(rng, bad)
        x[bad], y[bad] = nx, ny
        bad = run(bad)
    if bad.size:
        raise StepTooCoarse(f"{bad.size} sampled pairs never resolved their winding")

    if masses is None:
        value = float(np.mean(values))
        stderr = float(np.std(values, ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    else:
        value = 0.0
        var = 0.0
        for m, sl in zip(masses, slices):
            v = values[sl]
            value += m * float(np.mean(v))
            if v.size > 1:
                var += m * m * float(np.var(v, ddof=1)) / v.size
        stderr = float(np.sqrt(var))
    return Cal2Result(value=value, stderr=stderr, n_pairs=x.size,
                      resampled=resampled, retried=retried)


# ---------------------------------------------------------------------------
# cal3: time integral of the generator


def cal3_tilde(
    bundle_or_field,
    grid=(128, 256),
    time_nodes: int = 8,
    boundary_samples: int = 64,
    boundary_tol: float = 1e-8,
) -> float:
    """``2 int_0^1 int_D H_t omega dt`` after normalizing ``H_t`` to vanish on S^1.

    The generator must be constant on the circle at every sampled time
    (BoundaryNotConstant otherwise); the constant is subtracted per slice.
    Autonomous generators use a single time node, piecewise generators get
    Gauss-Legendre nodes per smooth piece.
    """
    field = bundle_or_field.field if isinstance(bundle_or_field, MapBundle) else bundle_or_field
    if field is None:
        raise ValueError("cal3 needs a bundle with a Hamiltonian generator")
    nr, ntheta = grid
    r, w = composite_gauss_radii(nr, field.radial_breakpoints)
    thetas = (np.arange(ntheta) + 0.5) / ntheta
    pts = (r[:, None] * np.exp(2j * np.pi * thetas)[None, :]).ravel()

    def slice_integral(t):
        bvals = field.boundary_values(t, boundary_samples)
        if float(np.max(bvals) - np.min(bvals)) > boundary_tol:
            raise BoundaryNotConstant(
                f"generator varies by {float(np.max(bvals) - np.min(bvals)):.2e} on the circle at t={t}"
            )
        h = (field.value(t, pts) - float(np.mean(bvals))).reshape(r.size, ntheta)
        return float(np.sum(w * 2.0 * r * np.mean(h, axis=1)))

    if field.autonomous:
        return 2.0 * slice_integral(0.0)
    edges = np.unique(np.concatenate([[0.0, 1.0], np.asarray(field.time_breakpoints)]))
    x, gw = leggauss(time_nodes)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        ts = lo + (hi - lo) * (x + 1.0) / 2.0
        total += sum(g * slice_integral(t) for t, g in zip(ts, gw)) * (hi - lo) / 2.0
    return 2.0 * total


# ---------------------------------------------------------------------------
# measure-weighted variants and Birkhoff averages


@dataclass(frozen=True)
class DiskMeasure:
    """Weighted points of the disk approximating an invariant probability measure."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    def pushforward(self, f) -> "DiskMeasure":
        return DiskMeasure(points=np.asarray(f(self.points)), weights=self.weights)


def uniform_disk_measure(n: int, seed: int) -> DiskMeasure:
    rng = np.random.default_rng(seed)
    return DiskMeasure(points=uniform_disk_points(n, rng), weights=np.full(n, 1.0 / n))


def c_mu_tilde(bundle: MapBundle, measure: DiskMeasure) -> float:
    """Weighted double sum of the angle function over distinct point pairs.

    Coincident pairs (separation below 1e-12) are skipped; for an atomless
    measure approximation they carry no mass.
    """
    pts, wts = measure.points, measure.weights
    n = pts.size
    if n < 2:
        return 0.0
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    off = ii != jj
    x, y = pts[ii[off]], pts[jj[off]]
    wp = (wts[ii[off]] * wts[jj[off]])
    keep = np.abs(x - y) >= 1e-12
    vals, _ = chord_windings(bundle.isotopy, x[keep], y[keep])
    return float(np.sum(wp[keep] * vals))


def birkhoff_angle(bundle: MapBundle, x: complex, y: complex, n: int) -> float:
    """Time average ``(1/n) Ang_{I^n}`` via the cocycle sum along the orbit."""
    xs = np.empty(n, dtype=complex)
    ys = np.empty(n, dtype=complex)
    cx, cy = complex(x), complex(y)
    for k in range(n):
        xs[k], ys[k] = cx, cy
        if k + 1 < n:
            cx = bundle.isotopy.flow(1.0, cx)
            cy = bundle.isotopy.flow(1.0, cy)
    if float(np.min(np.abs(xs - ys))) < DIAGONAL_GUARD:
        raise OrbitCollision("orbits approach below the separation threshold")
    vals, _ = chord_windings(bundle.isotopy, xs, ys)
    return float(np.sum(vals)) / n


# ---------------------------------------------------------------------------
# the link verifier


@dataclass
class CalabiReport:
    """All three invariant values with error estimates and identity residuals."""

    map_name: str
    cal1: Optional[float] = None
    cal1_richardson: Optional[float] = None
    cal2: Optional[float] = None
    cal2_stderr: Optional[float] = None
    cal3: Optional[float] = None
    rho: Optional[float] = None
    rho_halfwidth: Optional[float] = None
    rho_iterates: Optional[int] = None
    residual_link: Optional[float] = None
    residual_23: Optional[float] = None
    budget: Optional[float] = None
    pass_link: Optional[bool] = None
    pass_23: Optional[bool] = None
    diagnostics: dict = dc_field(default_factory=dict)

    FLAT_FIELDS = (
        "map_name",
        "cal1",
        "cal1_richardson",
        "cal2",
        "cal2_stderr",
        "cal3",
        "rho",
        "rho_halfwidth",
        "rho_iterates",
        "residual_link",
        "residual_23",
        "budget",
        "pass_link",
        "pass_23",
    )

    def to_flat_dict(self) -> dict:
        out = {k: getattr(self, k) for k in self.FLAT_FIELDS}
        for k in sorted(self.diagnostics):
            out[f"diag_{k}"] = self.diagnostics[k]
        return out


def verify_link(
    bundle: MapBundle,
    *,
    pairs: int = 20_000,
    seed: int = 0,
    grid=(128, 256),
    rho_iterates: int = 100_000,
    quad_budget: float = 1e-4,
    strategy: str = "uniform",
    workers: int = 1,
) -> CalabiReport:
    """Compute cal1, cal2, cal3 and the rotation number; check both identities.

    PASS thresholds: ``|cal2 - cal1 - rho|`` and ``|cal2 - cal3|`` within
    ``3 stderr + quad_budget`` (the statistical envelope of the Monte-Carlo
    route plus the stated quadrature/rotation-number allowance).
    """
    res = area_residual(bundle, sample_count=100, seed=seed + 5)
    lift = bundle.boundary_lift()
    rho = rotation_number(lift, n=rho_iterates)
    mu = invariant_measure(lift)
    c1 = cal1(bundle, mu=mu, grid=grid)
    c2 = cal2_tilde(bundle, PairSampler(n=pairs, seed=seed, strategy=strategy), workers=workers)
    c3 = cal3_tilde(bundle, grid=grid)
    budget = 3.0 * c2.stderr + quad_budget
    residual_link = abs(c2.value - c1.value - rho.value)
    residual_23 = abs(c2.value - c3)
    return CalabiReport(
        map_name=bundle.name,
        cal1=c1.value,
        cal1_richardson=c1.richardson_delta,
        cal2=c2.value,
        cal2_stderr=c2.stderr,
        cal3=c3,
        rho=rho.value,
        rho_halfwidth=rho.rigorous_halfwidth,
        rho_iterates=rho.iterates_used,
        residual_link=residual_link,
        residual_23=residual_23,
        budget=budget,
        pass_link=bool(residual_link <= budget),
        pass_23=bool(residual_23 <= budget),
        diagnostics={
            "area_residual": res,
            "n_pairs": c2.n_pairs,
            "resampled_pairs": c2.resampled,
            "retried_pairs": c2.retried,
            "seed": seed,
            "grid_r": grid[0],
            "grid_theta": grid[1],
            "strategy": strategy,
            "workers": workers,
            "mu_periodic": mu.periodic,
        },
    )
