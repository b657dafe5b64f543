"""Three routes to the Calabi invariant and the identities tying them together.

* ``cal1``       -- area average of the action function, the primitive of
                    ``f^* lambda - lambda`` normalized to zero boundary average,
* ``cal2_tilde`` -- Monte-Carlo double integral of the chord winding (turns),
* ``cal3_tilde`` -- ``2 int_0^1 int_D H_t omega dt`` for a generator vanishing
                    on the boundary circle, summed over the leaves of the
                    isotopy tree (concatenation adds, conjugation preserves).

For any map built from a generator the three values satisfy
``cal2 = cal1 + rho`` and ``cal2 = cal3`` up to quadrature and sampling error.
``route_report`` is the one place where a route (one of ``ROUTES``) fills its
report fields and diagnostics; ``verify_link`` runs it on every route and
adds the residuals against an explicit budget.  The winding of one chord
(the angle function) is ``flow.chord_windings`` on the map (its isotopy); on
``zoo.iterate(f, n)`` it is the cocycle sum along the orbit, so its Birkhoff
average is that value / n.

Quadrature rules are fixed objects: each polar grid (by grid and radial
kinks) is built once per process, kept in a small LRU cache and returned as
read-only arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields
from functools import lru_cache
from typing import ClassVar, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .circle import BoundaryMeasure, boundary_displacement, invariant_measure, rotation_number
from .errors import BoundaryNotConstant, NotAreaPreserving, StepTooCoarse
from .flow import ConcatIsotopy, ConjugatedIsotopy, MapBundle, area_residual, blocks, chord_windings
from .geometry import TOL_AREA, circle_point, liouville_eval

MIN_PAIR_SEPARATION = 1e-6
N_STRATA = 8  # equal-area annuli per factor of the stratified sampler
STRATEGIES = {"uniform": 1, "stratified": N_STRATA}  # PairSampler.strategy -> its annuli per factor
TOL_GENERATOR_BOUNDARY = 1e-8  # spread of H_t on S^1 that cal3 accepts as constant
MIN_RICHARDSON_GRID = (32, 64)  # smallest cal1 grid whose half grid is at least (16, 32)
POLAR_GRID_CACHE_SIZE = 8  # polar grids kept, by (grid, radial kinks)


# ---------------------------------------------------------------------------
# quadrature helpers


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


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
    # the segments ascend (np.unique) and so do numpy's nodes within each
    return np.concatenate(nodes), np.concatenate(weights)


def _polar_grid(grid, breakpoints):
    """Composite Gauss-Legendre radii (split at the radial kinks ``breakpoints``)
    times midpoint angles: ``(r, w, thetas, units, points)``, points radius-major.
    Cached: a grid given as a list shares the entry of the same tuple."""
    return _cached_polar_grid(tuple(grid), tuple(breakpoints))


@lru_cache(maxsize=POLAR_GRID_CACHE_SIZE)
def _cached_polar_grid(grid, breakpoints):
    nr, ntheta = grid
    r, w = composite_gauss_radii(nr, breakpoints)
    thetas = (np.arange(ntheta) + 0.5) / ntheta
    units = np.exp(2j * np.pi * thetas)
    return _read_only(r, w, thetas, units, (r[:, None] * units[None, :]).reshape(-1))


def _pullback_integrand(bundle, primitive_shift, pos, direction):
    """``lambda'_{f(p)}(Df . v) - lambda'_p(v)`` at points ``pos``, vectors ``direction``.

    Only the derivative along ``v`` enters, so the flow pushes the one vector
    per point (``flow_tangent``), not the whole Jacobian.  The points are
    evaluated one block at a time (``flow.blocks``) into one row.
    """
    out = np.empty(pos.size)
    for sl in blocks(pos.size):
        p, v = pos[sl], direction[sl]
        f, jv = bundle.flow_tangent(1.0, p, v)
        val = liouville_eval(f, jv) - liouville_eval(p, v)
        if primitive_shift is not None:
            _, grad_u = primitive_shift
            val = val + np.real(np.conj(grad_u(f)) * jv) - np.real(np.conj(grad_u(p)) * v)
        out[sl] = val
    return out


def _checked_area_residual(bundle) -> float:
    """Determinant residual of the bundle; NotAreaPreserving above ``10 TOL_AREA``."""
    res = area_residual(bundle, seed=11)
    if res > 10.0 * TOL_AREA:
        raise NotAreaPreserving(f"area residual {res:.3e} exceeds {10 * TOL_AREA:.1e}")
    return res


def _action_averages(bundle, mu, grids, primitive_shift=None):
    """(area average of ``a0 - c_mu``, ``c_mu``) on each grid, from one radial
    rule per ray.

    For the pullback integrand ``g`` along a ray, Fubini gives exactly
    ``int_0^1 2 r a0(r) dr = int_0^1 g(rho) (1 - rho^2) d rho``, and the
    boundary profile ``a0(1) = int_0^1 g`` is a sum over the same composite
    Gauss-Legendre nodes (split at the isotopy's radial kinks).  On S^1 the
    Liouville form pulls back to ``d delta``, for the boundary displacement
    ``delta``, so ``a0(1) = K + delta`` and ``c_mu = int a0(1) dmu = K + rho_mu``
    with ``rho_mu = int delta dmu``.  ``K`` is the mean of ``a0(1) - delta``
    over the grid's angles.  A primitive shift ``(u, grad u)`` adds
    ``u o f - u`` to ``a0(1)``, which is taken out of ``K``: its mu-average
    is 0.  One ``boundary_displacement`` call winds mu's atoms and the angles
    of every grid.
    """
    rules = [_polar_grid(grid, bundle.radial_breakpoints) for grid in grids]
    xs = [mu.points] + [thetas for _, _, thetas, _, _ in rules]
    delta = boundary_displacement(bundle, np.concatenate(xs))
    at_atoms, *at_angles = np.split(delta, np.cumsum([x.size for x in xs[:-1]]))
    rho_mu = float(np.sum(mu.weights * at_atoms))
    out = []
    for (r, w, _, units, pos), delta_theta in zip(rules, at_angles):
        direction = np.broadcast_to(units[None, :], (r.size, units.size)).reshape(-1)
        g = _pullback_integrand(bundle, primitive_shift, pos, direction).reshape(r.size, units.size)
        area_a0 = float(np.sum(w * (1.0 - r * r) * np.mean(g, axis=1)))
        profile = w @ g - delta_theta
        if primitive_shift is not None:
            u, _ = primitive_shift
            profile -= u(bundle.flow(1.0, units)) - u(units)
        c_mu = float(np.mean(profile)) + rho_mu
        out.append((area_a0 - c_mu, c_mu))
    return out


# ---------------------------------------------------------------------------
# cal1: area average of the action function


def richardson_grid(grid):
    """The half-resolution grid of cal1's Richardson delta; ValueError below
    ``MIN_RICHARDSON_GRID``, where it would not be a halving of ``grid``."""
    if any(n < m for n, m in zip(grid, MIN_RICHARDSON_GRID)):
        raise ValueError(f"cal1's Richardson delta needs a grid of at least "
                         f"{list(MIN_RICHARDSON_GRID)}, got {list(grid)}")
    return (grid[0] // 2, grid[1] // 2)


@dataclass(frozen=True)
class Cal1Result:
    value: float
    richardson_delta: float
    c_mu: float
    area_residual: float


def cal1(
    bundle: MapBundle,
    mu: Optional[BoundaryMeasure] = None,
    grid=(128, 256),
    primitive_shift=None,
    richardson: bool = True,
) -> Cal1Result:
    """Area integral of the normalized action function.

    The action is normalized by ``c_mu = K + int delta dmu`` for an invariant
    boundary measure mu, by default the orbit measure of the boundary lift.
    One radial quadrature per ray by Fubini (exact for every map), times
    uniform angles; ``richardson_delta`` is the difference against the
    half-resolution value, which needs a grid of at least
    ``MIN_RICHARDSON_GRID`` (ValueError otherwise).  Raises NotAreaPreserving
    when the bundle fails the determinant check, whose residual
    ``area_residual`` reports.
    """
    grids = (grid, richardson_grid(grid)) if richardson else (grid,)
    res = _checked_area_residual(bundle)
    if mu is None:
        mu = invariant_measure(bundle.boundary_lift())
    (value, c_mu), *coarse = _action_averages(bundle, mu, grids, primitive_shift)
    delta = abs(value - coarse[0][0]) if richardson else np.nan
    return Cal1Result(value=value, richardson_delta=float(delta), c_mu=c_mu, area_residual=res)


# ---------------------------------------------------------------------------
# cal2: the chord-winding double integral


@dataclass
class PairSampler:
    """Draws pairs from the product of the normalized area form with itself.

    The draw splits the disk into k equal-area annuli for each factor, k =
    ``STRATEGIES[strategy]`` (1 for ``uniform``, ``N_STRATA`` for
    ``stratified``), and allocates the n pairs to the k x k cells in equal
    shares (deterministic largest-remainder rounding).  Cell by cell it draws
    x (radius, then angle) before y; at k = 1 that is two calls of
    ``geometry.uniform_disk_points``.  ``redraw`` draws each index inside its
    own cell, so pairs closer than ``MIN_PAIR_SEPARATION`` and pairs whose
    winding stays unresolved are replaced in their own cell.  ``estimate`` is
    the equal-mass mean of the cell means, which sharpens the estimator for
    radially concentrated windings, and at k = 1 the plain mean.  A standard
    error needs two pairs per cell: ``n >= 2 k^2``.
    """

    n: int
    seed: int
    strategy: str = "uniform"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {tuple(STRATEGIES)}, got {self.strategy!r}")
        need = 2 * self.k**2
        if self.n < need:
            raise ValueError(f"{self.strategy} sampling needs at least {need} pairs, got {self.n}")

    @property
    def k(self) -> int:
        """Equal-area annuli per factor."""
        return STRATEGIES[self.strategy]

    def _draw(self, rng, i, j, size):
        """``size`` pairs of cell ``(i, j)``: x uniform in the i-th annulus
        ``k|x|^2 in [i, i + 1]``, then y in the j-th, each radius before its angle."""
        x, y = (np.sqrt((c + rng.random(size)) / self.k) * circle_point(rng.random(size)) for c in (i, j))
        return x, y

    def _cell_counts(self):
        """Pairs per cell ``(i, j)``, row-major: equal shares, the remainder one
        each to the first cells."""
        cells = self.k * self.k
        base = self.n // cells
        counts = np.full(cells, base, dtype=int)
        counts[: self.n - base * cells] += 1
        return counts

    def sample_pairs(self):
        """``(x, y, resampled)``: n pairs in sample order, then each pair
        closer than ``MIN_PAIR_SEPARATION`` redrawn (``resampled`` counts the
        redraws)."""
        rng = np.random.default_rng(self.seed)
        cells = [self._draw(rng, *divmod(cell, self.k), int(c)) for cell, c in enumerate(self._cell_counts())]
        x, y = (np.concatenate(part) for part in zip(*cells))
        resampled = 0
        for _ in range(100):
            close = np.flatnonzero(np.abs(x - y) < MIN_PAIR_SEPARATION)
            if close.size == 0:
                break
            resampled += close.size
            x[close], y[close] = self.redraw(rng, close)
        return x, y, resampled

    def redraw(self, rng, idx):
        """Fresh pairs for the sample indices ``idx``, each from its own cell."""
        cell = np.searchsorted(np.cumsum(self._cell_counts()), idx, side="right")
        return self._draw(rng, *divmod(cell, self.k), idx.size)

    def estimate(self, values):
        """``(value, stderr)`` of the double integral from per-pair ``values`` in
        sample order: the mean of the k^2 cell means, each of mass ``m = 1/k^2``,
        and ``sqrt(sum_c (m std_c / sqrt(n_c))^2)``."""
        m = 1.0 / self.k**2
        cells = np.split(values, np.cumsum(self._cell_counts())[:-1])
        value = np.mean([np.mean(v) for v in cells])
        stderr = math.hypot(*(m * np.std(v, ddof=1) / np.sqrt(v.size) for v in cells))
        return float(value), stderr


@dataclass(frozen=True)
class Cal2Result:
    value: float
    stderr: float
    n_pairs: int
    resampled: int = 0
    retried: int = 0


def cal2_tilde(bundle: MapBundle, sampler: PairSampler, workers: int = 1) -> Cal2Result:
    """Monte-Carlo estimate of the chord winding's double integral over area-form pairs.

    Deterministic for fixed seed: windings land in one array in sample
    order, and ``sampler.estimate`` reads value and stderr from it.  Pairs
    whose winding stays unresolved (nearly colliding trajectories) are
    redrawn by ``sampler.redraw`` within a small retry budget (StepTooCoarse
    after three rounds); only the retries index the pairs.  ``workers`` is
    accepted for existing callers and configs and has no effect: the pairs
    are wound in one thread, one block at a time (``chord_windings``).
    """
    x, y, resampled = sampler.sample_pairs()
    values, ok = chord_windings(bundle, x, y, raise_on_fail=False)
    bad = np.flatnonzero(~ok)

    retried = 0
    rng = np.random.default_rng(sampler.seed + 1)
    for _ in range(3):
        if bad.size == 0:
            break
        retried += bad.size
        x[bad], y[bad] = sampler.redraw(rng, bad)
        values[bad], ok = chord_windings(bundle, x[bad], y[bad], raise_on_fail=False)
        bad = bad[~ok]
    if bad.size:
        raise StepTooCoarse(f"{bad.size} sampled pairs never resolved their winding")

    value, stderr = sampler.estimate(values)
    return Cal2Result(value=value, stderr=stderr, n_pairs=x.size,
                      resampled=resampled, retried=retried)


# ---------------------------------------------------------------------------
# cal3: time integral of the generator


def cal3_tilde(bundle: MapBundle, grid=(128, 256)) -> float:
    """``2 int_0^1 int_D H_t omega dt`` after normalizing ``H_t`` to vanish on S^1.

    The map is integrated over its isotopy tree, as ``windings`` is, and the
    tree carries all of the time dependence.  A leaf flows its generator ``H``,
    which does not depend on time, for the signed time ``tau``, so the leaf
    contributes ``tau 2 int_D H omega``.  Each time
    slot of a concatenation integrates its own piece once, so the pieces'
    values add.  Under a conjugation by an ``h`` preserving S^1 the generator
    ``H o h^-1`` has the same area integral and the same boundary constant, so
    it contributes its inner value.  A leaf's ``tau H`` must be constant on
    the circle (to ``TOL_GENERATOR_BOUNDARY``; BoundaryNotConstant otherwise);
    the constant is subtracted before the polar rule integrates it.
    """
    return _cal3_tree(bundle, grid, {})


def _cal3_tree(isotopy, grid, memo) -> float:
    """Sum over the leaves in tree order; ``memo`` integrates a repeated leaf once."""
    if isinstance(isotopy, ConcatIsotopy):
        return sum(_cal3_tree(piece, grid, memo) for piece in isotopy.pieces)
    if isinstance(isotopy, ConjugatedIsotopy):
        return _cal3_tree(isotopy.inner, grid, memo)
    if id(isotopy) not in memo:
        memo[id(isotopy)] = _cal3_leaf(isotopy.field, isotopy.tau, grid)
    return memo[id(isotopy)]


def _cal3_leaf(field, tau, grid) -> float:
    """``2 int_D tau H omega`` for the generator ``H = field``."""
    bvals = tau * field.boundary_values()
    spread = float(np.max(bvals) - np.min(bvals))
    if spread > TOL_GENERATOR_BOUNDARY:
        raise BoundaryNotConstant(f"generator {field.name} at tau={tau} varies by {spread:.2e} on the circle")
    r, w, _, units, pts = _polar_grid(grid, field.radial_breakpoints)
    h = (tau * field.value(pts) - float(np.mean(bvals))).reshape(r.size, units.size)
    return 2.0 * float(np.sum(w * 2.0 * r * np.mean(h, axis=1)))


# ---------------------------------------------------------------------------
# the double sum over a point sample


def c_mu_tilde(bundle: MapBundle, points) -> float:
    """Double sum of the chord winding over distinct pairs of the n ``points``.

    The points are the n equal atoms of a measure.  The winding is symmetric
    bit for bit, so each unordered pair is wound once, at weight ``2/n^2``.
    Coincident pairs (separation below 1e-12) are skipped; for an atomless
    measure approximation they carry no mass.  The flat index ``k < n (n -
    1) / 2`` names the pair ``(i, i + d + 1 mod n)``, ``d, i = divmod(k,
    n)``; the pairs are taken one block of k at a time (``flow.blocks``),
    and the kept windings fill one row of ``n (n - 1) / 2`` floats,
    allocated first: a point count whose row no memory holds raises
    MemoryError before any winding.
    """
    n = points.size
    if n < 2:
        return 0.0
    values = np.empty(n * (n - 1) // 2)
    kept = 0
    for sl in blocks(values.size):
        d, i = np.divmod(np.arange(sl.start, sl.stop), n)
        x, y = points[i], points[(i + d + 1) % n]
        keep = np.abs(x - y) >= 1e-12
        vals, _ = chord_windings(bundle, x[keep], y[keep])
        values[kept:kept + vals.size] = vals
        kept += vals.size
    return float(np.sum((2.0 * (1.0 / n) * (1.0 / n)) * values[:kept]))


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

    # the CSV column order: the fields above except ``diagnostics``
    FLAT_FIELDS: ClassVar[tuple]

    def to_flat_dict(self) -> dict:
        out = {k: getattr(self, k) for k in self.FLAT_FIELDS}
        for k in sorted(self.diagnostics):
            out[f"diag_{k}"] = self.diagnostics[k]
        return out


CalabiReport.FLAT_FIELDS = tuple(f.name for f in fields(CalabiReport) if f.name != "diagnostics")


ROUTES = ("cal1", "cal2", "cal3", "rho")  # the routes a report can be asked for


def route_report(bundle: MapBundle, routes, sampler: PairSampler, *, grid, rho_iterates: int) -> CalabiReport:
    """The fields and ``diagnostics`` of each of ``ROUTES`` named in ``routes``,
    run in this order: rho on the bundle's boundary lift; cal1 with the same
    lift's orbit measure mu (``area_residual``, ``mu_periodic``, the grid);
    cal2 on ``sampler`` (its pair counts and ``strategy``); cal3 (the grid).
    Every report records the sampler's ``seed``, and ``workers`` = 1:
    one thread winds every pair (the CLI records its --workers there)."""
    report = CalabiReport(map_name=bundle.name)
    diag = report.diagnostics
    diag.update(seed=sampler.seed, workers=1)
    lift = bundle.boundary_lift() if "rho" in routes or "cal1" in routes else None
    if "rho" in routes:
        rho = rotation_number(lift, n=rho_iterates)
        report.rho, report.rho_halfwidth = rho.value, rho.rigorous_halfwidth
        report.rho_iterates = rho.iterates_used
    if "cal1" in routes or "cal3" in routes:
        diag.update(grid_r=grid[0], grid_theta=grid[1])
    if "cal1" in routes:
        mu = invariant_measure(lift)
        c1 = cal1(bundle, mu=mu, grid=grid)
        report.cal1, report.cal1_richardson = c1.value, c1.richardson_delta
        diag.update(area_residual=c1.area_residual, mu_periodic=mu.periodic)
    if "cal2" in routes:
        c2 = cal2_tilde(bundle, sampler)
        report.cal2, report.cal2_stderr = c2.value, c2.stderr
        diag.update(n_pairs=c2.n_pairs, resampled_pairs=c2.resampled, retried_pairs=c2.retried,
                    strategy=sampler.strategy)
    if "cal3" in routes:
        report.cal3 = cal3_tilde(bundle, grid=grid)
    return report


def verify_link(
    bundle: MapBundle,
    *,
    pairs: int = 20_000,
    seed: int = 0,
    grid=(128, 256),
    rho_iterates: int = 100_000,
    quad_budget: float = 1e-4,
    strategy: str = "uniform",
) -> CalabiReport:
    """The report of every route (``route_report``) with both identities checked.

    PASS thresholds: ``|cal2 - cal1 - rho|`` and ``|cal2 - cal3|`` within
    ``3 stderr + quad_budget`` (the statistical envelope of the Monte-Carlo
    route plus the stated quadrature/rotation-number allowance).
    """
    report = route_report(bundle, ROUTES, PairSampler(n=pairs, seed=seed, strategy=strategy),
                          grid=grid, rho_iterates=rho_iterates)
    report.budget = 3.0 * report.cal2_stderr + quad_budget
    report.residual_link = abs(report.cal2 - report.cal1 - report.rho)
    report.residual_23 = abs(report.cal2 - report.cal3)
    report.pass_link = bool(report.residual_link <= report.budget)
    report.pass_23 = bool(report.residual_23 <= report.budget)
    return report
