"""Continued fractions, best approximations, and denominator-growth diagnostics.

Expansions of a float are computed exactly: a double is a dyadic rational, so
running Euclid on its exact fraction gives its true (finite) expansion with no
rounding.  Entries stay meaningful proxies for an intended irrational only up
to the precision horizon ``q_n ~ 2^26``; later entries are flagged.  Synthetic
expansions built directly from partial quotients exercise the growth regimes
(Bruno-type summability, super-Liouville escalation) that no double can reach.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import List, Optional

from .errors import DepthUnreliable

RELIABLE_Q = 6.7e7  # sqrt(1/eps): past this the float's digits stop tracking the real
SNAP = Fraction(1, 10**9)  # remainders this close to an integer end the expansion
TOWER_MAX_BITS = 20_000  # largest quotient exponent a synthetic tower unrolls


def _log_int(n: int) -> float:
    """log of a (possibly astronomically large) positive integer."""
    if n.bit_length() <= 900:
        return math.log(n)
    shift = n.bit_length() - 53
    return math.log(n >> shift) + shift * math.log(2.0)


def _growth_ratio(q_next: int, q: int) -> float:
    """log(q_next)/q, safe when q exceeds the float range (the ratio is ~0)."""
    if q.bit_length() >= 1000:
        return 0.0
    return _log_int(q_next) / float(q)


@dataclass
class ContinuedFraction:
    """Partial quotients with their convergents ``p_n / q_n``.

    Satisfies ``p_n = a_n p_{n-1} + p_{n-2}`` (same for q) in exact integer
    arithmetic.  ``terminated`` marks a finite expansion (rational input);
    ``reliable`` marks, entrywise, whether a float input still constrains the
    digit (denominators beyond ~2^26 reflect the double, not the real).
    """

    a: List[int]
    p: List[int]
    q: List[int]
    terminated: bool = False
    snapped: bool = False
    reliable: List[bool] = dc_field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.a)

    def convergent(self, n: int) -> Fraction:
        return Fraction(self.p[n], self.q[n])

    def value(self) -> Fraction:
        """Exact value of the finite expansion (backward recurrence)."""
        x = Fraction(self.a[-1])
        for an in self.a[:-1][::-1]:
            x = an + 1 / x
        return x


def _convergents(a: List[int]):
    p, q = [], []
    pm1, pm2 = 1, 0
    qm1, qm2 = 0, 1
    for an in a:
        pn = an * pm1 + pm2
        qn = an * qm1 + qm2
        p.append(pn)
        q.append(qn)
        pm2, pm1 = pm1, pn
        qm2, qm1 = qm1, qn
    return p, q


def continued_fraction(alpha: float, depth: int) -> ContinuedFraction:
    """Expansion of ``alpha`` by the floor/reciprocal recursion in exact arithmetic.

    A remainder within 1e-9 of an integer snaps to it and ends the expansion:
    the float then stands for the nearby rational rather than its own dyadic
    tail (a double near 3/7 expands to [0; 2, 3], not to the 50-bit monster of
    the dyadic).  Early termination warns; entries with denominators past the
    precision horizon are flagged unreliable.
    """
    if depth < 1:
        raise ValueError("need depth >= 1")
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    x = Fraction(alpha)
    a: List[int] = []
    terminated = False
    snapped = False
    for _ in range(depth):
        fl = math.floor(x)
        frac = x - fl
        if frac > 1 - SNAP:
            fl += 1
            frac = x - fl
        a.append(fl)
        if abs(frac) < SNAP:
            terminated = True
            snapped = frac != 0
            break
        x = 1 / frac
    p, q = _convergents(a)
    reliable = [qn <= RELIABLE_Q for qn in q]
    if snapped:
        reliable[-1] = False
    if terminated or not all(reliable):
        warnings.warn(
            "expansion terminated or passed the precision horizon; trailing "
            "digits describe the nearest snapped rational, not the float",
            DepthUnreliable,
            stacklevel=2,
        )
    return ContinuedFraction(
        a=a, p=p, q=q, terminated=terminated, snapped=snapped, reliable=reliable
    )


def from_quotients(a) -> ContinuedFraction:
    """Synthetic expansion from given partial quotients (a_i >= 1 for i >= 1)."""
    a = [int(v) for v in a]
    if len(a) < 1 or any(v < 1 for v in a[1:]):
        raise ValueError("need a_0 and positive partial quotients")
    p, q = _convergents(a)
    return ContinuedFraction(a=a, p=p, q=q, terminated=True, reliable=[True] * len(a))


def _tower(depth: int, exponent) -> ContinuedFraction:
    """Quotients ``a_{n+1} = 2^{exponent(n, q_n)}`` after ``[0, 2]``, while the
    exponent stays within ``TOWER_MAX_BITS``."""
    a = [0, 2]
    p, q = _convergents(a)
    while len(a) < depth:
        bits = exponent(len(a) - 1, q[-1])
        if bits > TOWER_MAX_BITS:
            break
        a.append(2**bits)
        p, q = _convergents(a)
    return ContinuedFraction(a=a, p=p, q=q, terminated=True, reliable=[True] * len(a))


def synthetic_non_bruno(depth: int) -> ContinuedFraction:
    """Quotients ``a_{n+1} = 2^{q_n}``: every growth ratio stays >= log 2.

    Unrolled in exact integers while representable (capping the exponents
    instead would silently produce a Bruno-type sequence); the memory bound
    limits genuine depth to a handful of tower levels, which already exhibits
    the non-summable growth.
    """
    return _tower(depth, lambda n, qn: qn)


def synthetic_super_liouville(depth: int) -> ContinuedFraction:
    """Quotients ``a_{n+1} = 2^{4^n q_n}``: growth ratios escalate geometrically."""
    return _tower(depth, lambda n, qn: 4**n * qn)


def best_approx_check(cf: ContinuedFraction, alpha: float) -> List[Optional[bool]]:
    """Exact two-sided best-approximation inequality per convergent.

    Entry n states ``1/(q_n (q_n + q_{n+1})) <= (-1)^n (alpha - p_n/q_n)
    <= 1/(q_n q_{n+1})``, decided in rational arithmetic on the float's exact
    value.  The final convergent (no successor) is flagged None.
    """
    target = Fraction(alpha)
    out: List[Optional[bool]] = []
    for n in range(cf.depth):
        if n + 1 >= cf.depth or not (cf.reliable[n] and cf.reliable[n + 1]):
            out.append(None)
            continue
        qn, qn1 = cf.q[n], cf.q[n + 1]
        err = (target - cf.convergent(n)) * (-1) ** n
        out.append(Fraction(1, qn * (qn + qn1)) <= err <= Fraction(1, qn * qn1))
    return out


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Finite growth data ``log(q_{n+1})/q_n`` with heuristic labels.

    Finite data cannot decide a limsup or the convergence of a series; the
    labels only describe the computed window.
    """

    ratios: List[float]
    running_sum: List[float]
    labels: List[str]
    caveat: str = (
        "labels are heuristics about the computed window; no finite expansion "
        "decides Bruno summability or a super-Liouville limsup"
    )


def classify(cf: ContinuedFraction) -> GrowthDiagnostic:
    """Growth ratios of the approximation denominators with heuristic labels.

    bruno-like: the tail of ``log(q_{n+1})/q_n`` has decayed to < 1e-3 (the
    series has numerically settled).  Otherwise non-bruno-like; additionally
    super-liouville-like when the tail ratios escalate above their median.
    """
    if cf.depth < 3:
        raise ValueError("need at least 3 quotients to talk about growth")
    ratios = [_growth_ratio(cf.q[n + 1], cf.q[n]) for n in range(cf.depth - 1)]
    sums = []
    acc = 0.0
    for r in ratios:
        acc += r
        sums.append(acc)
    tail = ratios[-3:]
    if max(tail) < 1e-3:
        labels = ["bruno-like"]
    else:
        labels = ["non-bruno-like"]
        med = sorted(ratios)[len(ratios) // 2]
        if ratios[-1] > 2.0 * med and ratios[-1] > ratios[0]:
            labels.append("super-liouville-like")
    return GrowthDiagnostic(ratios=ratios, running_sum=sums, labels=labels)
