"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines (they are also emitted under plain ``pytest -v`` on failure).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from diskcal.arithmetic import best_approx_check, classify, continued_fraction, synthetic_non_bruno
from diskcal.calabi import (
    PairSampler,
    cal1,
    cal2_tilde,
    cal3_tilde,
    verify_link,
)
from diskcal.circle import rotation_number
from diskcal.cli import main
from diskcal.experiments import exp_c0_discontinuity, exp_rigidity, sup_distance_to_identity
from diskcal.flow import chord_windings
from diskcal.geometry import uniform_disk_points
from diskcal.zoo import (
    boundary_shear_conjugator,
    bump,
    compose,
    conjugate,
    quadratic_twist,
    rotation,
)

from conftest import ActionFunction, composed, pullback_defect, sampled, translation
from test_calabi import invariant_boundary_pair

GOLDEN = 0.6180339887498949


@contextmanager
def criterion(number, label):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] {label}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"[criterion {number:2d}] {label}: PASS ({time.time() - start:.1f}s)")


def test_01_rotation_triple():
    with criterion(1, "rotation triple (cal1=0, cal3=alpha, cal2=alpha)"):
        for alpha in (0.1, 0.3, GOLDEN):
            start = time.time()
            assert abs(cal1(rotation(alpha)).value) <= 1e-5
            assert cal3_tilde(rotation(alpha)) == pytest.approx(alpha, abs=1e-6)
            res = cal2_tilde(rotation(alpha), PairSampler(n=20_000, seed=7))
            assert abs(res.value - alpha) <= max(3 * res.stderr, 5e-3)
            assert time.time() - start <= 120.0


def test_02_link_identity():
    with criterion(2, "link identity cal2 = cal1 + rho and cal2 = cal3"):
        reports = {
            "twist": verify_link(quadratic_twist(0.3), pairs=20_000, seed=7),
            "bump4": verify_link(bump(4), pairs=20_000, seed=7),
            "twist.rot": verify_link(
                compose(quadratic_twist(0.3), rotation(0.2)), pairs=20_000, seed=7
            ),
        }
        for rep in reports.values():
            assert rep.residual_link <= 3 * rep.cal2_stderr + 1e-4
            assert rep.residual_23 <= 3 * rep.cal2_stderr + 1e-4
        tw = reports["twist"]
        assert tw.cal1 == pytest.approx(0.2, abs=1e-5)
        assert tw.cal3 == pytest.approx(0.2, abs=1e-6)
        assert tw.rho == pytest.approx(0.0, abs=1e-9)
        assert abs(tw.cal2 - 0.2) <= 3 * tw.cal2_stderr


def test_03_morphism_property():
    with criterion(3, "winding integral is a morphism under composition"):
        rng = np.random.default_rng(42)
        for k in range(3):
            beta = rng.uniform(0.1, 0.4)
            alpha = rng.uniform(0.05, 0.6)
            f, g = quadratic_twist(beta), rotation(alpha)
            if k == 2:
                g = quadratic_twist(rng.uniform(0.1, 0.4))
            rf = cal2_tilde(f, PairSampler(n=20_000, seed=100 + k))
            rg = cal2_tilde(g, PairSampler(n=20_000, seed=200 + k))
            rfg = cal2_tilde(compose(f, g), PairSampler(n=20_000, seed=300 + k))
            tol = 3 * np.sqrt(rf.stderr**2 + rg.stderr**2 + rfg.stderr**2) + 1e-12
            assert abs(rfg.value - rf.value - rg.value) <= tol


def test_04_cocycle_identity():
    with criterion(4, "angle cocycle under composition (1e3 pairs, 1e-6)"):
        f, g = quadratic_twist(0.3), rotation(0.2)
        fg = compose(f, g)
        rng = np.random.default_rng(5)
        x, y = uniform_disk_points(1000, rng), uniform_disk_points(1000, rng)
        keep = np.abs(x - y) > 1e-6
        x, y = x[keep], y[keep]
        lhs, _ = chord_windings(fg, x, y)
        part_g, _ = chord_windings(g, x, y)
        part_f, _ = chord_windings(f, g(x), g(y))
        assert np.max(np.abs(lhs - part_g - part_f)) <= 1e-6


def test_05_action_primitive_oracle():
    with criterion(5, "action primitive: gradient, lambda- and mu-independence"):
        bundle = quadratic_twist(0.3)
        a = ActionFunction(bundle)
        rng = np.random.default_rng(9)
        pts = 0.9 * uniform_disk_points(100, rng)
        h = 1e-5
        fd_u = (a.a0(pts + h) - a.a0(pts - h)) / (2 * h)
        fd_v = (a.a0(pts + 1j * h) - a.a0(pts - 1j * h)) / (2 * h)
        du, dv = pullback_defect(a, pts)
        assert np.max(np.abs(fd_u - du)) <= 1e-5
        assert np.max(np.abs(fd_v - dv)) <= 1e-5

        shift = (
            lambda z: 0.1 * np.real(z) * np.imag(z),
            lambda z: 0.1 * (np.imag(z) + 1j * np.real(z)),
        )
        assert abs(cal1(bundle).value - cal1(bundle, primitive_shift=shift).value) <= 1e-5

        conj = conjugate(rotation(0.5), boundary_shear_conjugator(0.3), 0.4)
        mus = [invariant_boundary_pair(conj, x0) for x0 in (0.0, 0.37)]
        vals = [cal1(conj, mu=m, grid=(64, 128), richardson=False).value for m in mus]
        assert abs(vals[0] - vals[1]) <= 1e-5


def test_06_rotation_number_certificate():
    with criterion(6, "rotation number: rigorous halfwidth and quasi-defect"):
        n = 1000
        for alpha in (0.1, 0.3, GOLDEN, 0.85):
            est = rotation_number(translation(alpha), n=n)
            assert abs(est.value - alpha) <= 1.0 / n
        rng = np.random.default_rng(21)
        for _ in range(20):
            a1, a2 = rng.uniform(0, 1, 2)
            b1, b2 = rng.uniform(0, 0.12, 2)
            f = sampled(lambda x: a1 + b1 * np.sin(2 * np.pi * x))
            g = sampled(lambda x: a2 + b2 * np.sin(2 * np.pi * x))
            defect = abs(
                rotation_number(composed(f, g), n=n).value
                - rotation_number(f, n=n).value
                - rotation_number(g, n=n).value
            )
            assert defect < 1.0 + 2.0 / n


def test_07_c0_discontinuity():
    with criterion(7, "invariant pinned at 2/pi while d0 -> 0 (bump family)"):
        res = exp_c0_discontinuity([2, 4, 8, 16, 32])
        target = 2.0 / np.pi
        d0s = []
        for row in res.rows:
            assert abs(row["cal3"] - target) <= 1e-3
            assert row["d0"] <= 2.0 / row["n"] + 1e-9
            d0s.append(row["d0"])
        assert d0s == sorted(d0s, reverse=True)
        assert res.passed


def test_08_near_identity_bounds():
    with criterion(8, "near-identity winding bounds for scaled twists"):
        rng = np.random.default_rng(31)
        for tau in (0.05, 0.02, 0.01):
            bundle = quadratic_twist(0.3 * tau)  # tau times the base generator
            eps = sup_distance_to_identity(bundle, order=1)
            assert eps <= 0.5
            res = cal2_tilde(bundle, PairSampler(n=4000, seed=33))
            assert abs(res.value) <= np.sqrt(2 * eps) / np.pi + 3 * res.stderr
            x, y = uniform_disk_points(1000, rng), uniform_disk_points(1000, rng)
            keep = np.abs(x - y) > 1e-6
            w, _ = chord_windings(bundle, x[keep], y[keep])
            assert np.max(np.abs(np.cos(2 * np.pi * w) - 1.0)) <= 2 * eps


def test_09_rigidity_experiment():
    with criterion(9, "iterate rigidity along golden-ratio denominators"):
        start = time.time()
        res = exp_rigidity(GOLDEN, depth=12, tau=0.5, q_max=144, far_pairs=1000, seed=3)
        assert [r["q"] for r in res.rows] == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
        # the far-pair lemma bound applies on stages with eps <= 1/16, which
        # the conjugation distortion first allows at q = 89
        assert all(r["lemma_applies"] for r in res.rows if r["q"] >= 89)
        for row in res.rows:
            if row["lemma_applies"]:
                assert row["k_consistent"]
                assert row["ang_dev_max"] <= 2.0 * row["eps_d0"] ** 0.25 / np.pi
            assert row["kq_residual"] <= row["kq_bound"]
        # stronger unconditional single-k consistency from q = 3 on
        assert all(r["k_consistent"] for r in res.rows if r["q"] >= 3)
        assert [r["k"] for r in res.rows if r["q"] >= 3] == [2, 3, 5, 8, 13, 21, 34, 55, 89]
        assert abs(res.meta["cal1_base"]) <= 1e-4
        assert res.passed
        assert time.time() - start <= 600.0


def test_10_continued_fractions():
    with criterion(10, "continued fractions: Fibonacci, two-sided bounds, labels"):
        cf = continued_fraction(GOLDEN, 26)
        fib = [1, 1]
        while len(fib) < 26:
            fib.append(fib[-1] + fib[-2])
        assert cf.q[:26] == fib[:26]
        checks = best_approx_check(cf, GOLDEN)
        decided = [c for c in checks if c is not None]
        assert decided and all(decided)
        assert "non-bruno-like" in classify(synthetic_non_bruno(8)).labels


def test_11_determinism(tmp_path):
    with criterion(11, "byte-identical reports for fixed seed and workers"):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "map": {"family": "quadratic_twist", "beta": 0.3},
                    "compute": ["verify-link"],
                    "budgets": {"pairs": 2000, "seed": 11, "grid": [64, 128],
                                "rho_iterates": 2000},
                }
            )
        )
        blobs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(["--out", str(out), "--workers", "2", "compute", "--config", str(cfg)]) == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]
