import json

import numpy as np
import pytest

import diskcal.calabi
import diskcal.circle
import diskcal.experiments
from diskcal.calabi import cal1
from diskcal.cli import main
from diskcal.circle import invariant_measure
from diskcal.errors import QMaxExceeded, ScaleTooLarge
from diskcal.experiments import (
    exp_c0_discontinuity,
    exp_c1_continuity,
    exp_rigidity,
    sup_distance_to_identity,
)
from diskcal.flow import FieldIsotopy
from diskcal.zoo import (
    boundary_shear_conjugator,
    bump,
    compose,
    conjugated_rotation,
    iterate,
    off_center_conjugator,
    quadratic_twist,
    radial_twist,
    rotation,
)

GOLDEN = 0.6180339887498949


class TestSupDistance:
    def test_identity_is_at_zero(self):
        assert sup_distance_to_identity(rotation(0.0), order=1, grid=(32, 32), include_lift=True) < 1e-12

    def test_rotation_d0_matches_chord_formula(self):
        alpha = 0.1
        d0 = sup_distance_to_identity(rotation(alpha), order=0, grid=(64, 64))
        assert d0 == pytest.approx(2.0 * np.sin(np.pi * alpha), abs=1e-3)

    @staticmethod
    def _two_flow_reference(bundle, order, grid):
        # the sup over the flows of the map and of its inverse on one sample set
        nr, nt = grid
        radii = (np.arange(nr) + 0.5) / nr
        angles = np.exp(2j * np.pi * (np.arange(nt) + 0.5) / nt)
        circle = np.exp(2j * np.pi * np.arange(512) / 512)
        pts = np.concatenate([(radii[:, None] * angles[None, :]).ravel(), circle])
        inv = bundle.inverse()
        if order == 0:
            return max(float(np.max(np.abs(iso.flow(1.0, pts) - pts))) for iso in (bundle, inv))
        sups = []
        for iso in (bundle, inv):
            f, p, q = iso.flow_wirtinger(1.0, pts)
            sups += [float(np.max(np.abs(f - pts))), float(np.max(np.abs(p - 1.0) + np.abs(q)))]
        return max(sups)

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("make", [
        lambda: conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5),
        lambda: conjugated_rotation(GOLDEN, boundary_shear_conjugator(0.3), 0.5),
        lambda: iterate(conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5), 5),
        lambda: bump(4),
        lambda: quadratic_twist(0.3),
    ], ids=["offcenter", "shear", "offcenter_fifth_iterate", "bump4", "twist"])
    def test_one_flow_matches_the_map_and_its_inverse(self, make, order):
        # sup |f^-1(p) - p| = sup |f(x) - x|, and the inverse's Wirtinger pair
        # at f(x) is (conj(p), -q): both sups come from the flow of f alone
        bundle = make()
        ref = self._two_flow_reference(bundle, order, (64, 64))
        one = sup_distance_to_identity(bundle, order=order, grid=(64, 64))
        assert abs(one - ref) <= 1e-12 * ref

    def test_lift_term_counts_whole_turns(self):
        # the map of a full turn is the identity, its lift is the +1 translation
        plain = sup_distance_to_identity(rotation(1.0), order=0, grid=(32, 32))
        lifted = sup_distance_to_identity(rotation(1.0), order=0, grid=(32, 32), include_lift=True)
        assert plain < 1e-9
        assert lifted == pytest.approx(1.0, abs=1e-9)


class TestC1Continuity:
    def test_small_scales_pass(self):
        res = exp_c1_continuity([0.02, 0.01, 0.0], pairs=1500, seed=5)
        assert res.passed
        # invariant scales linearly with the generator
        cal3s = {r["tau"]: r["cal3"] for r in res.rows}
        assert cal3s[0.02] == pytest.approx(2 * cal3s[0.01], abs=1e-9)

    def test_large_scale_rejected(self):
        with pytest.raises(ScaleTooLarge):
            exp_c1_continuity([2.0], pairs=100)

    def test_csv_round_trip(self, tmp_path):
        # the experiment CSV is written by the CLI's one CSV writer
        cfg = tmp_path / "c1.json"
        cfg.write_text(json.dumps({"experiment": {"scales": [0.01], "pairs": 500, "seed": 5}}))
        assert main(["--out", str(tmp_path), "experiment", "c1-continuity", "--config", str(cfg)]) == 0
        columns = json.loads((tmp_path / "c1-continuity.json").read_text())["columns"]
        text = (tmp_path / "c1-continuity.csv").read_text()
        assert text.splitlines()[0] == ",".join(columns)
        assert len(text.splitlines()) == 2


class TestC0Discontinuity:
    def test_invariant_pinned_while_d0_shrinks(self):
        res = exp_c0_discontinuity([2, 4, 8])
        assert res.passed
        cals = [r["cal3"] for r in res.rows]
        assert max(abs(c - 2.0 / np.pi) for c in cals) < 1e-9
        d0s = [r["d0"] for r in res.rows]
        assert d0s == sorted(d0s, reverse=True)

    def test_single_row_degenerate(self):
        res = exp_c0_discontinuity([4])
        assert len(res.rows) == 1 and res.rows[0]["pass"]


@pytest.mark.parametrize("run", [exp_c1_continuity, exp_c0_discontinuity], ids=["c1", "c0"])
def test_an_empty_table_is_refused(run):
    # every table has a first row to name its columns
    with pytest.raises(ValueError):
        run([])


class TestRigidity:
    def test_small_depth_run(self):
        res = exp_rigidity(GOLDEN, depth=7, tau=0.4, q_max=5, far_pairs=200, seed=3)
        assert res.passed
        qs = [r["q"] for r in res.rows]
        assert qs == [1, 2, 3, 5]
        # d0 decreases along the denominator subsequence
        eps = [r["eps_d0"] for r in res.rows]
        assert eps[-1] < eps[0]
        # the winding integers track the convergent numerators
        assert [r["k"] for r in res.rows][-2:] == [2, 3]
        assert abs(res.meta["cal1_base"]) < 1e-4

    @pytest.fixture(scope="class")
    def counted_run(self):
        """One run at q <= 2, counting the field isotopies built, the lifts
        and orbit walks made and the calls of cal1, with the base map's
        ``h^-1`` memo traffic (its conjugator pair's ``cache_info()``)."""
        counts = {"isotopies": 0, "lifts": 0, "walks": 0, "cal1": 0}
        bases = []

        def recording(*args, **kwargs):
            bases.append(conjugated_rotation(*args, **kwargs))
            return bases[-1]

        def counting(fn, key):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FieldIsotopy, "__init__", counting(FieldIsotopy.__init__, "isotopies"))
            mp.setattr(diskcal.circle, "lift_from_isotopy", counting(diskcal.circle.lift_from_isotopy, "lifts"))
            walk = counting(invariant_measure, "walks")
            mp.setattr(diskcal.experiments, "invariant_measure", walk)
            mp.setattr(diskcal.calabi, "invariant_measure", walk)
            mp.setattr(diskcal.experiments, "cal1", counting(cal1, "cal1"))
            mp.setattr(diskcal.experiments, "conjugated_rotation", recording)
            res = exp_rigidity(GOLDEN, depth=10, tau=0.5, q_max=2, far_pairs=50, seed=3)
        assert [r["q"] for r in res.rows] == [1, 2]
        (base,) = bases
        counts["memo"] = base.pair.cache_info()
        return res, counts

    def test_iterates_reuse_the_inverse_images(self, counted_run):
        # the q = 2 iterate maps four point sets through h^-1 that the base map
        # mapped already (the d0 grid, the area probes with the frame, mu's
        # atoms with the theta nodes, cal1's nodes with their directions); the
        # lift samples and each iterate's far pairs are fresh
        memo = counted_run[1]["memo"]
        assert (memo.hits, memo.misses) == (4, 9)

    def test_iterates_share_the_conjugator(self, counted_run):
        # h and h^-1 of the base map serve every iterate and its inverse
        assert counted_run[1]["isotopies"] == 2

    def test_one_lift_and_one_measure_per_run(self, counted_run):
        # the base map's lift gives rho and mu; every iterate's cal1 reuses mu
        assert counted_run[1]["lifts"] == 1 and counted_run[1]["walks"] == 1

    def test_q1_row_reuses_the_base_maps_cal1(self, counted_run):
        # denominators start at q = 1, whose iterate is the base map itself:
        # one cal1 per row, the base map's serving the q = 1 row
        res, counts = counted_run
        assert counts["cal1"] == len(res.rows)
        # what a cal1 of the q = 1 iterate itself gives, bit for bit
        conj = off_center_conjugator(0.5)
        base = conjugated_rotation(GOLDEN, conj, 0.5)
        mu = invariant_measure(base.boundary_lift())
        own = cal1(iterate(base, 1), mu=mu, grid=(64, 128), richardson=False)
        assert res.rows[0]["cal1_iter"] == own.value == res.meta["cal1_base"]
        assert res.rows[0]["cal1_drift"] == 0.0

    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_shared_measure_matches_each_iterates_own(self, q):
        # mu of the base map is invariant under its iterates, and c_mu is the
        # same for every invariant measure
        conj = off_center_conjugator(0.5)
        base = conjugated_rotation(GOLDEN, conj, 0.5)
        mu = invariant_measure(base.boundary_lift())
        it = iterate(base, q)
        shared = cal1(it, mu=mu, grid=(32, 64), richardson=False)
        own = cal1(it, grid=(32, 64), richardson=False)
        assert abs(shared.value - own.value) <= 1e-12
        assert abs(shared.c_mu - own.c_mu) <= 1e-12

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 21: a row passes when the lemma does not "
                       "apply, so a map that is not rigid passes")
    def test_a_twisted_rotation_does_not_pass(self, monkeypatch):
        # R_alpha after a twist that fixes S^1 with zero Calabi invariant: cal3
        # = rho = alpha and cal1 = 0 as for a rigid map, but f^q is the rotation
        # by q alpha after a twist q times as strong, so no iterate nears the
        # identity (eps_d0 reads 1.35 to 1.96 on every row)
        twisted = compose(rotation(GOLDEN), radial_twist(0.3 * np.array([1.0, -6.0, 9.0, -4.0])))
        monkeypatch.setattr(diskcal.experiments, "conjugated_rotation", lambda *args, **kwargs: twisted)
        res = exp_rigidity(GOLDEN, depth=12, q_max=13, far_pairs=1000, seed=3)
        assert not res.passed

    def test_budget_exhausted_raises(self):
        with pytest.raises(QMaxExceeded):
            exp_rigidity(GOLDEN, depth=6, q_max=0)

    def test_plain_rotation_rows_exact(self):
        res = exp_rigidity(GOLDEN, depth=6, tau=0.0, q_max=3, far_pairs=100, seed=1)
        assert res.passed
        for row in res.rows:
            assert abs(row["cal1_iter"]) < 1e-9
