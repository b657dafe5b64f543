import dataclasses
import json

import numpy as np
import pytest

import diskcal.calabi
import diskcal.circle
import diskcal.experiments
from diskcal.calabi import cal1, cal2_tilde
from diskcal.cli import main
from diskcal.circle import invariant_measure
from diskcal.errors import QMaxExceeded, ScaleTooLarge
from diskcal.experiments import (
    D_BOUNDARY,
    D_GRID,
    RIGIDITY_CAL_BUDGET,
    RIGIDITY_D_GRID,
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
        assert sup_distance_to_identity(rotation(0.0), order=1, grid=(32, 32)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_rotation_d0_matches_chord_formula(self, alpha):
        # the chord 2 sin(pi alpha) is reached on S^1, which is sampled; the
        # half turn moves every point of S^1 to its antipode, d0 = 2
        d0 = sup_distance_to_identity(rotation(alpha), order=0, grid=(64, 64))
        assert d0 == pytest.approx(2.0 * np.sin(np.pi * alpha), abs=1e-12)

    @staticmethod
    def _grid_points(grid):
        # the sample set in the grid's own order: rings outward, then S^1
        nr, nt = grid
        radii = (np.arange(nr) + 0.5) / nr
        angles = np.exp(2j * np.pi * (np.arange(nt) + 0.5) / nt)
        circle = np.exp(2j * np.pi * np.arange(512) / 512)
        return np.concatenate([(radii[:, None] * angles[None, :]).ravel(), circle])

    @classmethod
    def _two_flow_reference(cls, bundle, order, grid):
        # the sup over the flows of the map and of its inverse on one sample
        # set; d1 also takes the sup of the boundary lift's displacement
        pts = cls._grid_points(grid)
        inv = bundle.inverse()
        if order == 0:
            return max(float(np.max(np.abs(iso.flow(1.0, pts) - pts))) for iso in (bundle, inv))
        sups = [float(np.max(np.abs(bundle.boundary_lift().delta(np.arange(512) / 512))))]
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

    @pytest.mark.parametrize("make, grid", [
        (lambda: rotation(0.5), D_GRID),
        (lambda: conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5), RIGIDITY_D_GRID),
        (lambda: iterate(conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5), 2), RIGIDITY_D_GRID),
        (lambda: quadratic_twist(0.3), D_GRID),
        (lambda: quadratic_twist(0.1), D_GRID),
        (lambda: bump(4), D_GRID),
    ], ids=["rotation_half", "offcenter", "offcenter_second_iterate", "twist", "twist_weak", "bump4"])
    def test_d0_is_the_max_over_every_point(self, make, grid):
        # d0 flows its sample set one block at a time: the value is the
        # brute-force max over the whole sample set, bit for bit
        bundle = make()
        pts = self._grid_points(grid)
        brute = float(np.max(np.abs(bundle.flow(1.0, pts) - pts)))
        assert sup_distance_to_identity(bundle, order=0, grid=grid) == brute

    @pytest.mark.parametrize("make", [
        lambda: conjugated_rotation(GOLDEN, boundary_shear_conjugator(0.3), 0.5),
        lambda: radial_twist(0.04 * np.array([0.3, -0.6, 0.3])),
    ], ids=["shear", "c1_twist"])
    def test_d1_winds_its_boundary_points_and_builds_no_lift(self, monkeypatch, make):
        # the boundary term winds the D_BOUNDARY angles themselves: the bits
        # of a d1 that read them off the 4096-sample lift, whose nodes
        # include those angles, and no lift is built
        bundle = make()
        built = []
        lift_from_isotopy = diskcal.circle.lift_from_isotopy
        monkeypatch.setattr(diskcal.circle, "lift_from_isotopy",
                            lambda iso: built.append(iso) or lift_from_isotopy(iso))
        d1 = sup_distance_to_identity(bundle, order=1, grid=(32, 32))
        assert built == []
        pts = diskcal.experiments._sample_points((32, 32))
        f, p, q = bundle.flow_wirtinger(1.0, pts)
        lift = bundle.boundary_lift().delta(np.arange(D_BOUNDARY) / D_BOUNDARY)
        assert d1 == max(float(np.max(s)) for s in (np.abs(f - pts), np.abs(p - 1.0) + np.abs(q), np.abs(lift)))

    def test_lift_term_counts_whole_turns(self):
        # the map of a full turn is the identity, its lift is the +1 translation,
        # which the lifted d1 counts
        plain = sup_distance_to_identity(rotation(1.0), order=0, grid=(32, 32))
        lifted = sup_distance_to_identity(rotation(1.0), order=1, grid=(32, 32))
        assert plain < 1e-9
        assert lifted == pytest.approx(1.0, abs=1e-9)


class TestC1Continuity:
    def test_small_scales_pass(self):
        res = exp_c1_continuity([0.02, 0.01, 0.0], pairs=1500, seed=5)
        assert res.passed
        # invariant scales linearly with the generator
        cal3s = {r["tau"]: r["cal3"] for r in res.rows}
        assert cal3s[0.02] == pytest.approx(2 * cal3s[0.01], abs=1e-9)

    def test_a_shifted_cal2_fails_every_row(self, monkeypatch):
        # negative control: cal2 one turn off is far outside sqrt(2 eps)/pi
        def shifted(*args, **kwargs):
            out = cal2_tilde(*args, **kwargs)
            return dataclasses.replace(out, value=out.value + 1.0)

        monkeypatch.setattr(diskcal.experiments, "cal2_tilde", shifted)
        res = exp_c1_continuity([0.02, 0.01], pairs=1500, seed=5)
        assert [r["pass"] for r in res.rows] == [False, False] and not res.passed

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
        # a repeated n is one row, not a d0 column that fails to decrease
        repeated = exp_c0_discontinuity([4, 4])
        assert repeated.rows == res.rows and repeated.passed

    def test_a_d0_above_its_bound_fails_only_its_row(self, monkeypatch):
        # negative control: d0(bump(4)) = 2/4 + 1e-6 keeps the column decreasing
        d0 = diskcal.experiments.sup_distance_to_identity
        monkeypatch.setattr(diskcal.experiments, "sup_distance_to_identity",
                            lambda b, **k: 0.5 + 1e-6 if b.name == bump(4).name else d0(b, **k))
        res = exp_c0_discontinuity([2, 4, 8])
        assert [r["pass"] for r in res.rows] == [True, False, True]
        assert res.meta["d0_decreasing"] and not res.passed

    def test_a_d0_column_that_rises_fails_the_table_only(self, monkeypatch):
        # negative control: every d0 within its 2/n bound, but bump(8)'s above bump(4)'s
        d0s = {bump(n).name: d0 for n, d0 in ((2, 0.9), (4, 0.2), (8, 0.24))}
        monkeypatch.setattr(diskcal.experiments, "sup_distance_to_identity", lambda b, **k: d0s[b.name])
        res = exp_c0_discontinuity([2, 4, 8])
        assert all(r["pass"] for r in res.rows)
        assert not res.meta["d0_decreasing"] and not res.passed

    @pytest.mark.parametrize("ns", [(8, 4), (4, 8, 4)], ids=["descending", "repeated"])
    def test_rows_do_not_depend_on_the_order_of_ns(self, ns):
        # each distinct n once, in increasing order: the same rows and PASS as (4, 8)
        res = exp_c0_discontinuity(ns)
        want = exp_c0_discontinuity((4, 8))
        assert res.rows == want.rows and res.meta == want.meta
        assert [r["n"] for r in res.rows] == [4, 8] and res.passed


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

    def test_iterates_reuse_the_tangent_pushes(self, counted_run):
        # the q = 2 iterate pushes the two tangent sets of the base map through
        # h^-1 again (the area probes with the frame, cal1's nodes with their
        # directions); positions flow h^-1 directly and never reach the memo
        memo = counted_run[1]["memo"]
        assert (memo.hits, memo.misses) == (2, 2)

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
        # identity (eps_d0 reads 1.35 to 1.96 on every row).  No h conjugates
        # it to a rotation, so each iterate's d0 is measured directly, and the
        # run takes tau = 0, which asks for no conjugator
        twisted = compose(rotation(GOLDEN), radial_twist(0.3 * np.array([1.0, -6.0, 9.0, -4.0])))
        qs = [1, 2, 3, 5, 8, 13]
        monkeypatch.setattr(diskcal.experiments, "conjugated_rotation", lambda *args, **kwargs: twisted)
        monkeypatch.setattr(diskcal.experiments, "_rotation_d0s", lambda h, thetas, grid: [
            sup_distance_to_identity(iterate(twisted, q), grid=grid) for q in qs])
        res = exp_rigidity(GOLDEN, depth=12, tau=0.0, q_max=13, far_pairs=1000, seed=3)
        assert not res.passed

    # negative controls: one fault injected into the CI config (q <= 2) fails
    # the row checks that read it, and only those
    @staticmethod
    def _control_run():
        return exp_rigidity(GOLDEN, depth=10, tau=0.5, q_max=2, far_pairs=1000, seed=3)

    @staticmethod
    def _checks(row):
        return {"lemma": row["lemma_ok"], "kq": row["kq_residual"] <= row["kq_bound"],
                "drift": row["cal1_drift"] <= row["drift_budget"]}

    def _failing(self, res):
        """q -> the names of the checks its row fails, for each row that fails."""
        for row in res.rows:
            assert row["pass"] == all(self._checks(row).values())
        assert res.passed == all(r["pass"] for r in res.rows)
        return {r["q"]: sorted(k for k, ok in self._checks(r).items() if not ok)
                for r in res.rows if not r["pass"]}

    @pytest.mark.parametrize("eps, applies", [(0.06, True), (0.07, False)])
    def test_the_lemma_applies_below_one_sixteenth(self, monkeypatch, eps, applies):
        # far pairs at separation sqrt(eps) wind apart by up to 0.93 turns,
        # beyond the lemma's 2 eps^(1/4)/pi once it applies
        monkeypatch.setattr(diskcal.experiments, "_rotation_d0s", lambda h, thetas, grid: [eps] * len(thetas))
        res = self._control_run()
        assert [r["lemma_applies"] for r in res.rows] == [applies, applies]
        assert self._failing(res) == ({1: ["lemma"], 2: ["lemma"]} if applies else {})

    def test_a_shifted_rho_fails_only_the_kq_checks(self, monkeypatch):
        rho = diskcal.experiments.rotation_number

        def shifted(*args, **kwargs):
            est = rho(*args, **kwargs)
            return dataclasses.replace(est, value=est.value + 3.0)

        monkeypatch.setattr(diskcal.experiments, "rotation_number", shifted)
        assert self._failing(self._control_run()) == {1: ["kq"], 2: ["kq"]}

    def test_a_shifted_iterate_cal1_fails_only_its_drift(self, monkeypatch):
        def shifted(bundle, **kwargs):
            out = cal1(bundle, **kwargs)
            return dataclasses.replace(out, value=out.value + 1e-2) if bundle.name.endswith("^2") else out

        monkeypatch.setattr(diskcal.experiments, "cal1", shifted)
        assert self._failing(self._control_run()) == {2: ["drift"]}

    def test_a_base_cal1_off_zero_fails_the_table_only(self, monkeypatch):
        # every cal1 shifted by 0.01 q keeps each row's drift and moves the
        # base map's cal1 beyond RIGIDITY_CAL_BUDGET
        def shifted(bundle, **kwargs):
            out = cal1(bundle, **kwargs)
            return dataclasses.replace(out, value=out.value + (0.02 if bundle.name.endswith("^2") else 0.01))

        monkeypatch.setattr(diskcal.experiments, "cal1", shifted)
        res = self._control_run()
        assert all(r["pass"] for r in res.rows)
        assert abs(res.meta["cal1_base"]) > RIGIDITY_CAL_BUDGET and not res.passed

    def test_budget_exhausted_raises(self):
        with pytest.raises(QMaxExceeded):
            exp_rigidity(GOLDEN, depth=6, q_max=0)

    def test_plain_rotation_rows_exact(self):
        # at tau = 0 the base map is the rotation itself and h = id: the
        # shifted rings are the rotated samples, so each d0 is the rotation's
        res = exp_rigidity(GOLDEN, depth=6, tau=0.0, q_max=3, far_pairs=100, seed=1)
        assert res.passed
        for row in res.rows:
            assert abs(row["cal1_iter"]) < 1e-9
            direct = sup_distance_to_identity(rotation(row["q"] * GOLDEN), order=0, grid=RIGIDITY_D_GRID)
            assert abs(row["eps_d0"] - direct) <= 1e-14

    def test_deeper_rows_reach_the_lemma(self, monkeypatch):
        # d0 by shift costs a few FFTs a row, so q <= 987 runs in tier-1: the
        # lemma applies from q = 89 on, and k is the Fibonacci numerator.  The
        # 14 iterates after the base map push its two tangent sets through
        # the shared h^-1 memo, and every push hits
        bases = []
        monkeypatch.setattr(diskcal.experiments, "conjugated_rotation",
                            lambda *a, **k: bases.append(conjugated_rotation(*a, **k)) or bases[-1])
        res = exp_rigidity(GOLDEN, depth=16, q_max=987, far_pairs=1000, seed=3)
        (base,) = bases
        memo = base.pair.cache_info()
        assert (memo.hits, memo.misses) == (28, 2)
        qs = [r["q"] for r in res.rows]
        assert qs == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987]
        assert res.passed and all(r["pass"] for r in res.rows)
        assert [r["q"] for r in res.rows if r["lemma_applies"]] == qs[9:]
        assert [r["k"] for r in res.rows if r["q"] >= 3] == qs[1:-1]


class TestRotationD0s:
    """d0 of ``h R_theta h^-1`` from one flow of h, shifted on each ring."""

    @pytest.mark.parametrize("q", [1, 13, 144])
    @pytest.mark.parametrize("make", [
        lambda: conjugated_rotation(GOLDEN, off_center_conjugator(0.5), 0.5).pair.h,
        lambda: compose(quadratic_twist(0.3), FieldIsotopy(off_center_conjugator(0.5), 0.5)),
    ], ids=["offcenter", "twisted_offcenter"])
    def test_shift_matches_h_flowed_at_the_rotated_points(self, make, q):
        # the max over w of |h(R_theta w) - h(w)| with h flowed at R_theta w
        # itself: the shifted rings agree with it to rounding.  The off-center
        # h commutes with z -> -conj(z) and is reversed by z -> conj(z), and
        # the sample set is symmetric under both, so its d0 at -theta is the
        # same max; after a twist that max moves by 1.7e-6 to 2.3e-5, so a
        # shift the wrong way fails
        h = make()
        theta = q * GOLDEN % 1.0
        w = diskcal.experiments._sample_points(RIGIDITY_D_GRID)
        direct = float(np.max(np.abs(h.flow(1.0, np.exp(2j * np.pi * theta) * w) - h.flow(1.0, w))))
        (d0,) = diskcal.experiments._rotation_d0s(h, [theta], RIGIDITY_D_GRID)
        assert abs(d0 - direct) <= 1e-13
