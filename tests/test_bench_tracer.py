"""The benchmark tracer attaches to diskcal by rebinding names; each must exist."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import diskcal.calabi
import diskcal.experiments
from diskcal.circle import LiftedCircleMap
from diskcal.zoo import quadratic_twist

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
GOLDEN = 0.6180339887498949


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_counts_and_uninstall_restores():
    # install() looks every name up in its owner's own __dict__ (a module, or
    # a class for trajectory and flow_wirtinger), so a missing one raises here
    t = _tracer_module().Tracer()
    try:
        t.install()
        originals = list(t._patches)
        assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
        pts = np.array([0.3 + 0.1j, -0.5j])
        quadratic_twist(0.3).trajectory(pts, np.linspace(0.0, 1.0, 5))
        assert t.take_counts()["flow.trajectory_samples.radial"] == 10
    finally:
        t.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)


def test_rho_iterates_counts_the_iterates_used():
    # the tracer adds each estimate's iterates_used to circle.rho_iterates; a
    # rigid lift is enclosed by its displacement range, one iterate
    t = _tracer_module().Tracer()
    try:
        t.install()
        diskcal.calabi.rotation_number(LiftedCircleMap(grid_values=np.full(64, 0.25)))
        assert t.take_counts()["circle.rho_iterates"] == 1
    finally:
        t.uninstall()


@pytest.fixture(scope="module")
def traced_rigidity():
    # the tracer's record of the rigidity experiment at the CI config (q <= 2)
    t = _tracer_module().Tracer()
    try:
        t.install()
        diskcal.experiments.exp_rigidity(GOLDEN, depth=10, tau=0.5, q_max=2, far_pairs=50, seed=3)
        return {s[1] for s in t.spans}, t.take_counts()
    finally:
        t.uninstall()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the tracer wraps invariant_measure only where "
                   "calabi binds it, and exp_rigidity calls its own binding")
def test_rigidity_records_its_invariant_measure(traced_rigidity):
    assert "circle.invariant_measure" in traced_rigidity[0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: circle.lift_calls counts position_windings "
                   "calls, three for the one lift of the base map")
def test_rigidity_counts_one_lift(traced_rigidity):
    assert traced_rigidity[1]["circle.lift_calls"] == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: flow.wirtinger_points counts flow_wirtinger "
                   "calls only, and cal1 pushes its nodes through flow_tangent")
def test_rigidity_counts_cal1s_pushed_nodes(traced_rigidity):
    # each of the two cal1 pushes its 8,192 nodes of the (64, 128) grid
    assert traced_rigidity[1]["flow.wirtinger_points"] >= 2 * 64 * 128
