"""The benchmark tracer attaches to diskcal by rebinding names; each must exist."""

import importlib.util
from pathlib import Path

import numpy as np

import diskcal.calabi
from diskcal.circle import LiftedCircleMap
from diskcal.zoo import quadratic_twist

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
