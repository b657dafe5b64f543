"""Spans and counters attached to diskcal from outside, by rebinding names.

The library imports names directly (``from .calabi import cal1``), so a span
around a layer is installed on the binding in each *calling* module, and
public methods are wrapped on their classes.  Nothing under ``src/`` is
edited: ``Tracer.install`` patches attributes and ``Patcher.uninstall``
restores them.  Spans are kept in memory and written out when the run ends.

Worker threads of ``cal2_tilde`` start with an empty span stack; a span opened
there takes the innermost open span of the main thread as its parent, which is
correct because the benchmark has a single caller.  Counters are guarded by a
lock for the same threads.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (calling module, attribute, span name) for every binding through which one
# of the workloads reaches a layer.
SPAN_BINDINGS = (
    ("diskcal.calabi", "cal1", "calabi.cal1"),
    ("diskcal.experiments", "cal1", "calabi.cal1"),
    ("diskcal.calabi", "cal2_tilde", "calabi.cal2_tilde"),
    ("diskcal.calabi", "cal3_tilde", "calabi.cal3_tilde"),
    ("diskcal.cli", "c_mu_tilde", "calabi.c_mu_tilde"),
    ("diskcal.calabi", "verify_link", "calabi.verify_link"),
    ("diskcal.cli", "verify_link", "calabi.verify_link"),
    ("diskcal.calabi", "rotation_number", "circle.rotation_number"),
    ("diskcal.experiments", "rotation_number", "circle.rotation_number"),
    ("diskcal.calabi", "invariant_measure", "circle.invariant_measure"),
    ("diskcal.calabi", "area_residual", "flow.area_residual"),
    ("diskcal.calabi", "chord_windings", "flow.chord_windings"),
    ("diskcal.experiments", "chord_windings", "flow.chord_windings"),
    ("diskcal.experiments", "sup_distance_to_identity", "experiments.sup_distance"),
    ("diskcal.experiments", "exp_rigidity", "experiments.exp_rigidity"),
    ("diskcal.cli", "cmd_compute", "cli.cmd_compute"),
    ("diskcal.cli", "from_spec", "zoo.build"),
    ("diskcal.zoo", "conjugated_rotation", "zoo.build"),
    ("diskcal.zoo", "quadratic_twist", "zoo.build"),
    ("diskcal.zoo", "bump", "zoo.build"),
    ("diskcal.experiments", "conjugated_rotation", "zoo.build"),
)

# Root span of one timed pass; its self time is the untraced remainder.
PASS_SPAN = "pass"

# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "calabi.cal1": "calabi.cal1_s",
    "calabi.cal2_tilde": "calabi.cal2_tilde_s",
    "calabi.cal3_tilde": "calabi.cal3_tilde_s",
    "calabi.c_mu_tilde": "calabi.c_mu_tilde_s",
    "calabi.verify_link": "calabi.verify_link.self_s",
    "circle.rotation_number": "circle.rotation_number_s",
    "circle.invariant_measure": "circle.invariant_measure_s",
    "circle.boundary_lift": "circle.boundary_lift_s",
    "flow.area_residual": "flow.area_residual_s",
    "flow.chord_windings": "flow.chord_windings_s",
    "experiments.sup_distance": "experiments.sup_distance_s",
    "experiments.exp_rigidity": "experiments.exp_rigidity.self_s",
    "cli.cmd_compute": "cli.cmd_compute.self_s",
    "zoo.build": "zoo.build_s",
    PASS_SPAN: "trace.untraced_s",
}

COUNT_METRICS = (
    "flow.wirtinger_points",
    "flow.trajectory_samples.field",
    "flow.trajectory_samples.radial",
    "flow.trajectory_samples.concat",
    "flow.trajectory_samples.conjugated",
    "flow.field_isotopies",
    "flow.field_steps_total",
    "fields.grad_points",
    "fields.wirt_points",
    "circle.lift_calls",
    "circle.rho_iterates",
    "calabi.cal2_pairs",
    "calabi.cal2_retried",
    "calabi.cal2_resampled",
    "experiments.iterates",
)

TRAJECTORY_CLASSES = (
    ("FieldIsotopy", "field"),
    ("RadialIsotopy", "radial"),
    ("ConcatIsotopy", "concat"),
    ("ConjugatedIsotopy", "conjugated"),
)


def _points(args, kwargs) -> int:
    """Points of a ``method(self, t, z)`` call."""
    return np.size(args[2])


class Patcher:
    """Rebinds attributes of diskcal modules and classes, and restores them."""

    def __init__(self):
        self._patches = []

    def patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Tracer(Patcher):
    """In-memory recorder of spans ``[id, name, parent, start, end]`` and counters."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._next_id = 0

    # recording ------------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        record = [sid, name, parent, time.perf_counter(), None]
        stack.append(sid)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, n) -> None:
        with self._lock:
            self.counts[name] += int(n)

    def take_counts(self) -> dict:
        """Counters since the last call, every name of COUNT_METRICS present."""
        with self._lock:
            out = {name: int(self.counts.get(name, 0)) for name in COUNT_METRICS}
            self.counts.clear()
        return out

    # installation ---------------------------------------------------------

    def _span_wrapper(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _count_wrapper(self, fn, name, size, outermost=False):
        """Adds ``size(args)`` to counter ``name`` per call.

        ``outermost`` counts only calls not nested in another call counted
        under the same name on this thread: a scaled or time-reversed field
        evaluates its base field's gradient, which is the same points again.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not outermost:
                self.count(name, size(args, kwargs))
                return fn(*args, **kwargs)
            depths = self._local.__dict__.setdefault("depths", defaultdict(int))
            if depths[name] == 0:
                self.count(name, size(args, kwargs))
            depths[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depths[name] -= 1

        return wrapper

    def install(self) -> None:
        """Wrap every layer binding and method; ``uninstall`` undoes it."""
        mod = importlib.import_module
        after = {
            "circle.rotation_number": lambda out: self.count("circle.rho_iterates", out.iterates_used),
            "experiments.exp_rigidity": lambda out: self.count("experiments.iterates", len(out.rows)),
            "calabi.cal2_tilde": self._count_cal2,
        }
        for module, attr, name in SPAN_BINDINGS:
            owner = mod(module)
            self.patch(owner, attr, self._span_wrapper(owner.__dict__[attr], name, after.get(name)))

        flow = mod("diskcal.flow")
        self.patch(flow.MapBundle, "boundary_lift",
                   self._span_wrapper(flow.MapBundle.boundary_lift, "circle.boundary_lift"))
        circle = mod("diskcal.circle")
        self.patch(circle, "position_windings",
                   self._count_wrapper(circle.position_windings, "circle.lift_calls", lambda a, k: 1))

        for cls_name, label in TRAJECTORY_CLASSES:
            cls = getattr(flow, cls_name)
            self.patch(cls, "trajectory", self._count_wrapper(
                cls.trajectory, f"flow.trajectory_samples.{label}",
                lambda a, k: np.size(a[1]) * np.size(a[2])))  # (self, z, times)
            self.patch(cls, "flow_wirtinger", self._count_wrapper(
                cls.flow_wirtinger, "flow.wirtinger_points", _points))

        field_init = flow.FieldIsotopy.__init__

        @functools.wraps(field_init)
        def counted_init(iso, *args, **kwargs):
            field_init(iso, *args, **kwargs)
            self.count("flow.field_isotopies", 1)
            self.count("flow.field_steps_total", iso.n_steps)

        self.patch(flow.FieldIsotopy, "__init__", counted_init)

        field_cls = mod("diskcal.fields").HamiltonianField
        self.patch(field_cls, "gradient", self._count_wrapper(
            field_cls.gradient, "fields.grad_points", _points, outermost=True))
        self.patch(field_cls, "vector_wirtinger", self._count_wrapper(
            field_cls.vector_wirtinger, "fields.wirt_points", _points, outermost=True))

    def _count_cal2(self, out) -> None:
        self.count("calabi.cal2_pairs", out.n_pairs)
        self.count("calabi.cal2_retried", out.retried)
        self.count("calabi.cal2_resampled", out.resampled)


def self_times(spans) -> dict:
    """Wall time attributed to each span name, partitioning the traced time.

    At every instant the time goes to the innermost open spans (those with no
    open child); when worker threads run several at once the instant is split
    equally among them, so the self times of all names sum to the covered
    wall time.  Time inside a pass span but outside every layer span lands on
    the pass span itself: the untraced remainder.
    """
    spans = [s for s in spans if s[4] > s[3]]
    bounds = sorted({t for s in spans for t in (s[3], s[4])})
    starts = sorted(spans, key=lambda s: s[3])
    out = defaultdict(float)
    active = {}
    i = 0
    for a, b in zip(bounds[:-1], bounds[1:]):
        while i < len(starts) and starts[i][3] <= a:
            active[starts[i][0]] = starts[i]
            i += 1
        for sid in [sid for sid, s in active.items() if s[4] <= a]:
            del active[sid]
        if not active:
            continue
        parents = {s[2] for s in active.values()}
        leaves = [s for sid, s in active.items() if sid not in parents]
        share = (b - a) / len(leaves)
        for s in leaves:
            out[s[1]] += share
    return dict(out)


def spans_outside_pass(spans) -> list:
    """Spans with no pass span among their ancestors.

    Self times partition the time the spans cover, so the layer self times
    plus the pass spans' own remainder sum to the pass time exactly when
    every span lies inside a pass; this lists the spans for which it fails.
    """
    by_id = {s[0]: s for s in spans}
    outside = []
    for s in spans:
        node = s
        while node is not None and node[1] != PASS_SPAN:
            node = by_id.get(node[2])
        if node is None:
            outside.append(s)
    return outside
