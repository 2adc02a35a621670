"""Span tracing of hermsem's layers, installed from outside the package.

:func:`installed` replaces each traced public function or method with a
wrapper that records a span (name, parent and clock readings) in a
:class:`Tracer`.  A module-level function is replaced at every import
site, that is in every ``hermsem`` module whose namespace holds it, so a
call through ``from .basis import hermite_matrix`` is traced as well as a
call through ``hermsem.basis``.  Work counters are computed in the
wrappers from the call's arguments and return value only.  Spans stay in
memory until :meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Spans of one traced run, kept in memory.

    Each span has four clock readings: ``enter`` and ``leave`` when its
    wrapper is entered and left, and ``start`` and ``end`` right around the
    call of the traced function.  A span's duration is ``end - start``.
    What the wrapper does outside that (bookkeeping and counter hooks) lies
    in ``enter..leave``; that whole interval is taken out of the parent's
    self time, and so is the calibrated cost of entering and leaving the
    wrapper (:func:`call_excess`), so tracing cost is charged to no layer.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.parent = array("l")
        self.enter = array("d")
        self.start = array("d")
        self.end = array("d")
        self.leave = array("d")
        self.stack: list[int] = []
        self.exceptions = 0
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.hermite_points: list[np.ndarray] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` update
        the counters; they run outside the span's own interval.
        """
        nid = self._name_id(name)
        span_name, parent, stack = self.span_name, self.parent, self.stack
        enter, start, end, leave = self.enter, self.start, self.end, self.leave
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entered = clock()
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            enter.append(entered)
            start.append(0.0)
            end.append(0.0)
            leave.append(0.0)
            stack.append(i)
            if before is not None:
                before(args, kwargs)
            start[i] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                stack.pop()
                self.exceptions += 1
                leave[i] = clock()
                raise
            end[i] = clock()
            stack.pop()
            if after is not None:
                after(args, kwargs, out)
            leave[i] = clock()
            return out

        traced.__wrapped__ = fn
        return traced

    def _arrays(self):
        names, parent = np.array(self.span_name), np.array(self.parent)
        dur = np.array(self.end) - np.array(self.start)
        wrapped = np.array(self.leave) - np.array(self.enter)
        return names, parent, dur, wrapped

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (summed self time in s, number of calls).

        Self time is a span's duration minus, for each child span, its
        wrapper interval (``enter..leave``) and :func:`call_excess`; on one
        thread children never overlap, so that difference is the part of
        the interval that no child and no tracer bookkeeping covers.
        """
        if not self.span_name:
            return {}, {}
        names, parent, dur, wrapped = self._arrays()
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=wrapped[nested] + call_excess(), minlength=len(dur)
        )
        own = np.bincount(names, weights=dur - children, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return (
            {n: float(own[i]) for i, n in enumerate(self.names)},
            {n: int(calls[i]) for i, n in enumerate(self.names)},
        )

    def wrapper_seconds(self) -> float:
        """Time spent in the wrappers outside the traced calls, in s."""
        if not self.span_name:
            return 0.0
        _, _, dur, wrapped = self._arrays()
        return float(np.sum(wrapped - dur)) + call_excess() * len(dur)

    def unique_hermite_fraction(self) -> float:
        if not self.hermite_points:
            return 0.0
        pts = np.concatenate(self.hermite_points)
        return float(np.unique(pts).size / pts.size)

    def save(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.asarray(self.span_name),
            parent=np.asarray(self.parent),
            enter=np.asarray(self.enter),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            leave=np.asarray(self.leave),
        )


@functools.cache
def call_excess(trials: int = 7, calls: int = 20000) -> float:
    """What one traced call costs its caller beyond the span's wrapper
    interval and an untraced call, in s: entering the wrapper before
    ``enter`` and leaving it after ``leave``.  Minimum over ``trials``
    loops of calls to a traced and an untraced no-op with two positional
    arguments, as in most traced calls (a method and its query)."""
    clock = time.perf_counter

    def bare(a, b):
        return None

    best = math.inf
    for _ in range(trials):
        tr = Tracer()
        traced = tr.span("noop", bare)
        t0 = clock()
        for _ in range(calls):
            bare(tr, calls)
        t1 = clock()
        for _ in range(calls):
            traced(tr, calls)
        t2 = clock()
        _, _, _, wrapped = tr._arrays()
        best = min(best, ((t2 - t1) - (t1 - t0) - float(np.sum(wrapped))) / calls)
    return max(best, 0.0)


def _targets(tr: Tracer):
    """(span name, module, attribute, before, after) of every traced callable.

    ``attribute`` is ``Class.method`` for methods.
    """
    c = tr.counts

    def points(key, pos, name):
        def before(args, kwargs):
            c[key] += np.size(_arg(args, kwargs, pos, name))
        return before

    def hermite_matrix(args, kwargs):
        x = np.asarray(_arg(args, kwargs, 0, "x"), dtype=float).ravel()
        c["basis.hermite_matrix.points"] += x.size
        c["basis.hermite_matrix.flops_computed"] += x.size * _arg(args, kwargs, 1, "n")
        tr.hermite_points.append(x.copy())

    def weighted_sum(args, kwargs):
        rows, q = np.shape(_arg(args, kwargs, 0, "pts"))
        c["basis.hermite_weighted_sum.rows"] += rows
        c["basis.hermite_weighted_sum.flops_computed"] += rows * q * _arg(args, kwargs, 2, "n")

    def query_rows(args, kwargs):
        times = _arg(args, kwargs, 4, "times")
        if times is None:  # vector_integrate's default: path times united with the partition
            path, part = _arg(args, kwargs, 2, "path"), _arg(args, kwargs, 3, "partition")
            times = np.union1d(path.times, part.times)
        c["vector_integral.vector_integrate.query_rows"] += np.size(times)

    def csv_rows(args, kwargs):
        c["csvio.emit_csv.rows"] += len(_arg(args, kwargs, 0, "rows"))

    def csv_bytes(args, kwargs, out):
        c["csvio.emit_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def history_query(args, kwargs):
        c["paths.history_queries"] += 1

    def path_rows(args, kwargs):
        c["paths.to_rows.rows"] += len(args[0].times)

    def stored_times(args, kwargs, out):
        c["paths.simulate.stored_times"] += len(out.times)

    def cells(args, kwargs, out):
        c["paths.partition.cells"] += len(out.times) - 1

    return [
        ("paths.values_at", "paths", "CadlagPath.values_at",
         points("paths.values_at.points", 1, "t"), None),
        ("paths.history_view", "paths", "HistoryView.value", history_query, None),
        ("paths.history_view", "paths", "HistoryView.left_value", history_query, None),
        ("paths.to_rows", "paths", "CadlagPath.to_rows", path_rows, None),
        ("paths.simulate", "paths", "simulate", None, stored_times),
        ("paths.partition", "paths", "dyadic_partition", None, cells),
        ("paths.partition", "paths", "jump_refined_partition", None, cells),
        ("paths.partition", "paths", "hitting_partition", None, cells),
        ("paths.stop_path", "paths", "stop_path", None, None),
        ("basis.hermite_matrix", "basis", "hermite_matrix", hermite_matrix, None),
        ("basis.hermite_weighted_sum", "basis", "hermite_weighted_sum", weighted_sum, None),
        ("dirac_ito.conv_matrix", "dirac_ito", "conv_matrix",
         points("dirac_ito.conv_matrix.rows", 1, "a_values"), None),
        ("dirac_ito.ito_residual", "dirac_ito", "ito_residual", None, None),
        ("dirac_ito.dirac_pairing", "dirac_ito", "DiracSemimartingale.pair_pointwise",
         None, None),
        ("trajectory.values_at", "trajectory", "ScalarTrajectory.values_at",
         points("trajectory.values_at.points", 1, "t"), None),
        ("scalar_integral.h_dot_z", "scalar_integral", "h_dot_z", None, None),
        ("scalar_integral.integrate_elementary", "scalar_integral",
         "integrate_elementary", None, None),
        ("scalar_integral.resolve", "scalar_integral",
         "ElementaryScalarIntegrand.resolve", None, None),
        ("scalar_integral.pair_many", "scalar_integral",
         "CylindricalSemimartingale.pair_many", None, None),
        ("metrics.r_ucp_replicas", "metrics", "r_ucp_replicas", None, None),
        ("metrics.ensemble", "metrics", "ProcessEnsemble.from_trajectories", None, None),
        ("metrics.ensemble", "metrics", "ProcessEnsemble.from_paths", None, None),
        ("diagnostics.stopping_probe", "diagnostics", "stopping_probe", None, None),
        ("diagnostics.linearity_probe", "diagnostics", "linearity_probe", None, None),
        ("diagnostics.localization_probe", "diagnostics", "localization_probe", None, None),
        ("diagnostics.continuity_probe", "diagnostics", "continuity_probe", None, None),
        ("vector_integral.vector_integrate", "vector_integral", "vector_integrate",
         query_rows, None),
        ("vector_integral.dual_sup", "vector_integral", "DistributionPath.dual_sup",
         None, None),
        ("csvio.emit_csv", "csvio", "emit_csv", csv_rows, csv_bytes),
        ("config.load", "config", "ExperimentConfig.from_file", None, None),
        ("experiments.run_experiment", "experiments", "run_experiment", None, None),
        ("cli.run", "cli", "run", None, None),
    ]


@contextlib.contextmanager
def installed(tr: Tracer):
    """Trace every target while the block runs; restore the originals after."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "hermsem"]
    restore = []

    def patch_method(module, attr, make):
        cls_name, meth = attr.split(".")
        cls = getattr(sys.modules[f"hermsem.{module}"], cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
        restore.append((cls, meth, raw))

    def patch_function(module, attr, make):
        fn = getattr(sys.modules[f"hermsem.{module}"], attr)
        wrapped = make(fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    restore.append((mod, key, fn))

    try:
        for name, module, attr, before, after in _targets(tr):
            patch = patch_method if "." in attr else patch_function
            patch(module, attr, lambda fn: tr.span(name, fn, before, after))
        yield tr
    finally:
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)


def layer_values(tr: Tracer, metrics) -> dict:
    """Values of the named ``<span>.<stat>`` metrics for one traced run.

    ``calls`` and ``self_s`` come from the spans, ``points_per_call`` from
    the span's ``points`` counter, ``unique_frac`` from the recorded
    Hermite evaluation points, and every other stat is a counter.
    """
    own, calls = tr.self_times()
    out = {}
    for metric in metrics:
        span, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls.get(span, 0)
        elif stat == "self_s":
            out[metric] = own.get(span, 0.0)
        elif stat == "points_per_call":
            n = calls.get(span, 0)
            out[metric] = tr.counts[f"{span}.points"] / n if n else 0.0
        elif stat == "unique_frac":
            out[metric] = tr.unique_hermite_fraction()
        else:
            out[metric] = tr.counts[metric]
    return out
