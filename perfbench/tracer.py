"""Call timing for roagrow, installed from outside the package.

A :class:`Tracer` replaces public functions and methods of roagrow with thin
wrappers and restores them on :meth:`Tracer.uninstall`.  Every wrapped call
pushes a frame on one stack, so each call's self time (its duration minus the
time of the wrapped calls it made) is exact up to the wrapper cost.

Three kinds of entry point:

* ``stage``: the four coarse calls ``run_redesign`` makes a few times per
  phase (pretraining, estimation, oracle, policy update).  They are the only
  wrappers of an untraced run, so an untraced run stays untraced.
* ``span``: layer boundaries that fire at most a few hundred times per
  operation.  Each call is kept as a span (name, start, end, parent, run id).
* ``hot``: inner calls that fire tens of thousands of times.  They get
  counters and summed time only, keyed by the chain of enclosing spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

import roagrow.dynamics as dynamics
import roagrow.experiment as experiment
import roagrow.grid as grid_mod
import roagrow.lyapunov as lyapunov
import roagrow.oracle as oracle
import roagrow.policy_updater as policy_updater
import roagrow.roa_estimator as roa_estimator

# (owner, attribute, metric name); owners are modules or classes.  The name
# is the layer the callee belongs to, not the module the reference lives in:
# experiment.estimate_roa is roa_estimator's entry point.
STAGE_POINTS = [
    (experiment, "pretrain_net", "experiment.pretrain_net"),
    (experiment, "estimate_roa", "roa_estimator.estimate_roa"),
    (experiment, "true_roa", "oracle.true_roa"),
    (oracle, "true_roa", "oracle.true_roa"),
    (experiment, "update_policy", "policy_updater.update_policy"),
]

SPAN_POINTS = [
    (experiment, "run_redesign", "experiment.run_redesign"),
    (experiment, "pretrain_quadratic", "lyapunov.pretrain_quadratic"),
    (experiment, "line_search_level", "roa_estimator.line_search_level"),
    (roa_estimator, "sample_mixture", "roa_estimator.sample_mixture"),
    # rows = states labelled, hits = states labelled in
    (roa_estimator, "label_batch", "roa_estimator.label_batch",
     lambda args, out: (len(args[0]), len(out.x_in))),
    (roa_estimator, "line_search_level", "roa_estimator.line_search_level"),
    (policy_updater, "sample_policy_batch", "policy_updater.sample_policy_batch"),
    (policy_updater, "signal_diagnostics", "policy_updater.signal_diagnostics"),
    (experiment, "save_net", "experiment.io.save_net"),
    (experiment, "save_mask_pgm", "experiment.io.save_mask_pgm"),
    (experiment, "save_mask_csv", "experiment.io.save_mask_csv"),
    (experiment, "emit_heatmap", "experiment.io.emit_heatmap"),
    (experiment, "write_report", "experiment.io.write_report"),
    (experiment.MetricsLog, "add", "experiment.io.metrics_add"),
]

# The value calls are split into grid and batch evaluations by row count.
HOT_POINTS = [
    (lyapunov, "build_weight", "lyapunov.build_weight"),
    (lyapunov.PDLyapunovNet, "value", "lyapunov.value"),
    (lyapunov.PDLyapunovNet, "backward", "lyapunov.backward"),
    (lyapunov.PDLyapunovNet, "grad_x", "lyapunov.grad_x"),
    (lyapunov.PDLyapunovNet, "sgd_step", "lyapunov.sgd_step"),
    (dynamics.ClosedLoopMap, "__call__", "dynamics.closed_loop"),
    (grid_mod.GridDomain, "centers", "grid.centers"),
]

# Methods whose first argument after ``self`` is a batch of states.
_ROWS_ARG = {"lyapunov.value", "lyapunov.backward", "lyapunov.grad_x",
             "dynamics.closed_loop"}


class Tracer:
    """Per-call timing of roagrow's public entry points.

    ``agg`` maps ``(name, path)`` to ``[calls, rows, seconds, self_seconds,
    hits]`` where ``path`` joins the names of the enclosing spans with ``/``.
    ``spans`` holds ``(id, name, start, end, parent_id, run_id)`` tuples.
    """

    def __init__(self, grid_cells: int, traced: bool):
        self.grid_cells = grid_cells
        self.traced = traced
        self.run_id = ""
        self.agg = defaultdict(lambda: [0, 0, 0.0, 0.0, 0])
        self.spans = []
        self._stack = []            # per open call: seconds spent in its callees
        self._span_ids = [None]
        self._paths = [""]
        self._saved = []

    # -- installation --------------------------------------------------------

    def install(self):
        points = [(p, "stage") for p in STAGE_POINTS]
        if self.traced:
            points += [(p, "span") for p in SPAN_POINTS]
            points += [(p, "hot") for p in HOT_POINTS]
        for (owner, attr, name, *outcome), kind in points:
            # an entry point a later roagrow no longer has reads as 0 calls
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            wrapper = (self._hot_wrapper(original, name) if kind == "hot"
                       else self._span_wrapper(original, name, *outcome))
            setattr(owner, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def reset(self, run_id: str):
        self.run_id = run_id
        self.agg.clear()

    # -- wrappers ------------------------------------------------------------

    def _close(self, key, rows, start, hits=0):
        end = time.perf_counter()
        dur = end - start
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        entry = self.agg[key]
        entry[0] += 1
        entry[1] += rows
        entry[2] += dur
        entry[3] += dur - child
        entry[4] += hits
        return end

    def _span_wrapper(self, fn, name, outcome=None):
        tracer = self

        def span(*args, **kwargs):
            key = (name, tracer._paths[-1])
            span_id = len(tracer.spans)
            if tracer.traced:
                tracer.spans.append(None)
                tracer._span_ids.append(span_id)
                tracer._paths.append(f"{key[1]}/{name}" if key[1] else name)
            start = time.perf_counter()
            tracer._stack.append(0.0)
            rows = hits = 0
            try:
                out = fn(*args, **kwargs)
                if outcome is not None:
                    rows, hits = outcome(args, out)
                return out
            finally:
                end = tracer._close(key, rows, start, hits)
                if tracer.traced:
                    tracer._paths.pop()
                    tracer._span_ids.pop()
                    tracer.spans[span_id] = (span_id, name, start, end,
                                             tracer._span_ids[-1], tracer.run_id)

        return span

    def _hot_wrapper(self, fn, name):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        with_rows = name in _ROWS_ARG
        split_value = name == "lyapunov.value"

        def hot(*args, **kwargs):
            rows = len(args[1]) if with_rows else 0
            label = name
            if split_value:
                label = ("lyapunov.value_grid" if rows == tracer.grid_cells
                         else "lyapunov.value_batch")
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close((label, tracer._paths[-1]), rows, start)

        return hot

    # -- queries -------------------------------------------------------------

    def total(self, name, field=0, within=None, direct=None):
        """Sum one field over ``name``'s entries.

        ``within`` keeps entries whose span path contains that span name;
        ``direct`` keeps entries whose innermost enclosing span is that name.
        """
        out = 0
        for (n, path), entry in self.agg.items():
            if n != name:
                continue
            if within is not None and within not in path.split("/"):
                continue
            if direct is not None and path.rsplit("/", 1)[-1] != direct:
                continue
            out += entry[field]
        return out

    def names(self):
        return {n for n, _ in self.agg}
