"""Per-layer tracing of numopt solves, from outside the library.

``Tracer.install`` wraps the public functions each layer is entered
through, records a span per call (name, start, end, parent) and counts work
at the same boundaries:

* the objective, through a proxy (only the methods the object
  really has, so capability inference sees the same object), and a
  predictor matrix view that counts its ``@`` products;
* ``ObjectiveAdapter`` methods (``core``);
* ``prepare_run`` / ``finish_run`` (``optimizers._common``);
* ``CallbackList.dispatch`` (``callbacks``);
* ``two_loop_direction``, ``backtracking_line_search`` and
  ``LbfgsMemory.push`` / ``clear`` by their names in
  ``numopt.optimizers.lbfgs``;
* the SGD update policies' ``step``.

Span names are the metric their self time feeds.  Self time is a span's
duration minus that of its direct children; times are integer nanoseconds,
so the self times of one solve sum exactly to its root span.  Every patched
attribute is restored when ``install`` exits.
"""

from __future__ import annotations

import contextlib
import time
import types
from collections import Counter

import numpy as np

import numopt.core
import numopt.optimizers.annealing
import numopt.optimizers.gradient_descent
import numopt.optimizers.lbfgs
import numopt.optimizers.sgd
from numopt.callbacks import CallbackList, EvaluateCalled, StepTaken

# Per-layer metrics of one traced solve, in report order, with units.
PER_LAYER = {
    "problems.self_s": "s",
    "problems.calls": "count",
    "problems.matvecs": "count",
    "problems.bytes": "B",
    "core.adapter_self_s": "s",
    "core.adapter_calls": "count",
    "common.run_s": "s",
    "callbacks.dispatch_s": "s",
    "callbacks.events": "count",
    "lbfgs.two_loop_s": "s",
    "lbfgs.line_search_self_s": "s",
    "lbfgs.self_s": "s",
    "lbfgs.iterations": "count",
    "lbfgs.line_search_trials": "count",
    "lbfgs.first_trial_accept_ratio": "ratio",
    "lbfgs.memory_clears": "count",
    "lbfgs.pairs_rejected": "count",
    "sgd.update_s": "s",
    "sgd.self_s": "s",
    "sgd.steps": "count",
    "annealing.self_s": "s",
    "annealing.moves": "count",
    "annealing.accept_ratio": "ratio",
    "grads_per_solve": "count",
    "solve_s.p50": "s",
    "solve_s.p90": "s",
    "trace.overhead_s": "s",
}

# Objective methods and the (evaluations, gradients) each call is worth;
# ``None`` means the window's ``count`` argument, as the adapter counts it.
OBJECTIVE_METHODS = {
    "evaluate": (1, 0),
    "gradient": (0, 1),
    "evaluate_with_gradient": (1, 1),
    "evaluate_parts": (None, 0),
    "gradient_parts": (0, None),
}
ADAPTER_METHODS = tuple(OBJECTIVE_METHODS)
ADAPTER, LINE_SEARCH = "core.adapter_self_s", "lbfgs.line_search_self_s"
OPTIMIZER_MODULES = (
    numopt.optimizers.lbfgs,
    numopt.optimizers.sgd,
    numopt.optimizers.annealing,
    numopt.optimizers.gradient_descent,
)
UPDATE_POLICIES = (
    numopt.optimizers.sgd.VanillaUpdate,
    numopt.optimizers.sgd.MomentumUpdate,
    numopt.optimizers.sgd.AdamUpdate,
)


class CountingMatrix(np.ndarray):
    """Predictor matrix view that counts its matrix products and their bytes.

    ``Tracer.install`` makes a subclass whose ``tally`` is its counter.
    Slices and transposes stay counting views; products return plain arrays
    computed by the same ``np.matmul`` on the same memory, so results are
    bit-identical to the uncounted matrix.
    """

    tally = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = []
        for operand in inputs:
            if isinstance(operand, CountingMatrix):
                if ufunc is np.matmul:
                    operand.tally["problems.matvecs"] += 1
                    operand.tally["problems.bytes"] += operand.nbytes
                operand = operand.view(np.ndarray)
            plain.append(operand)
        return getattr(ufunc, method)(*plain, **kwargs)


class Tracer:
    """Spans and counters of the solve in progress."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self._open = []
        self._last_evaluated = None

    def reset(self):
        """Forget the previous solve; the containers are reused in place."""
        self.spans.clear()
        self.counts.clear()
        self._open.clear()
        self._last_evaluated = None

    def wrap(self, name, function, observe=None):
        """Return ``function`` recording one span per call.

        ``observe(args, result)`` runs after each call, outside the span, so
        the span holds as little of the tracer's own work as possible.
        """
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _objective_proxy(self, objective):
        """The objective behind counting spans, with exactly its own methods."""
        attributes = {}
        for method_name, (evaluations, gradients) in OBJECTIVE_METHODS.items():
            method = getattr(objective, method_name, None)
            if callable(method):
                attributes[method_name] = self.wrap(
                    "problems.self_s", method, self._objective_counter(evaluations, gradients)
                )
        if attributes.keys() & {"evaluate_parts", "gradient_parts"}:
            attributes["num_parts"] = objective.num_parts
        return types.SimpleNamespace(**attributes)

    def _objective_counter(self, evaluations, gradients):
        def observe(args, result):
            counts = self.counts
            counts["problems.calls"] += 1
            window = args[2] if len(args) > 2 else None
            counts["evaluations"] += window if evaluations is None else evaluations
            counts["gradients"] += window if gradients is None else gradients

        return observe

    @contextlib.contextmanager
    def install(self, objective):
        """Wrap every traced entry point for the duration of the block.

        Yields the proxy to pass to ``optimize`` in place of ``objective``.
        An ``objective.X`` predictor matrix is swapped for a counting view.
        """
        patches = []
        counts = self.counts

        def patch(owner, attribute, replacement):
            patches.append((owner, attribute, vars(owner)[attribute]))
            setattr(owner, attribute, replacement)

        try:
            if isinstance(getattr(objective, "__dict__", {}).get("X"), np.ndarray):
                counting = type("CountingMatrix", (CountingMatrix,), {"tally": counts})
                patch(objective, "X", objective.X.view(counting))
            adapter = numopt.core.ObjectiveAdapter
            for method_name in ADAPTER_METHODS:
                method = vars(adapter)[method_name]
                patch(adapter, method_name, self.wrap(ADAPTER, method))
            for module in OPTIMIZER_MODULES:
                for function_name in ("prepare_run", "finish_run"):
                    function = vars(module)[function_name]
                    patch(module, function_name, self.wrap("common.run_s", function))
            dispatch = self.wrap("callbacks.dispatch_s", CallbackList.dispatch, self._observe_event)
            patch(CallbackList, "dispatch", dispatch)
            lbfgs = numopt.optimizers.lbfgs
            two_loop = self.wrap("lbfgs.two_loop_s", lbfgs.two_loop_direction)
            patch(lbfgs, "two_loop_direction", two_loop)
            line_search = self.wrap(
                LINE_SEARCH, lbfgs.backtracking_line_search, self._observe_line_search
            )
            patch(lbfgs, "backtracking_line_search", line_search)
            push, clear = lbfgs.LbfgsMemory.push, lbfgs.LbfgsMemory.clear

            def counted_push(memory, s, y):
                stored = push(memory, s, y)
                counts["lbfgs.pairs_rejected"] += not stored
                return stored

            def counted_clear(memory):
                counts["lbfgs.memory_clears"] += 1
                return clear(memory)

            patch(lbfgs.LbfgsMemory, "push", counted_push)
            patch(lbfgs.LbfgsMemory, "clear", counted_clear)
            for policy in UPDATE_POLICIES:
                patch(policy, "step", self.wrap("sgd.update_s", policy.step))
            yield self._objective_proxy(objective)
        finally:
            for owner, attribute, original in reversed(patches):
                setattr(owner, attribute, original)

    def _observe_event(self, args, result):
        callback_list, event = args
        if not callback_list:
            return
        counts = self.counts
        counts["callbacks.events"] += 1
        # A move is accepted exactly when the annealer's current value
        # becomes the trial value it just evaluated.
        if isinstance(event, EvaluateCalled):
            self._last_evaluated = event.value
        elif isinstance(event, StepTaken):
            counts["accepted_steps"] += event.objective == self._last_evaluated

    def _observe_line_search(self, args, found):
        counts = self.counts
        counts["line_searches"] += 1
        counts["first_trial_accepts"] += found.failure is None and found.step == 1.0

    def solve_profile(self):
        """Self time per span name, trials per line search, and the root duration."""
        children = [0] * len(self.spans)
        trials = 0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
                trials += name == ADAPTER and self.spans[parent][0] == LINE_SEARCH
        self_ns = Counter()
        for (name, start, end, _), child_ns in zip(self.spans, children):
            self_ns[name] += end - start - child_ns
        _, root_start, root_end, _ = self.spans[0]
        return self_ns, trials, root_end - root_start

