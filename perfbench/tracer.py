"""Outside-in tracing of ewrobust: spans around the public functions of each
module, installed by rebinding those functions in every ewrobust module that
holds them, and removed again afterwards.

A span records its wall time and the time its wrapped children covered, so
self time = duration - children.  Each thread keeps its own span stack and
aggregates; the query context opened by ``decide`` collects the per-sample
outcomes needed for the overshoot ratio.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

import numpy as np

from ewrobust import cli, data, decision, nn, prng, sampling, special, stats

LAYER_CLASSES = (nn.Dense, nn.Relu, nn.Conv2d, nn.MaxPool2d, nn.Flatten, nn.Normalize)
ENTRY = "cli.main"


class _Query:
    """Counters of one ``decide`` call."""
    __slots__ = ("outcomes", "batches")

    def __init__(self):
        self.outcomes: list[np.ndarray] = []
        self.batches = 0


class ThreadTrace:
    """Span stack and aggregates of one thread."""

    def __init__(self):
        self.stack: list[list] = []        # [name, child_seconds]
        self.spans: dict[str, list] = {}    # name -> [calls, total_s, self_s, units]
        self.counts: dict[str, float] = {}
        self.intervals: list[tuple[float, float]] = []  # outermost spans below the entry
        self.query_time = 0.0              # outermost evaluate/decide spans
        self.layer_index: list[int] = []   # next layer index of each open forward
        self.queries: list[_Query] = []
        self.evaluating = 0
        self.kernels: dict[str, tuple] = {}

    def count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[ThreadTrace] = []
        self._undo: list[tuple[object, str, object]] = []

    def _thread(self) -> ThreadTrace:
        tt = getattr(self._local, "trace", None)
        if tt is None:
            tt = self._local.trace = ThreadTrace()
            with self._lock:
                self.threads.append(tt)
        return tt

    # --- spans ----------------------------------------------------------------

    def _span(self, fn, name, units=None, enter=None, leave=None):
        """Wrap fn.  name is a string or name(thread_trace, args); units(args,
        result) gives the work done (rows, samples); enter/leave hook the
        query context."""
        fixed = None if callable(name) else name

        def wrapper(*args, **kwargs):
            tt = self._thread()
            key = fixed or name(tt, args)
            frame = [key, 0.0]
            tt.stack.append(frame)
            if enter is not None:
                enter(tt, args)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tt.stack.pop()
                if leave is not None:
                    leave(tt, args, result)
            elapsed = t1 - t0
            parent = tt.stack[-1] if tt.stack else None
            if parent is not None:
                parent[1] += elapsed
            if key != ENTRY and (parent is None or parent[0] == ENTRY):
                tt.intervals.append((t0, t1))
            agg = tt.spans.get(key)
            if agg is None:
                agg = tt.spans[key] = [0, 0.0, 0.0, 0]
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += elapsed - frame[1]
            if units is not None:
                agg[3] += units(args, result)
            if key == "decision.evaluate" or (key == "decision.decide" and not tt.evaluating):
                tt.query_time += elapsed
            return result

        return wrapper

    def _rebind(self, module, attr, wrapper):
        """Replace module.attr by wrapper in every ewrobust module holding it."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("ewrobust"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))

    def _wrap(self, module, attr, name, **hooks):
        self._rebind(module, attr, self._span(getattr(module, attr), name, **hooks))

    # --- hooks ----------------------------------------------------------------

    @staticmethod
    def _layer_name(tt, args):
        layer, x = args[0], args[1]
        i = tt.layer_index[-1] if tt.layer_index else -1
        if tt.layer_index:
            tt.layer_index[-1] += 1
        key = f"nn.{i}.{layer.kind}"
        if key not in tt.kernels and layer.kind in ("dense", "conv2d"):
            in_shape = tuple(x.shape[1:])
            tt.kernels[key] = (layer.weight.size, layer.bias.size, in_shape,
                               layer.out_shape(in_shape))
        return key

    @staticmethod
    def _forward_enter(tt, args):
        tt.layer_index.append(0)

    @staticmethod
    def _forward_leave(tt, args, result):
        tt.layer_index.pop()

    @staticmethod
    def _decide_enter(tt, args):
        if tt.evaluating:
            tt.count("decision.probes")
        tt.queries.append(_Query())

    @staticmethod
    def _decide_leave(tt, args, verdict):
        query = tt.queries.pop()
        if verdict is None:
            return
        plan = verdict.plan
        tt.count("decision.queries")
        tt.count("decision.samples", verdict.samples_drawn)
        tt.count("decision.batches", query.batches)
        tt.count("decision.early_accept", verdict.stop_reason == "early_accept")
        outcomes = np.concatenate(query.outcomes)[:verdict.samples_drawn]
        # first index at which either stop rule of stats.py already held
        successes = np.cumsum(outcomes)
        drawn = np.arange(1, outcomes.size + 1)
        threshold = plan.c * plan.N
        held = (successes >= threshold) | (successes + (plan.N - drawn) < threshold)
        first = int(np.argmax(held)) + 1 if held.any() else outcomes.size
        tt.count("decision.overshoot", verdict.samples_drawn - first)

    @staticmethod
    def _indicative_leave(tt, args, result):
        if tt.queries and result is not None:
            tt.queries[-1].outcomes.append(np.array(result))

    @staticmethod
    def _batch_enter(tt, args):
        if tt.queries:
            tt.queries[-1].batches += 1

    @staticmethod
    def _evaluate_enter(tt, args):
        tt.evaluating += 1

    @staticmethod
    def _evaluate_leave(tt, args, result):
        tt.evaluating -= 1

    # --- install / remove -----------------------------------------------------

    def install(self):
        # rows (samples) in the second argument
        rows = lambda args, result: int(np.shape(args[1])[0])  # noqa: E731
        self._wrap(cli, "main", ENTRY)
        self._wrap(prng, "uniforms", "prng.uniforms", units=rows,
                   leave=lambda tt, args, result: tt.count(
                       "prng.draws", 0 if result is None else result.size))
        self._wrap(prng, "derive_subseed", "prng.derive_subseed")
        self._wrap(special, "inv_norm_cdf_array", "special.inv_norm",
                   units=lambda args, result: int(np.shape(args[0])[0]))
        self._wrap(special, "reg_lower_incomplete_gamma_array", "special.gamma", units=rows)
        self._wrap(sampling, "sample_batch",
                   lambda tt, args: f"sampling.transform.{args[0].norm}",
                   units=lambda args, result: int(args[3]), enter=self._batch_enter)
        self._wrap(nn, "forward", "nn.forward", units=rows,
                   enter=self._forward_enter, leave=self._forward_leave)
        self._wrap(nn, "indicative", "nn.indicative", leave=self._indicative_leave)
        self._wrap(nn, "load_model", "nn.load_model")
        for attr in ("plan_test", "early_accept", "early_reject"):
            self._wrap(stats, attr, f"stats.{attr}")
        self._wrap(decision, "decide", "decision.decide",
                   enter=self._decide_enter, leave=self._decide_leave)
        self._wrap(decision, "evaluate", "decision.evaluate",
                   enter=self._evaluate_enter, leave=self._evaluate_leave)
        for attr in ("decide_with_source", "model_source", "point_check"):
            self._wrap(decision, attr, f"decision.{attr}")
        for attr in ("load_inputs", "load_labels", "load_dataset", "write_report"):
            self._wrap(data, attr, f"data.{attr}")
        for cls in LAYER_CLASSES:
            original = cls.__dict__["apply"]
            setattr(cls, "apply", self._span(original, self._layer_name, units=rows))
            self._undo.append((cls, "apply", original))
        return self

    def remove(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # --- aggregates -----------------------------------------------------------

    def merged(self):
        """(spans, counts, intervals, query_time, kernels) over all threads."""
        spans: dict[str, list] = {}
        counts: dict[str, float] = {}
        intervals, query_time, kernels = [], 0.0, {}
        for tt in self.threads:
            for key, agg in tt.spans.items():
                into = spans.setdefault(key, [0, 0.0, 0.0, 0])
                for k in range(4):
                    into[k] += agg[k]
            for key, value in tt.counts.items():
                counts[key] = counts.get(key, 0) + value
            intervals.extend(tt.intervals)
            query_time += tt.query_time
            kernels.update(tt.kernels)
        return spans, counts, intervals, query_time, kernels


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
