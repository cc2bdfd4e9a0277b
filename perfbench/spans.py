"""Layer spans recorded from the benchmark process, around public calls.

:class:`Tracer` replaces public functions of the program's modules with
timing wrappers for the length of a traced run, then puts the originals
back.  Each call becomes a span: an id, its parent span (the wrapped
call it ran inside, on the same thread), its layer, start and
duration.  Spans stay in memory as one flat ``array('d')`` of five
numbers each and are written out when the run ends.

A layer's *self* time is its spans' durations minus the time their
child spans cover.  Calls on one thread nest strictly, so the children
of a span cover exactly the sum of their durations; the wrapper keeps
that sum on a per-thread stack and folds it into per-layer totals as
each span closes, so the numbers are ready without a pass over the
spans.

Nothing here is imported by the program: the simulator stays free of
telemetry, and a run without ``--trace 1`` never installs a wrapper.
"""

from __future__ import annotations

import array
import functools
import itertools
import sys
import threading
from time import perf_counter
from typing import Callable, Optional

#: Fields of one span row in :attr:`Tracer.spans`.
SPAN_FIELDS = ("id", "parent", "layer", "start_s", "duration_s")


class _ThreadState:
    """Per-thread span stack and per-layer totals (no lock needed)."""

    def __init__(self, layers: int) -> None:
        self.stack: list[list] = []
        self.calls = [0] * layers
        self.self_s = [0.0] * layers
        self.total_s = [0.0] * layers
        self.tallies: dict[str, float] = {}


class Tracer:
    """Wraps public functions into layer spans; see the module docstring.

    Install every wrapper before the first traced call: per-thread
    totals are sized to the layers known when a thread first records.
    """

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.spans = array.array("d")
        self._layer_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._origin = perf_counter()

    # -- installing ------------------------------------------------------
    def wrap_method(self, cls, name: str, layer: str, tally=None) -> None:
        """Trace ``cls.name`` (every instance, every caller)."""
        original = cls.__dict__[name]
        self._patch(cls, name, self._wrap(original, layer, tally))

    def wrap_function(self, module, name: str, layer: str, tally=None) -> None:
        """Trace ``module.name`` and every imported module's alias of it.

        ``from x import f`` binds ``f`` in the importing module, so the
        function is replaced wherever the same object is bound; call
        sites that import at call time read the defining module's
        attribute and see the wrapper too.
        """
        original = getattr(module, name)
        wrapper = self._wrap(original, layer, tally)
        for other in list(sys.modules.values()):
            # The namespace itself, not getattr: lazy modules run code
            # on attribute misses.
            if getattr(other, "__dict__", {}).get(name) is original:
                self._patch(other, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Put every original back (in reverse order of patching)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- recording -------------------------------------------------------
    def _new_state(self) -> _ThreadState:
        state = self._local.state = _ThreadState(len(self.layers))
        with self._states_lock:
            self._states.append(state)
        return state

    def _wrap(self, fn: Callable, layer: str, tally) -> Callable:
        layer_id = self._layer_ids.setdefault(layer, len(self.layers))
        if layer_id == len(self.layers):
            self.layers.append(layer)
        record = self.spans.extend
        ids = self._ids
        origin = self._origin
        local = self._local
        new_state = self._new_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                state.calls[layer_id] += 1
                state.self_s[layer_id] += duration - frame[1]
                state.total_s[layer_id] += duration
                if tally is not None:
                    counted = tally(args, result)
                    if counted is not None:
                        key, amount = counted
                        state.tallies[key] = state.tallies.get(key, 0.0) + amount
                # One C-level extend: rows from concurrent threads never
                # interleave mid-row under the interpreter lock.
                record((frame[0], parent, layer_id, start - origin, duration))

        return traced

    # -- reading ---------------------------------------------------------
    def totals(self) -> dict:
        """Per-layer calls / self seconds / inclusive seconds, and tallies,
        summed over every thread that recorded a span."""
        out = {"calls": {}, "self_s": {}, "total_s": {}, "tallies": {}}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key in ("calls", "self_s", "total_s"):
                target = out[key]
                for layer, value in zip(self.layers, getattr(state, key)):
                    target[layer] = target.get(layer, 0) + value
            for name, value in list(state.tallies.items()):
                out["tallies"][name] = out["tallies"].get(name, 0) + value
        return out

    @staticmethod
    def delta(after: dict, before: dict) -> dict:
        """``after - before`` for two :meth:`totals` snapshots."""
        return {
            key: {
                name: value - before[key].get(name, 0)
                for name, value in after[key].items()
            }
            for key in after
        }

    def write(self, path) -> int:
        """Write the spans as an ``(N, 5)`` float64 ``.npy`` plus the
        layer names; returns the number of spans."""
        import json

        import numpy as np

        rows = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, len(SPAN_FIELDS))
        np.save(path, rows)
        with open(str(path) + ".layers.json", "w", encoding="utf-8") as handle:
            json.dump({"fields": SPAN_FIELDS, "layers": self.layers}, handle)
        return len(rows)


def tally_hits(args, result) -> Optional[tuple[str, int]]:
    """``SweepCache.load``: a hit returns a summary, a miss ``None``."""
    return ("sweep.cache.hits", 1) if result is not None else ("sweep.cache.misses", 1)


def tally_queries(args, result) -> Optional[tuple[str, int]]:
    """``probability_many``: one query per returned probability."""
    return ("revpred.queries", len(result)) if result is not None else None


def tally_query(args, result) -> Optional[tuple[str, int]]:
    """``OraclePredictor.probability``: one query per call."""
    return ("revpred.queries", 1)


def install_program_layers(tracer: Tracer) -> None:
    """Trace the public functions named in the benchmark's layer table."""
    import os

    import repro.analysis.context as context_mod
    import repro.core.baselines as baselines_mod
    import repro.market.dataset as dataset_mod
    import repro.market.snapshot as snapshot_mod
    import repro.sweep.runner as runner_mod
    from repro.core.orchestrator import SpotTuneOrchestrator
    from repro.core.provisioner import Provisioner
    from repro.earlycurve.predictor import EarlyCurvePredictor
    from repro.revpred.predictor import CachingPredictor, OraclePredictor
    from repro.sweep.banks import BankCache
    from repro.sweep.cache import SweepCache
    import repro.workloads.trial as trial_mod
    from repro.workloads.trial import Trial

    tracer.wrap_function(runner_mod, "run_scenario", "sweep.runner")
    tracer.wrap_method(context_mod.ExperimentContext, "spottune_run", "analysis.context.cell")
    tracer.wrap_method(context_mod.ExperimentContext, "baseline_run", "analysis.context.cell")
    tracer.wrap_function(context_mod, "build_context", "analysis.context.build")
    tracer.wrap_method(SpotTuneOrchestrator, "run", "core.orchestrator")
    tracer.wrap_method(EarlyCurvePredictor, "predict_final", "earlycurve.fit")
    tracer.wrap_method(EarlyCurvePredictor, "observe", "earlycurve.observe")
    tracer.wrap_method(EarlyCurvePredictor, "should_stop", "earlycurve.observe")
    tracer.wrap_method(Provisioner, "get_best_instance", "core.provisioner")
    tracer.wrap_method(CachingPredictor, "probability_many", "revpred", tally_queries)
    tracer.wrap_method(OraclePredictor, "probability", "revpred", tally_query)
    tracer.wrap_method(Trial, "metrics_at", "workloads")
    tracer.wrap_function(trial_mod, "make_trials", "workloads.make_trials")
    tracer.wrap_function(baselines_mod, "run_single_spot", "core.baselines")
    tracer.wrap_function(dataset_mod, "generate_default_dataset", "market.generate")
    tracer.wrap_function(snapshot_mod, "save_market_snapshot", "market.snapshot_save")
    tracer.wrap_function(snapshot_mod, "load_market_snapshot", "market.snapshot_load")
    tracer.wrap_method(BankCache, "load", "sweep.banks.load")
    tracer.wrap_method(SweepCache, "store", "sweep.cache.store")
    tracer.wrap_method(SweepCache, "load", "sweep.cache.load", tally_hits)
    tracer.wrap_function(os, "fsync", "io.fsync")
