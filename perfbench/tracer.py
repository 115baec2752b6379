"""Per-layer tracing built only from the benchmark's own files.

The tracer replaces public ``repro`` functions and methods with timing
wrappers *where their consumers look them up*: a module-level function is
replaced in its defining module and in every loaded module that imported
it by name (``from repro.x import f`` binds ``f`` in the importer), and a
method is replaced on its class.  Nothing under ``src/`` changes, and
:meth:`Tracer.uninstall` restores every original object.

Each wrapped call is a span.  A span's *self time* is its duration minus
the durations of the wrapped spans it directly encloses, so summing self
times never counts a nanosecond twice.  Spans nest per thread (the remote
endpoint labels batches on worker threads), and every thread accumulates
into its own table; :meth:`Tracer.snapshot` merges them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

# (layer, "module:qualname", counts_records).  ``qualname`` is ``func`` or
# ``Class.method``; with ``counts_records`` a call into the layer also adds
# the length of its record-index argument (oracle calls, column gathers).
_RECORDS = True

LAYER_TARGETS: List[Tuple[str, str, bool]] = [
    # core
    ("core.bootstrap", "repro.core.bootstrap:bootstrap_estimates", False),
    ("core.bootstrap", "repro.core.bootstrap:bootstrap_confidence_interval", False),
    ("core.bootstrap", "repro.core.bootstrap:bootstrap_aggregate_estimates", False),
    ("core.bootstrap", "repro.core.bootstrap:bootstrap_aggregate_interval", False),
    ("core.stratification", "repro.core.stratification:Stratification.by_proxy_quantile", False),
    ("core.stratification", "repro.core.stratification:Stratification.from_scores", False),
    ("core.allocation", "repro.core.allocation:optimal_allocation", False),
    ("core.allocation", "repro.core.allocation:allocation_from_estimates", False),
    ("core.allocation", "repro.core.allocation:bounded_allocation", False),
    ("core.allocation", "repro.core.allocation:integerize_allocation", False),
    ("core.allocation", "repro.core.allocation:solve_minimax_single_oracle", False),
    ("core.allocation", "repro.core.allocation:solve_minimax_multi_oracle", False),
    ("core.allocation", "repro.optim.nelder_mead:nelder_mead", False),
    ("core.allocation", "repro.optim.simplex:minimize_on_simplex", False),
    # query
    ("query", "repro.query.parser:parse_query", False),
    ("query", "repro.query.planner:plan_query", False),
    ("query", "repro.query.executor:prepare_query", False),
    # engine
    ("engine.session", "repro.engine.session:SamplingSession.step", False),
    ("engine.session.result", "repro.engine.session:SamplingSession.partial_estimate", False),
    ("engine.session.result", "repro.engine.session:SamplingSession.result", False),
    ("engine.checkpoint", "repro.engine.session:SamplingSession.checkpoint", False),
    ("engine.checkpoint", "repro.engine.pipeline:SamplingPipeline.resume", False),
    ("engine.draw", "repro.engine.pipeline:SamplingPipeline.draw", False),
    ("engine.draw", "repro.engine.pipeline:draw_stratum_sample", False),
    ("engine.draw", "repro.core.batching:label_records", False),
    # oracle: the innermost (paying) oracles only, never the wrappers
    ("oracle", "repro.oracle.simulated:LabelColumnOracle.evaluate_batch", _RECORDS),
    ("oracle", "repro.oracle.simulated:SimulatedRemoteOracle.evaluate_batch", _RECORDS),
    ("oracle", "repro.oracle.groupkey:GroupKeyOracle.evaluate_batch", _RECORDS),
    ("oracle.remote.wait", "repro.oracle.remote:RemoteTicket.wait", False),
    # serve
    ("serve.scheduler", "repro.serve.scheduler:CooperativeScheduler.step_once", False),
    ("serve.scheduler", "repro.serve.scheduler:QueryTask.advance", False),
    ("serve.admission", "repro.serve.admission:AdmissionController.admit", False),
    ("serve.admission", "repro.serve.admission:AdmissionController.settle", False),
    ("serve.admission", "repro.serve.admission:AdmissionController.cancel", False),
    ("serve.cache", "repro.serve.cache:SharedCachingOracle.evaluate_batch", False),
    ("serve.journal", "repro.serve.journal:ServiceJournal.append", False),
    # data
    ("data.gather", "repro.data.backend:ArrayColumnHandle.gather", _RECORDS),
    ("data.gather", "repro.data.backend:ArrayColumnHandle.to_numpy", False),
    ("data.gather", "repro.data.chunked:ChunkedColumnHandle.gather", _RECORDS),
    ("data.gather", "repro.data.chunked:ChunkedColumnHandle.to_numpy", False),
]


def _count_records(args, kwargs) -> int:
    # Bound methods: args[0] is self, args[1] the record indices.
    indices = args[1] if len(args) > 1 else kwargs.get("record_indices", ())
    try:
        return len(indices)
    except TypeError:
        return 0


class LayerStats:
    """Accumulated spans of one layer (on one thread, or merged)."""

    __slots__ = ("calls", "entries", "self_ns", "items")

    def __init__(self):
        self.calls = 0  # every wrapped call
        self.entries = 0  # calls entered from another layer (or top level)
        self.self_ns = 0
        self.items = 0

    def merge(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.entries += other.entries
        self.self_ns += other.self_ns
        self.items += other.items


class Tracer:
    """Install timing wrappers over :data:`LAYER_TARGETS`; merge their spans."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, LayerStats]] = []
        # (owner, attribute, original) in installation order.
        self._patches: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------------
    def _thread_state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return stack, local.table

    def _wrap(self, layer: str, fn: Callable, counts_records: bool) -> Callable:
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = tracer._thread_state()
            parent = stack[-1][0] if stack else None
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats = table.get(layer)
                if stats is None:
                    stats = table[layer] = LayerStats()
                stats.calls += 1
                stats.self_ns += elapsed - frame[1]
                if parent != layer:
                    stats.entries += 1
                    if counts_records:
                        stats.items += _count_records(args, kwargs)

        return traced

    # -- installation --------------------------------------------------------------
    def install(self) -> None:
        targets = [
            (layer, importlib.import_module(target.split(":")[0]), target.split(":")[1], counts)
            for layer, target, counts in LAYER_TARGETS
        ]
        consumers = [
            module
            for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for layer, module, qualname, counts in targets:
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                own = cls.__dict__.get(attr)
                # An inherited method is shadowed on this class only, so
                # sibling classes (e.g. the wrapping oracles) stay unwrapped.
                raw = own if own is not None else getattr(cls, attr)
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(layer, raw.__func__, counts))
                else:
                    replacement = self._wrap(layer, raw, counts)
                self._patches.append((cls, attr, own))
                setattr(cls, attr, replacement)
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(layer, original, counts)
            for consumer in consumers:
                for name, value in list(vars(consumer).items()):
                    if value is original:
                        self._patches.append((consumer, name, original))
                        setattr(consumer, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> Dict[str, LayerStats]:
        merged: Dict[str, LayerStats] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for layer, stats in list(table.items()):
                merged.setdefault(layer, LayerStats()).merge(stats)
        return merged
