"""The layers the benchmark prices, and the wrappers a traced run installs.

Layer names are the ``repro`` module names.  Each layer is timed at the
functions it exposes to the layer above; where a layer has no public
boundary on the hot path the private one is named (marked ``private``
below) — the benchmark only reads its timing, it never changes behaviour.

``install(tracer)`` patches every entry, including the copies other
``repro`` modules imported by name (``from repro.lti.bode import
gain_crossover``), so a call is timed whichever module makes it.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any

from tracing import Span, Tracer


def _points(_self: Any, omega: Any, *_a: Any, **_k: Any) -> float:
    import numpy as np

    return float(np.size(getattr(omega, "omega", omega)))


def _batch_len(batch: Any, *_a: Any, **_k: Any) -> float:
    return float(len(batch))


def _nbytes(result: Any) -> float:
    return float(len(result))


#: (module, class or None, attribute, layer, op, options)
WRAPPED: list[tuple[str, str | None, str, str, str | None, dict[str, Any]]] = [
    ("repro.pll.design", None, "design_typical_loop", "pll.design", None, {}),
    ("repro.lti.rational", "RationalFunction", "partial_fractions", "lti.rational", None, {}),
    # private: one step of the partial-fraction tolerance ladder
    ("repro.lti.rational", "RationalFunction", "_partial_fractions_at_tol", "lti.rational",
     "ladder_step", {}),
    ("repro.core.aliasing", "AliasedSum", "of", "core.aliasing", None, {}),
    ("repro.core.aliasing", "AliasedSum", "__call__", "core.aliasing", "call", {}),
    ("repro.core.aliasing", "AliasedSum", "eval_jomega", "core.aliasing", None, {}),
    ("repro.pll.closedloop", "ClosedLoopHTM", "effective_gain_response", "pll.closedloop",
     None, {"size": _points}),
    ("repro.pll.closedloop", "ClosedLoopHTM", "effective_gain", "pll.closedloop", None, {}),
    ("repro.pll.closedloop", "ClosedLoopHTM", "frequency_response", "pll.closedloop", None,
     {"size": _points}),
    ("repro.lti.bode", None, "gain_crossover", "lti.bode", None, {}),
    ("repro.lti.bode", None, "crossover_from_samples", "lti.bode", None, {}),
    ("repro.lti.bode", None, "phase_margin", "lti.bode", None, {}),
    ("repro.pll.margins", None, "compare_margins", "pll.margins", None, {}),
    ("repro.pll.margins", None, "compare_margins_batch", "pll.margins", None, {}),
    ("repro.baselines.zdomain", None, "sampled_open_loop", "baselines.zdomain", None, {}),
    ("repro.baselines.zdomain", None, "closed_loop_z", "baselines.zdomain", None, {}),
    ("repro.baselines.zdomain", None, "stability_limit_ratio", "baselines.zdomain", None, {}),
    ("repro.baselines.zdomain", "ZTransferFunction", "poles", "baselines.zdomain", None, {}),
    ("repro.baselines.zdomain", "ZTransferFunction", "is_stable", "baselines.zdomain", None, {}),
    ("repro.campaign.executor", None, "run_campaign", "campaign.executor", None, {}),
    ("repro.campaign.executor", None, "run_point_batch", "campaign.executor", None, {}),
    # private: the lease worker's per-batch engine call (records, retries)
    ("repro.campaign.executor", "_Coordinator", "run_batch", "campaign.executor", None, {}),
    ("repro.campaign.store", "ResultStore", "create", "campaign.store", None, {}),
    ("repro.campaign.store", "ResultStore", "open_shard", "campaign.store", None, {}),
    ("repro.campaign.store", "ResultStore", "append_point", "campaign.store", None, {}),
    ("repro.campaign.store", "ResultStore", "merged_completed_ids", "campaign.store", "read", {}),
    ("repro.campaign.lease", None, "ensure_plan", "campaign.lease", None, {}),
    ("repro.campaign.lease", None, "try_claim", "campaign.lease", "claim", {}),
    ("repro.campaign.lease", None, "try_reclaim", "campaign.lease", "reclaim", {}),
    ("repro.campaign.lease", None, "renew", "campaign.lease", "renew", {}),
    ("repro.campaign.lease", None, "mark_done", "campaign.lease", "done", {}),
    ("repro.campaign.lease", None, "release", "campaign.lease", None, {}),
    ("repro.campaign.lease", None, "try_finalize", "campaign.lease", "finalize", {}),
    ("repro.campaign.lease", None, "lease_state", "campaign.lease", None, {}),
    ("repro.campaign.lease", None, "done_batch_ids", "campaign.lease", None, {}),
    # the worker loop itself: its self time is the time it sat idle
    ("repro.campaign.lease", None, "run_worker", "campaign.lease", "worker", {}),
    # private: the telemetry writers run on emitter threads
    ("repro.obs.heartbeat", None, "_write_atomic", "obs", "heartbeat", {}),
    ("repro.obs.stream", "StreamEmitter", "_emit", "obs", "stream", {}),
    ("repro.serve.protocol", None, "parse_json_body", "serve.protocol", None, {}),
    ("repro.serve.protocol", None, "design_params", "serve.protocol", None, {}),
    ("repro.serve.protocol", None, "grid_from_request", "serve.protocol", None, {}),
    ("repro.serve.protocol", None, "dumps_bytes", "serve.protocol", None,
     {"result_size": _nbytes}),
    ("repro.serve.cache", "ShardedGridCache", "lookup", "serve.cache", None, {}),
    ("repro.serve.cache", "ShardedGridCache", "store", "serve.cache", None, {}),
    # private: the app's per-request boundary (route, run, account)
    ("repro.serve.app", "AnalysisServer", "_dispatch", "serve.app", "request", {}),
]


def _replace(attr: str, original: Any, wrapped: Any) -> None:
    """Point every loaded ``repro`` module's ``attr`` that is ``original`` at
    ``wrapped``, so copies imported by name are timed too."""
    for name, mod in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def _patch_function(tracer: Tracer, module: Any, attr: str, layer: str, op: str, opts: dict) -> None:
    original = getattr(module, attr, None)
    if original is None:
        tracer.missing.append(f"{module.__name__}.{attr}")
        return
    _replace(attr, original, tracer.wrap(original, layer, op, **opts))


def _patch_registries(tracer: Tracer) -> None:
    """Time task adapters by wrapping what the registry lookups return."""
    from repro.campaign import tasks

    scalar_cache: dict[str, Any] = {}
    batch_cache: dict[str, Any] = {}
    get_task = tasks.get_task
    get_batch_task = tasks.get_batch_task

    def traced_get_task(name: str):
        if name not in scalar_cache:
            scalar_cache[name] = tracer.wrap(get_task(name), "campaign.tasks", name)
        return scalar_cache[name]

    def traced_get_batch_task(name: str | None):
        fn = get_batch_task(name)
        if fn is None:
            return None
        if name not in batch_cache:
            batch_cache[name] = tracer.wrap(fn, "campaign.vectorized", name, size=_batch_len)
        return batch_cache[name]

    _replace("get_task", get_task, traced_get_task)
    _replace("get_batch_task", get_batch_task, traced_get_batch_task)


def _patch_batcher(tracer: Tracer) -> None:
    """Time ``MicroBatcher.submit`` and split it into queue wait and compute.

    The first submitter of a key opens the batch and its ``compute`` is the
    one that runs; wrapping that callable stamps when the batch's compute
    started and ended.  Every submitter then records a ``wait`` span from
    its submit to that start and a ``shared`` span over the compute.
    """
    from repro.serve.batcher import MicroBatcher

    original = MicroBatcher.submit
    clock = time.perf_counter
    stamps: dict[Any, list] = {}

    async def submit(self, key, omega, compute, trace=None):
        sid = tracer.new_id()
        parent = tracer.current()
        start = clock()
        if key not in self.pending_keys():
            stamp = [None, None]
            stamps[key] = stamp
            inner = compute

            def compute(merged, _inner=inner, _stamp=stamp):
                _stamp[0] = clock()
                try:
                    return _inner(merged)
                finally:
                    _stamp[1] = clock()
        else:
            stamp = stamps.get(key)
        token = tracer.activate(sid)
        failed = True
        try:
            result = await original(self, key, omega, compute, trace)
            failed = False
            return result
        finally:
            end = clock()
            tracer.deactivate(token)
            if stamp is not None and stamp[0] is not None:
                tracer.record(Span(tracer.new_id(), sid, "serve.batcher", "wait", start, stamp[0], "wait"))
                tracer.record(
                    Span(tracer.new_id(), sid, "serve.batcher", "compute", stamp[0],
                         stamp[1] if stamp[1] is not None else end, "shared")
                )
            tracer.record(Span(sid, parent, "serve.batcher", "submit", start, end, "work", failed))

    MicroBatcher.submit = submit


def install(tracer: Tracer, serve: bool = False) -> Tracer:
    """Install every timing wrapper; ``serve`` adds the server layers."""
    modules = {entry[0] for entry in WRAPPED}
    if not serve:
        modules = {m for m in modules if not m.startswith("repro.serve")}
    for name in sorted(modules):
        importlib.import_module(name)
    importlib.import_module("repro.campaign.vectorized")
    for mod_name, cls_name, attr, layer, op, opts in WRAPPED:
        if mod_name not in modules:
            continue
        module = sys.modules[mod_name]
        if cls_name is None:
            _patch_function(tracer, module, attr, layer, op or attr, opts)
        else:
            owner = getattr(module, cls_name, None)
            if owner is None:
                tracer.missing.append(f"{mod_name}.{cls_name}")
                continue
            tracer.patch(owner, attr, layer, op, **opts)
    _patch_registries(tracer)
    if serve:
        _patch_batcher(tracer)
    return tracer
