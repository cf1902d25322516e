"""Layer spans recorded from outside the program.

A traced run wraps the public functions of each layer's module with a
span recorder; nothing inside the program changes.  Per layer the
recorder keeps *self time* (span duration minus the time its child
spans cover, on the same thread) and counts taken from arguments or
results.  Time is split by thread role: spans running under a *root*
span (the op itself in-process, the HTTP handler in a server) are on
the request path; all others ran in the background (precompute
passes, pool threads).

Re-entrancy: a wrapped function that calls itself (``json_safe`` walks
its input recursively) records only its outermost call, and a call into
a layer that is already open on the thread adds no span of its own, so
nested time is never counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Any, Callable

#: Layers that open an op on their thread: the benchmark's own op span
#: in-process, the HTTP handler in a server.
ROOT_LAYERS = ("op", "http")

Counter = Callable[[Any, tuple, dict], dict]


class Tracer:
    """Installs wrappers and aggregates their spans until uninstalled."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []
        self.reset()

    # -- aggregation ---------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.request_s: dict[str, float] = defaultdict(float)
            self.background_s: dict[str, float] = defaultdict(float)
            self.counts: dict[str, float] = defaultdict(float)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "request_s": dict(self.request_s),
                "background_s": dict(self.background_s),
                "counts": dict(self.counts),
            }

    def _thread(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []  # [layer, start, child seconds]
            local.active: set[int] = set()
        return local

    def call(
        self,
        layer: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        key: int,
        count: Counter | None = None,
    ) -> Any:
        local = self._thread()
        if key in local.active:
            return fn(*args, **kwargs)
        local.active.add(key)
        stack = local.stack
        try:
            if any(frame[0] == layer for frame in stack):
                result = fn(*args, **kwargs)
            else:
                frame = [layer, time.perf_counter(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    duration = time.perf_counter() - frame[1]
                    if stack:
                        stack[-1][2] += duration
                    on_request = (stack[0][0] if stack else layer) in ROOT_LAYERS
                    with self._lock:
                        table = self.request_s if on_request else self.background_s
                        table[layer] += duration - frame[2]
                        if layer in ROOT_LAYERS:
                            self.counts[layer + ".total_s"] += duration
            if count is not None:
                counted = count(result, args, kwargs)
                with self._lock:
                    for name, value in counted.items():
                        self.counts[name] += value
            return result
        finally:
            local.active.discard(key)

    def run(self, layer: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn`` inside a span of its own (the benchmark's root op)."""
        return self.call(layer, fn, args, {}, id(fn))

    # -- installation --------------------------------------------------
    def wrap(self, fn: Callable, layer: str, count: Counter | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(layer, fn, args, kwargs, id(traced), count)

        return traced

    def patch_function(
        self, module: types.ModuleType, name: str, layer: str,
        count: Counter | None = None,
    ) -> None:
        """Wrap ``module.name`` and every ``from module import name`` copy."""
        original = getattr(module, name)
        traced = self.wrap(original, layer, count)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, traced)

    def patch_method(
        self, cls: type, name: str, layer: str, count: Counter | None = None
    ) -> None:
        original = cls.__dict__[name]
        self._restore.append((cls, name, original))
        setattr(cls, name, self.wrap(original, layer, count))

    def patch_json(self, module: types.ModuleType) -> None:
        """Route ``module``'s ``json.dumps`` through the ``encode`` layer."""
        proxy = types.ModuleType("json")
        proxy.__dict__.update(json.__dict__)
        proxy.dumps = self.wrap(json.dumps, "encode", _count_encoded)
        self._restore.append((module, "json", module.json))
        module.json = proxy

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _count_encoded(result: Any, _args: tuple, _kwargs: dict) -> dict:
    return {"encode.calls": 1, "encode.bytes": len(result)}


def _count_len(name: str) -> Counter:
    return lambda result, _a, _k: {name: len(result)}


def _count_one(name: str) -> Counter:
    return lambda _r, _a, _k: {name: 1}


def _count_specs(result: Any, args: tuple, _kwargs: dict) -> dict:
    # execute_many(self, specs, frame) runs len(specs); execute runs one.
    specs = args[1] if len(args) > 1 and isinstance(args[1], (list, tuple)) else None
    return {"execute.specs": len(specs) if specs is not None else 1}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.core import compiler, interestingness, metadata
    from repro.core.actions.base import Action
    from repro.core.executor.df_exec import DataFrameExecutor
    from repro.core.optimizer import sampling, scheduler
    from repro.dataframe.frame import DataFrame
    from repro.service import http_api, session, shard, store
    from repro.service.supervisor import Supervisor
    from repro.vis import vegalite

    tracer.patch_function(metadata, "compute_metadata", "metadata",
                          _count_one("metadata.full_scans"))
    tracer.patch_function(metadata, "refresh_metadata", "metadata",
                          _count_one("metadata.refreshes"))
    tracer.patch_function(compiler, "compile_intent", "compile")
    tracer.patch_function(interestingness, "score_vis", "score",
                          _count_one("score.calls"))
    tracer.patch_function(scheduler, "run_actions", "pass")
    tracer.patch_function(sampling, "rank_candidates", "pass")
    tracer.patch_function(vegalite, "to_vegalite", "vegalite")
    tracer.patch_function(vegalite, "json_safe", "json_safe")
    tracer.patch_function(session, "serialize_recommendations", "serialize")
    for cls in _subclasses(Action):
        if "candidates" in cls.__dict__:
            tracer.patch_method(cls, "candidates", "plan",
                                _count_len("plan.candidates"))
    tracer.patch_method(Action, "candidate_footprints", "plan")
    tracer.patch_method(DataFrameExecutor, "execute", "execute", _count_specs)
    tracer.patch_method(DataFrameExecutor, "execute_many", "execute", _count_specs)
    for name in ("put", "put_pass", "carry", "restore_pass"):
        tracer.patch_method(store.ResultStore, name, "store.put")
    for name in ("get", "get_pass"):
        tracer.patch_method(store.ResultStore, name, "store.get")
    for module in (http_api, store, shard):
        tracer.patch_json(module)
    tracer.patch_method(Supervisor, "recommendations", "rpc")
    for name in ("do_GET", "do_POST"):
        tracer.patch_method(http_api._Handler, name, "http")
    for backend in (http_api.LocalBackend, http_api.ShardBackend):
        for name in ("recommendations", "mutate"):
            tracer.patch_method(backend, name, "backend")
    tracer.patch_method(DataFrame, "__repr__", "render")


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
