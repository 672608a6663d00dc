"""Run ``fps-ping serve`` with spans recorded around each layer's entry points.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_daemon.py --spans spans.json serve --port 0 ...

The launcher replaces the public entry points of each serving layer at
the names their callers look them up, then hands the remaining
arguments to the unmodified CLI, which builds and runs the same
``ServingDaemon``.  Spans stay in memory; when the daemon has drained
(SIGTERM) they are written to ``--spans`` as JSON:
``{"fields": [...], "spans": [[id, parent, name, rid, start, end, n], ...],
"windows": {id: [request tags]}}``.  ``start``/``end`` are
``time.perf_counter()`` seconds, ``rid`` the request id (the request's
``tag``; ``w<id>`` for a coalescer window), ``n`` a work count where the
layer has one (models of a plan, rows of a stacked call).

Parents cross threads explicitly: the event loop's default executor is
replaced by one that carries the submitting task's context into the
worker thread, and the stacked evaluator handed to a lockstep search is
wrapped so its calls, made from the search's own worker threads, are
parented to that search.
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import functools
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

FIELDS = ("id", "parent", "name", "rid", "start", "end", "n")

#: (span id, request id) of the innermost open span of this context.
_current: "contextvars.ContextVar[Optional[Tuple[int, Optional[str]]]]" = (
    contextvars.ContextVar("perfbench_span", default=None)
)


class Tracer:
    """Spans kept in memory; ``list.append`` and ``next`` are atomic."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.windows: Dict[int, List[Optional[str]]] = {}
        self._ids = itertools.count(1)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        rid: Optional[Callable[..., Optional[str]]] = None,
        count: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """A synchronous wrapper recording one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _current.get()
            span_id = next(self._ids)
            request = rid(*args, **kwargs) if rid else (parent[1] if parent else None)
            token = _current.set((span_id, request))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
                n = count(*args, **kwargs) if count else None
                self.spans.append(
                    (span_id, parent[0] if parent else None, name, request, start, end, n)
                )

        return traced

    def wrap_async(
        self,
        name: str,
        fn: Callable,
        *,
        rid: Optional[Callable[..., Optional[str]]] = None,
        window: bool = False,
    ) -> Callable:
        """A coroutine wrapper; ``window`` spans are roots that record
        the tags of the requests they serve."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            parent = None if window else _current.get()
            span_id = next(self._ids)
            if window:
                request = f"w{span_id}"
                self.windows[span_id] = [getattr(r, "tag", None) for r in args[1]]
            else:
                request = rid(*args, **kwargs) if rid else (parent[1] if parent else None)
            token = _current.set((span_id, request))
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
                self.spans.append(
                    (span_id, parent[0] if parent else None, name, request, start, end, None)
                )

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump(
                {"fields": FIELDS, "spans": self.spans, "windows": self.windows}, out
            )


class _ContextExecutor(ThreadPoolExecutor):
    """The default executor, but work runs in the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class _AdoptedStack:
    """A stacked evaluator whose calls are parented to one search span."""

    def __init__(self, stack: Callable, context: Tuple[int, Optional[str]]) -> None:
        self._stack = stack
        self._context = context

    def __call__(self, s, rows):
        token = _current.set(self._context)
        try:
            return self._stack(s, rows)
        finally:
            _current.reset(token)


def _request_tag(self, request, *args, **kwargs) -> Optional[str]:
    tag = request.get("tag") if isinstance(request, dict) else getattr(request, "tag", None)
    return None if tag is None else str(tag)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points where their callers look them up."""
    import repro.core.downstream as downstream
    import repro.core.rtt as rtt
    import repro.engine as engine
    import repro.fleet as fleet
    from repro.serve.coalescer import RequestCoalescer
    from repro.serve.daemon import ServingDaemon
    from repro.surface.lookup import SurfaceIndex

    start = ServingDaemon.start

    async def start_with_context_executor(self) -> None:
        asyncio.get_running_loop().set_default_executor(
            _ContextExecutor(thread_name_prefix="asyncio")
        )
        await start(self)

    ServingDaemon.start = start_with_context_executor

    RequestCoalescer.submit = tracer.wrap_async(
        "coalescer.submit", RequestCoalescer.submit, rid=_request_tag
    )
    fleet.AsyncFleet.serve_async = tracer.wrap_async(
        "fleet.serve_async", fleet.AsyncFleet.serve_async, window=True
    )
    fleet.Fleet.resolve_request = tracer.wrap("fleet.resolve", fleet.Fleet.resolve_request)
    SurfaceIndex.probe = tracer.wrap("surface.probe", SurfaceIndex.probe)
    engine.Engine.admit = tracer.wrap("engine.admit", engine.Engine.admit)

    execute = tracer.wrap(
        "rtt.execute", rtt.execute_plan, count=lambda plan, *a, **k: len(plan.indices)
    )
    fleet.execute_plan = execute
    engine.execute_plan = execute
    rtt.EvalPlan.build_models = tracer.wrap(
        "rtt.build_models", rtt.EvalPlan.build_models, count=lambda plan: len(plan.indices)
    )
    group_indices = rtt.QueueingMgfStack.group_indices.__func__
    rtt.QueueingMgfStack.group_indices = classmethod(
        tracer.wrap("rtt.group_indices", group_indices)
    )
    rtt.QueueingMgfStack.__call__ = tracer.wrap(
        "rtt.stacked_eval",
        rtt.QueueingMgfStack.__call__,
        count=lambda stack, s, rows: len(rows),
    )
    downstream.solve_root = tracer.wrap("downstream.solve_root", downstream.solve_root)
    rtt.ComposedRttModel.rtt_quantile = tracer.wrap(
        "rtt.model_quantile", rtt.ComposedRttModel.rtt_quantile
    )

    search = rtt.quantiles_from_mgfs

    def adopting_search(mgfs, *args, stack_eval=None, **kwargs):
        if stack_eval is not None:
            stack_eval = _AdoptedStack(stack_eval, _current.get())
        return search(mgfs, *args, stack_eval=stack_eval, **kwargs)

    rtt.quantiles_from_mgfs = tracer.wrap(
        "inversion.search", adopting_search, count=lambda mgfs, *a, **k: len(mgfs)
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--spans", required=True, help="where to write the spans")
    args, cli_args = parser.parse_known_args(argv)
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
