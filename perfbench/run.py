"""The repository benchmark: open-loop replay against the real daemon.

Run from the repository root::

    python3 perfbench/run.py --workload warm-replay --seed 1 --seconds 20 --trace 0

Workloads (see ``spec.WORKLOADS`` for why each exists): ``warm-replay``,
``cold-batch`` and ``admit-edge``.  Each run starts ``fps-ping serve``
as its own process and drives it with a single-process asyncio load
generator over at most two keep-alive connections.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:
set-up time (median of several set-ups), client-observed median
latency, throughput and the daemon's peak RSS.  Tail latency (p90 and
the highest percentile with ten samples beyond it) is in the report
line but not bounded: on a small shared virtual machine the open-loop
tails moved by up to 2x between runs of the same code, far more than
the medians.  ``--trace 1`` runs the same inputs twice, once against
the plain daemon and once against ``traced_daemon.py``, and prints the
per-layer metrics (span self times and counts, ``/stats`` deltas,
generator validity and the tracing overhead).

Every run checks the answers: cold-batch compares a seeded sample
bit for bit with an in-process serial ``Fleet.serve``; warm-replay
requires LRU answers to equal the exact path and surface answers to
lie within their certified bound; admit-edge counts capacities whose
exact RTT exceeds the budget as failures.  A bit-identity or bound
failure makes the run exit 1 with ``"correct": false``.

The last line of standard output is the result JSON; the lines before
it record the environment and the run's sample counts and flags.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent


def _bootstrap_checkout() -> Path:
    """The checkout root (the working directory); puts its ``src`` first on the path."""
    root = Path.cwd().resolve()
    package = root / "src" / "repro" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package} not found; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    import repro

    if Path(repro.__file__).resolve() != package:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {package}")
    return root


ROOT = _bootstrap_checkout()

import numpy  # noqa: E402
import scipy  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.fleet import Fleet, Request  # noqa: E402
from repro.scenarios.registry import get_scenario  # noqa: E402
from repro.surface import build_surface, save_surfaces  # noqa: E402

import inputs  # noqa: E402
import loadgen  # noqa: E402
import spec  # noqa: E402
from benchstats import (  # noqa: E402
    highest_supported_percentile,
    percentile,
    union_length,
)
from daemonctl import Daemon, stats_delta  # noqa: E402
from spantree import SpanTree  # noqa: E402

#: Answers re-evaluated in process per check (seeded sample).
CHECK_SAMPLE = 64


def environment(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "perfbench": "environment",
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Outcome:
    """What one measured phase produced, plus the checks' verdicts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies_ms: List[float] = []
        self.elapsed_s = 0.0
        self.successes = 0
        self.reconnects = 0
        self.lag_ms: List[float] = []
        self.errors: Counter = Counter()
        self.problems: List[str] = []
        self.class_latency_ms: Dict[str, List[float]] = {}
        self.stats: dict = {}
        self.rss_mb = 0.0
        self.round_trips: Dict[str, float] = {}
        self.calls: List[Tuple[int, float]] = []
        #: perf_counter() interval of the timed phase (the clock spans use).
        self.window = (0.0, 0.0)


# ----------------------------------------------------------------------
# Shared phases
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _generator_without_gc():
    """Keep the generator's own garbage collector out of the timed phase.

    A collection pauses the release loop, which shows up as lag and as
    latency the daemon did not cause; the objects made during the phase
    are few enough to collect afterwards.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def _open_loop(daemon: Daemon, stream: inputs.OpenLoopInputs):
    connections = min(spec.CONNECTIONS, len(os.sched_getaffinity(0)))
    return asyncio.run(
        loadgen.open_loop(
            daemon.host, daemon.port, stream.schedule, stream.paths, stream.bodies, connections
        )
    )


def _measure_open_loop(daemon: Daemon, stream: inputs.OpenLoopInputs) -> Tuple[Outcome, list]:
    """Replay ``stream``; classify responses; keep the parsed answers."""
    outcome = Outcome()
    before = daemon.stats()
    started = time.perf_counter()
    with _generator_without_gc():
        records, outcome.reconnects = _open_loop(daemon, stream)
    outcome.window = (started, time.perf_counter())
    outcome.stats = stats_delta(before, daemon.stats())
    outcome.rss_mb = daemon.peak_rss_mb()
    answers = []
    for index, (record, kind) in enumerate(zip(records, stream.kinds)):
        outcome.attempted += 1
        outcome.lag_ms.append(1e3 * record.lag_s)
        answer = None
        if record.status == 200:
            answer = json.loads(record.body)
            outcome.successes += 1
            latency = 1e3 * record.latency_s
            outcome.latencies_ms.append(latency)
            outcome.class_latency_ms.setdefault(kind, []).append(latency)
            outcome.round_trips[str(index)] = record.round_trip_s
        else:
            outcome.failed += 1
            outcome.errors[_error_type(record.status, record.body)] += 1
        answers.append(answer)
    outcome.elapsed_s = max(r.done for r in records) - min(r.due for r in records)
    return outcome, answers


def _error_type(status: int, body: bytes) -> str:
    try:
        return json.loads(body).get("type") or f"http_{status}"
    except ValueError:
        return f"http_{status}"


def _exact(requests: List[Request]) -> List[float]:
    """In-process serial answers: a fresh fleet, no executor, no surfaces."""
    return [answer.rtt_quantile_s for answer in Fleet().serve(requests)]


def _sample(rng, indices: List[int]) -> List[int]:
    if len(indices) <= CHECK_SAMPLE:
        return indices
    return sorted(int(i) for i in rng.choice(indices, size=CHECK_SAMPLE, replace=False))


# ----------------------------------------------------------------------
# warm-replay
# ----------------------------------------------------------------------
class WarmReplay:
    name = "warm-replay"

    def __init__(self, run: "Run") -> None:
        self.run = run
        self.inputs = inputs.warm_replay(run.seed, run.seconds)
        self.surface_dir = run.rundir / "surfaces"
        self.bounds: Dict[str, float] = {}
        self.build_s = 0.0

    def setup(self, traced: bool = False) -> Tuple[Daemon, float]:
        """Build the surfaces (reused by a traced daemon), start, warm."""
        started = time.perf_counter()
        if not traced:
            shutil.rmtree(self.surface_dir, ignore_errors=True)
            self.surface_dir.mkdir(parents=True)
            built = [build_surface(p, **spec.SURFACE_REGION) for p in spec.SURFACE_PRESETS]
            self.build_s = time.perf_counter() - started
            save_surfaces(built, self.surface_dir)
            self.bounds = {
                surface.scenario_key: surface.certified_rel_bound for surface in built
            }
        daemon = self.run.daemon(["--surfaces", str(self.surface_dir)], traced)
        daemon.start()
        body = "".join(
            json.dumps({"scenario": p, "load": load, "exact": True}) + "\n"
            for p, load in self.inputs.popular
        ).encode("utf-8")
        status, payload = daemon.post("/v1/batch", body)
        lines = payload.splitlines()
        if status != 200 or len(lines) != len(self.inputs.popular) or b'"error"' in payload:
            daemon.stop()
            raise RuntimeError(f"warming the popular points failed: {status} {payload[:200]!r}")
        return daemon, time.perf_counter() - started

    def measure(self, daemon: Daemon) -> Outcome:
        _open_loop(daemon, self.inputs.warmup)
        outcome, answers = _measure_open_loop(daemon, self.inputs.timed)
        self.answers = answers
        return outcome

    def verify(self, outcome: Outcome) -> None:
        stream = self.inputs.timed
        rng = inputs.make_rng(self.run.seed, self.name, 2)
        by_kind: Dict[str, List[int]] = {}
        for index, (kind, answer) in enumerate(zip(stream.kinds, self.answers)):
            if answer is not None:
                by_kind.setdefault(kind, []).append(index)
        exact = dict(
            zip(
                self.inputs.popular,
                _exact([Request(p, downlink_load=load) for p, load in self.inputs.popular]),
            )
        )
        for index in by_kind.get("lru", []):
            record = stream.records[index]
            point = (record["scenario"], record["load"])
            if self.answers[index]["rtt_quantile_s"] != exact[point]:
                outcome.problems.append(f"LRU answer {index} differs from the exact path")
        surface = _sample(rng, by_kind.get("surface", []))
        values = _exact(
            [Request(stream.records[i]["scenario"], downlink_load=stream.records[i]["load"])
             for i in surface]
        )
        for index, value in zip(surface, values):
            answer = self.answers[index]
            bound = self.bounds[answer["scenario_key"]]
            if abs(answer["rtt_quantile_s"] - value) > bound * value:
                outcome.problems.append(f"surface answer {index} outside its certified bound")
        for index in _sample(rng, by_kind.get("admit", [])):
            answer = self.answers[index]
            if answer["source"] != "surface":
                outcome.problems.append(f"admit {index} answered from {answer['source']}")
                continue
            engine = Engine(get_scenario(stream.records[index]["scenario"]))
            value = engine.rtt_quantile(
                answer["max_load"], answer["probability"], answer["method"]
            )
            bound = self.bounds[answer["scenario_key"]]
            if abs(answer["rtt_at_max_load_s"] - value) > bound * value:
                outcome.problems.append(f"admit {index} outside its certified bound")

    def client_layers(self, outcome: Outcome) -> Dict[str, float]:
        return {
            "fleet.lru_hit_p50_ms": _median_or_zero(outcome.class_latency_ms.get("lru")),
            "surface.hit_p50_ms": _median_or_zero(outcome.class_latency_ms.get("surface")),
            "surface.build_s": self.build_s,
        }


# ----------------------------------------------------------------------
# cold-batch
# ----------------------------------------------------------------------
class ColdBatch:
    name = "cold-batch"

    def __init__(self, run: "Run") -> None:
        self.run = run

    def setup(self, traced: bool = False) -> Tuple[Daemon, float]:
        daemon = self.run.daemon([], traced)
        return daemon, daemon.start()

    def measure(self, daemon: Daemon) -> Outcome:
        stream = inputs.ColdBatchStream(self.run.seed)
        outcome = Outcome()
        before = daemon.stats()
        if self.run.trace:
            limits = {"calls": spec.TRACE_BATCH_CALLS}
        else:
            limits = {"seconds": self.run.seconds}
        started = time.perf_counter()
        with _generator_without_gc():
            calls, outcome.reconnects = asyncio.run(
                loadgen.batch_loop(daemon.host, daemon.port, stream.next_batch, **limits)
            )
        outcome.window = (started, time.perf_counter())
        outcome.stats = stats_delta(before, daemon.stats())
        outcome.rss_mb = daemon.peak_rss_mb()
        self.answered: List[Tuple[dict, dict]] = []
        for number, call in enumerate(calls):
            outcome.attempted += len(call.records)
            lines = [json.loads(line) for line in call.body.splitlines() if line.strip()]
            answers = [line for line in lines if "error" not in line]
            for line in lines:
                if "error" in line:
                    outcome.errors[line.get("type", "error")] += 1
            if call.status != 200:
                outcome.errors[f"http_{call.status}"] += 1
                answers = []
            outcome.successes += len(answers)
            outcome.failed += len(call.records) - len(answers)
            self.answered.extend(zip(call.records, answers))
            outcome.latencies_ms.append(1e3 * (call.done - call.started))
            outcome.calls.append((number, call.done - call.started))
        outcome.elapsed_s = calls[-1].done - calls[0].started
        return outcome

    def verify(self, outcome: Outcome) -> None:
        rng = inputs.make_rng(self.run.seed, self.name, 2)
        sample = _sample(rng, list(range(len(self.answered))))
        requests = [Request.from_dict(self.answered[i][0]) for i in sample]
        for index, value in zip(sample, _exact(requests)):
            record, answer = self.answered[index]
            if answer.get("tag") != record["tag"] or answer["rtt_quantile_s"] != value:
                outcome.problems.append(
                    f"batch answer {record['tag']} is not bit-identical to serial Fleet.serve"
                )

    def client_layers(self, outcome: Outcome) -> Dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# admit-edge
# ----------------------------------------------------------------------
class AdmitEdge:
    name = "admit-edge"

    def __init__(self, run: "Run") -> None:
        self.run = run
        self.inputs = inputs.admit_edge(run.seed, run.seconds)

    def setup(self, traced: bool = False) -> Tuple[Daemon, float]:
        daemon = self.run.daemon([], traced)
        return daemon, daemon.start()

    def measure(self, daemon: Daemon) -> Outcome:
        outcome, self.answers = _measure_open_loop(daemon, self.inputs)
        return outcome

    def verify(self, outcome: Outcome) -> None:
        """Infeasible capacities count as failures; they do not abort the run."""
        engines: Dict[str, Engine] = {}
        for record, answer in zip(self.inputs.records, self.answers):
            if answer is None or "max_load" not in answer or answer["max_load"] <= 0.0:
                continue
            preset = record["scenario"]
            engine = engines.get(preset)
            if engine is None:
                engine = engines[preset] = Engine(get_scenario(preset))
            value = engine.rtt_quantile(answer["max_load"], answer["probability"], answer["method"])
            if value > answer["rtt_budget_s"]:
                outcome.errors["infeasible"] += 1
                outcome.failed += 1
                outcome.successes -= 1

    def client_layers(self, outcome: Outcome) -> Dict[str, float]:
        return {}


WORKLOADS = {cls.name: cls for cls in (WarmReplay, ColdBatch, AdmitEdge)}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(outcome: Outcome, setup_times: List[float]) -> Dict[str, dict]:
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "latency_p50_ms": _metric(percentile(outcome.latencies_ms, 50.0), "ms"),
        "throughput_rps": _metric(outcome.successes / outcome.elapsed_s, "1/s"),
        "peak_rss_mb": _metric(outcome.rss_mb, "MB"),
    }


def per_layer(
    workload, plain: Outcome, traced: Outcome, tree: SpanTree, client: Dict[str, float]
) -> Dict[str, float]:
    """The per-layer metrics: /stats and client figures from the plain
    phase, span figures from the traced phase."""
    delta = plain.stats
    requests = max(delta.get("requests", 0), 1)
    submits = {span.rid: span for span in tree.by_name.get("coalescer.submit", ())}
    window_of = {
        tag: tree.spans[window_id]
        for window_id, tags in tree.windows.items()
        for tag in tags
        if tag is not None
    }
    waits = [
        1e3 * (submits[tag].duration - window.duration)
        for tag, window in window_of.items()
        if tag in submits
    ]
    if workload == "cold-batch":
        by_call: Dict[str, list] = {}
        for span in submits.values():
            by_call.setdefault(span.rid.split("-")[0], []).append((span.start, span.end))
        overhead = [
            1e3 * (duration - union_length(by_call.get(str(number), [])))
            for number, duration in traced.calls
        ]
    else:
        overhead = [
            1e3 * (round_trip - submits[tag].duration)
            for tag, round_trip in traced.round_trips.items()
            if tag in submits
        ]
    plans = tree.count("rtt.execute")
    admits = tree.by_name.get("engine.admit", [])
    metrics = {
        "daemon.overhead_ms": _median_or_zero(overhead),
        "daemon.http_errors": delta.get("http_errors", 0),
        "coalescer.wait_ms": _median_or_zero(waits),
        "coalescer.requests_per_window": delta.get("coalesced_requests", 0)
        / max(delta.get("coalesced_batches", 0), 1),
        "coalescer.deduped": delta.get("deduped_inflight", 0),
        "fleet.resolve_us": 1e6 * _median_or_zero(tree.durations("fleet.resolve")),
        "fleet.self_ms": 1e3
        * _median_or_zero([tree.self_time(s) for s in tree.by_name.get("fleet.serve_async", ())]),
        "fleet.lru_hit_frac": delta.get("cache_hits", 0) / requests,
        "fleet.surface_hit_frac": delta.get("surface_hits", 0) / requests,
        "fleet.lru_hit_p50_ms": 0.0,
        "surface.hit_p50_ms": 0.0,
        "surface.probe_us": 1e6 * _median_or_zero(tree.durations("surface.probe")),
        "surface.build_s": 0.0,
        "rtt.plans": plans,
        "rtt.models_per_plan": sum(s.n for s in tree.by_name.get("rtt.execute", ()))
        / max(plans, 1),
        "rtt.execute_ms": 1e3 * tree.total("rtt.execute"),
        "rtt.build_ms": 1e3 * (tree.total("rtt.build_models") + tree.total("rtt.group_indices")),
        "rtt.stacked_eval_ms": 1e3 * tree.total("rtt.stacked_eval"),
        "rtt.stacked_calls": tree.count("rtt.stacked_eval"),
        "downstream.solve_root_ms": 1e3 * tree.total("downstream.solve_root"),
        "downstream.solve_root_calls": tree.count("downstream.solve_root"),
        "inversion.search_self_ms": 1e3 * tree.total_self("inversion.search"),
        "engine.admit_ms": 1e3 * _median_or_zero([s.duration for s in admits]),
        "engine.plans_per_admit": sum(tree.descendants(s, "rtt.execute") for s in admits)
        / max(len(admits), 1),
        "engine.evals_per_admit": sum(tree.descendants(s, "rtt.model_quantile") for s in admits)
        / max(len(admits), 1),
        "engine.errors.ParameterError": plain.errors.get("ParameterError", 0),
        "engine.errors.ZeroDivisionError": plain.errors.get("ZeroDivisionError", 0),
        "engine.errors.infeasible": plain.errors.get("infeasible", 0),
        "loadgen.fail_frac": plain.failed / max(plain.attempted, 1),
        "loadgen.lag_ms": percentile(plain.lag_ms, 99.0) if plain.lag_ms else 0.0,
        "loadgen.reconnects": plain.reconnects,
    }
    if workload == "cold-batch":
        metrics["trace.overhead_frac"] = traced.elapsed_s / plain.elapsed_s - 1.0
    else:
        metrics["trace.overhead_frac"] = (
            percentile(traced.latencies_ms, 50.0) / percentile(plain.latencies_ms, 50.0) - 1.0
        )
    metrics.update(client)
    return metrics


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
class Run:
    def __init__(self, args) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.rundir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self._daemons: List[Daemon] = []

    def daemon(self, serve_args: List[str], traced: bool) -> Daemon:
        number = len(self._daemons) + 1
        spans = self.rundir / f"spans-{number}.json" if traced else None
        daemon = Daemon(ROOT, serve_args, self.rundir / f"daemon-{number}.log", spans)
        self._daemons.append(daemon)
        return daemon

    def stop_all(self) -> None:
        """Stop every daemon this run started (a no-op for stopped ones)."""
        for daemon in self._daemons:
            daemon.stop()


def _measure(workload, daemon: Daemon) -> Outcome:
    try:
        return workload.measure(daemon)
    finally:
        daemon.stop()


def run_plain(run: Run, workload) -> Tuple[dict, Outcome]:
    setup_times = []
    daemon = None
    for repeat in range(spec.SETUP_REPEATS[run.workload]):
        if daemon is not None:
            daemon.stop()
        daemon, seconds = workload.setup()
        setup_times.append(seconds)
    outcome = _measure(workload, daemon)
    workload.verify(outcome)
    metrics = end_to_end(outcome, setup_times)
    return metrics, outcome


def run_traced(run: Run, workload) -> Tuple[dict, Outcome, list]:
    daemon, _ = workload.setup()
    plain = _measure(workload, daemon)
    workload.verify(plain)
    daemon, _ = workload.setup(traced=True)
    traced = _measure(workload, daemon)
    tree = SpanTree.load(daemon.spans_path, *traced.window)
    problems = tree.nesting_violations()
    metrics = per_layer(run.workload, plain, traced, tree, workload.client_layers(plain))
    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    return {name: _metric(value, units[name]) for name, value in metrics.items()}, plain, problems


def _benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def report(run: Run, outcome: Outcome, nesting: Optional[list]) -> dict:
    count = len(outcome.latencies_ms)
    supported = highest_supported_percentile(count)
    flags = []
    lag = percentile(outcome.lag_ms, 99.0) if outcome.lag_ms else 0.0
    if lag > spec.LAG_LIMIT_MS:
        flags.append(f"generator fell behind: lag p99 {lag:.2f} ms")
    if nesting:
        flags.append(f"{len(nesting)} span nesting violations")
    delta = outcome.stats
    return {
        "perfbench": "report",
        "workload": run.workload,
        "why": spec.WORKLOADS[run.workload][0],
        "loads": spec.WORKLOADS[run.workload][1],
        "offered_rate_rps": {"warm-replay": spec.WARM_RATE, "admit-edge": spec.ADMIT_RATE}.get(
            run.workload
        ),
        "batch_size": spec.BATCH_SIZE if run.workload == "cold-batch" else None,
        "connections": 1 if run.workload == "cold-batch" else spec.CONNECTIONS,
        "latency_samples": count,
        "latency_p90_ms": percentile(outcome.latencies_ms, 90.0) if count else None,
        "highest_supported_percentile": supported,
        "latency_at_highest_supported_ms": (
            percentile(outcome.latencies_ms, supported) if count else None
        ),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fail_frac": outcome.failed / max(outcome.attempted, 1),
        "errors": dict(outcome.errors),
        "reconnects": outcome.reconnects,
        "lag_p99_ms": lag,
        "plans_executed": delta.get("plans_executed"),
        "lru_hits": delta.get("cache_hits"),
        "surface_hits": delta.get("surface_hits"),
        "problems": outcome.problems[:10],
        "flags": flags,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(environment(args)), flush=True)
    run = Run(args)
    run.rundir.mkdir(parents=True, exist_ok=True)
    # A terminated run still stops its daemons (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        workload = WORKLOADS[args.workload](run)
        nesting = None
        if run.trace:
            metrics, outcome, nesting = run_traced(run, workload)
        else:
            metrics, outcome = run_plain(run, workload)
    finally:
        run.stop_all()
        shutil.rmtree(run.rundir, ignore_errors=True)
    if run.workload == "cold-batch" and nesting:
        outcome.problems.append("spans do not nest on cold-batch")
    print(json.dumps(report(run, outcome, nesting)), flush=True)
    correct = not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
