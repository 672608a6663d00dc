"""What the benchmark runs, and why each workload and metric exists.

The metric names, units and directions live in ``BENCHMARK.json`` at
the repository root; this module holds the workload constants and, for
every per-layer metric, what it measures and which end-to-end metric
it should move on which workload (``test_perfbench.py`` keeps the two
in step).
"""

from __future__ import annotations

#: Workload name -> (why it exists, the layers it is meant to load).
WORKLOADS = {
    "warm-replay": (
        "Steady-state operator traffic: open-loop Poisson arrivals over a "
        "Zipf mix of the 14 presets, ~70% LRU hits, ~20% surface hits, "
        "~10% in-region surface admits.",
        "HTTP parse, coalescer window, resolve/validate, LRU and surface "
        "probe; almost no plans execute, so exact-path changes should not "
        "move it and front-end changes should.",
    ),
    "cold-batch": (
        "Bulk exact evaluation: a closed loop on one connection streams "
        "/v1/batch bodies of distinct points to a daemon with no cache and "
        "no surfaces.",
        "Model build (root solving), lockstep quantile search and stacked "
        "MGF/Euler evaluation; HTTP and the coalescer are negligible.",
    ),
    "admit-edge": (
        "The capacity question at the domain edges: open-loop exact "
        "/v1/admit across all presets, budgets tight to loose, plus ~20% "
        "/v1/rtt at one to a few gamers.",
        "Many narrow serialized exact evaluations per request (brentq load "
        "inversion); it also carries the known floor-load ParameterError, "
        "ZeroDivisionError and infeasible-capacity defects, counted as "
        "failures.",
    ),
}

#: The fixed Zipf rank of the registry presets (rank 1 is the paper's
#: DSL scenario).  Fixed, not drawn from the seed, so every seed loads
#: the same surfaces and set-up costs the same work.
PRESET_RANK = (
    "paper-dsl",
    "counter-strike",
    "half-life",
    "quake3",
    "halo",
    "unreal-tournament",
    "paper-dsl-tick40",
    "dsl-mixed-background",
    "multi-game-dsl",
    "cable",
    "ftth",
    "lte",
    "cloud-gaming",
    "satellite-leo",
)

#: warm-replay: the Zipf-head presets that get certified surfaces.
SURFACE_PRESETS = PRESET_RANK[:3]

#: warm-replay: the certified region and tolerance of those surfaces.
#: The request generator keeps surface traffic inside it.
SURFACE_REGION = {
    "load_lo": 0.2,
    "load_hi": 0.8,
    "probability_lo": 0.999,
    "probability_hi": 0.99999,
    "tolerance": 1e-4,
}

#: warm-replay: offered Poisson rate (req/s) and traffic shares.  The
#: rate keeps the daemon well below saturation (the knee lies between
#: 400 and 600 req/s on two CPUs), so a slower machine moves the tail
#: less.
WARM_RATE = 100.0
WARM_POPULAR_POINTS = 24
WARM_SHARES = {"lru": 0.70, "surface": 0.20, "admit": 0.10}
#: warm-replay: seconds of untimed traffic after set-up, so lazy engine
#: construction and first-touch costs finish before timing.
WARM_UP_S = 1.0

#: cold-batch: requests per /v1/batch body (one coalescer window at the
#: daemon's default max_batch), quantile levels and method mix.
BATCH_SIZE = 64
COLD_LEVELS = (0.999, 0.9999, 0.99999)
COLD_OTHER_METHODS = ("erlang-sum", "dominant-pole", "chernoff", "sum-of-quantiles")
COLD_OTHER_SHARE = 0.2
COLD_LOAD_LO = 0.05
COLD_LOAD_HI = 0.9
#: cold-batch: batch calls of the traced run.  Fixed work, so the exact
#: counts (plans, stacked calls, root solves) repeat for a seed.
TRACE_BATCH_CALLS = 24

#: admit-edge: offered Poisson rate (req/s), rtt share, budget range.
#: An exact admit holds the GIL for ~10 ms, so the rate stays low enough
#: that two rarely overlap.
ADMIT_RATE = 20.0
ADMIT_RTT_SHARE = 0.2
ADMIT_BUDGET_MS = (4.0, 400.0)
ADMIT_LOW_LOAD = 0.05

#: Keep-alive connections of the open-loop generator (capped at nproc).
CONNECTIONS = 2

#: Set-ups per run; ``setup_s`` is their median.  warm-replay builds
#: surfaces in each, so it repeats fewer.
SETUP_REPEATS = {"warm-replay": 3, "cold-batch": 5, "admit-edge": 5}

#: A run whose generator released requests later than this (p99) is
#: flagged: the generator, not the daemon, then shaped the arrivals.
LAG_LIMIT_MS = 20.0

#: Per-layer metric -> (what it measures, what it should move).
LAYER_METRICS = {
    "daemon.overhead_ms": (
        "median client round trip minus the RequestCoalescer.submit span "
        "(cold-batch: batch call minus the union of its submit spans)",
        "latency_p50_ms on warm-replay",
    ),
    "daemon.http_errors": ("HTTP errors (/stats delta)", "fail fraction on admit-edge"),
    "coalescer.wait_ms": (
        "median submit span minus the AsyncFleet.serve_async span of its window",
        "latency_p50_ms on warm-replay",
    ),
    "coalescer.requests_per_window": (
        "coalesced requests per flushed window (/stats delta)",
        "latency_p50_ms on warm-replay; throughput_rps on cold-batch",
    ),
    "coalescer.deduped": (
        "requests answered by riding an in-flight evaluation (/stats delta)",
        "latency_p50_ms on warm-replay; throughput_rps on cold-batch",
    ),
    "fleet.resolve_us": ("median Fleet.resolve_request span", "latency_p50_ms on warm-replay"),
    "fleet.self_ms": (
        "median serve_async self time: compile, LRU and assemble, without "
        "the resolve, probe and execute children",
        "latency_p50_ms on warm-replay; throughput_rps on cold-batch",
    ),
    "fleet.lru_hit_frac": (
        "LRU hits per fleet request (/stats delta)",
        "none: a workload invariant",
    ),
    "fleet.surface_hit_frac": (
        "surface hits per fleet request (/stats delta)",
        "none: a workload invariant",
    ),
    "fleet.lru_hit_p50_ms": (
        "client-observed median latency of the LRU-hit traffic class",
        "latency_p50_ms on warm-replay",
    ),
    "surface.hit_p50_ms": (
        "client-observed median latency of the surface-hit traffic class",
        "latency_p50_ms on warm-replay",
    ),
    "surface.probe_us": ("median SurfaceIndex.probe span", "latency_p50_ms on warm-replay"),
    "surface.build_s": (
        "build_surface time for the workload's surfaces",
        "setup_s on warm-replay",
    ),
    "rtt.plans": ("execute_plan spans (exact count)", "throughput_rps on cold-batch"),
    "rtt.models_per_plan": (
        "models per executed plan: the stack width",
        "throughput_rps on cold-batch",
    ),
    "rtt.execute_ms": ("total execute_plan time", "throughput_rps on cold-batch"),
    "rtt.build_ms": (
        "total EvalPlan.build_models + QueueingMgfStack.group_indices time "
        "(group_indices triggers the lazy root solving)",
        "throughput_rps on cold-batch; latency_p50_ms on admit-edge",
    ),
    "rtt.stacked_eval_ms": (
        "total QueueingMgfStack.__call__ time",
        "throughput_rps on cold-batch",
    ),
    "rtt.stacked_calls": (
        "QueueingMgfStack.__call__ spans (exact count)",
        "throughput_rps on cold-batch",
    ),
    "downstream.solve_root_ms": ("total solve_root time", "throughput_rps on cold-batch"),
    "downstream.solve_root_calls": (
        "solve_root calls (exact count)",
        "throughput_rps on cold-batch",
    ),
    "inversion.search_self_ms": (
        "total quantiles_from_mgfs self time: thread rendezvous and bookkeeping",
        "throughput_rps on cold-batch",
    ),
    "engine.admit_ms": (
        "median Engine.admit span",
        "latency_p50_ms on admit-edge",
    ),
    "engine.plans_per_admit": (
        "execute_plan spans per Engine.admit span",
        "latency_p50_ms on admit-edge",
    ),
    "engine.evals_per_admit": (
        "per-model ComposedRttModel.rtt_quantile spans per Engine.admit span "
        "(the exact admit path evaluates point by point, outside plans)",
        "latency_p50_ms on admit-edge",
    ),
    "engine.errors.ParameterError": ("ParameterError responses", "fail fraction on admit-edge"),
    "engine.errors.ZeroDivisionError": (
        "ZeroDivisionError responses",
        "fail fraction on admit-edge",
    ),
    "engine.errors.infeasible": (
        "admit answers whose exact RTT at max_load exceeds the budget",
        "fail fraction on admit-edge",
    ),
    "loadgen.fail_frac": ("failed / attempted operations", "none: reported as measured"),
    "loadgen.lag_ms": ("p99 of how late the generator released requests", "none: a validity check"),
    "loadgen.reconnects": ("reconnects after a server-side close", "none: a validity check"),
    "trace.overhead_frac": (
        "traced vs untraced run: p50 latency (open loop) or elapsed time "
        "(cold-batch) ratio minus one",
        "none",
    ),
}
