"""Tests for the request coalescer: windows, dedup, fault recovery."""

import asyncio

import pytest

from repro.errors import ExecutorBrokenError, ReproError
from repro.executors import SerialExecutor
from repro.fleet import AsyncFleet, Fleet, Request
from repro.serve import RequestCoalescer

REQUESTS = [
    Request("ftth", downlink_load=0.40, tag="a"),
    Request("paper-dsl", downlink_load=0.30, tag="b"),
    Request("lte", num_gamers=900, tag="c"),
]


class _SlowExecutor(SerialExecutor):
    """Serial executor that parks each execution on the loop first."""

    def __init__(self, delay_s=0.02):
        self.delay_s = delay_s
        self.runs = 0

    async def run_async(self, plans):
        self.runs += 1
        await asyncio.sleep(self.delay_s)
        return await super().run_async(plans)


class _BreakOnceExecutor(SerialExecutor):
    """Raises ExecutorBrokenError on the first execution, then recovers."""

    def __init__(self):
        self.runs = 0

    async def run_async(self, plans):
        self.runs += 1
        if self.runs == 1:
            raise ExecutorBrokenError("worker killed under the batch")
        return await super().run_async(plans)


class TestConstruction:
    def test_rejects_fleet_plus_fleet_kwargs(self):
        with pytest.raises(ReproError, match="not both"):
            RequestCoalescer(Fleet(), max_cache_entries=10)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ReproError, match="max_batch"):
            RequestCoalescer(max_batch=0)
        with pytest.raises(ReproError, match="max_delay_ms"):
            RequestCoalescer(max_delay_ms=-1.0)

    def test_wraps_a_plain_fleet(self):
        fleet = Fleet()
        coalescer = RequestCoalescer(fleet)
        assert coalescer.fleet is fleet
        assert isinstance(coalescer.async_fleet, AsyncFleet)

    def test_builds_its_own_fleet_from_kwargs(self):
        coalescer = RequestCoalescer(max_cache_entries=7)
        assert coalescer.fleet.max_cache_entries == 7


class TestWindowing:
    def test_flush_on_size(self):
        async def main():
            fleet = Fleet()
            # The delay is effectively infinite: only size can flush.
            coalescer = RequestCoalescer(fleet, max_batch=3, max_delay_ms=60_000)
            answers = await asyncio.gather(*(coalescer.submit(r) for r in REQUESTS))
            return fleet, answers

        fleet, answers = asyncio.run(main())
        assert [a.tag for a in answers] == ["a", "b", "c"]
        assert fleet.stats.coalesced_batches == 1
        assert fleet.stats.coalesced_requests == 3
        assert fleet.stats.batches == 1

    def test_flush_on_timeout(self):
        async def main():
            fleet = Fleet()
            # The window never fills; only the delay timer can flush it.
            coalescer = RequestCoalescer(fleet, max_batch=100, max_delay_ms=5.0)
            answers = await asyncio.gather(
                *(coalescer.submit(r) for r in REQUESTS[:2])
            )
            return fleet, answers

        fleet, answers = asyncio.run(main())
        assert [a.tag for a in answers] == ["a", "b"]
        assert fleet.stats.coalesced_batches == 1
        assert fleet.stats.coalesced_requests == 2

    def test_oversized_burst_splits_into_full_windows(self):
        async def main():
            fleet = Fleet()
            # Two windows flush on size; the rump rides the delay timer.
            coalescer = RequestCoalescer(fleet, max_batch=2, max_delay_ms=5.0)
            requests = [
                Request("ftth", downlink_load=round(0.30 + 0.01 * i, 3), tag=str(i))
                for i in range(5)
            ]
            answers = await coalescer.submit_many(requests)
            return fleet, answers

        fleet, answers = asyncio.run(main())
        assert [a.tag for a in answers] == ["0", "1", "2", "3", "4"]
        # 5 requests at max_batch=2: two full windows plus the drained rump.
        assert fleet.stats.coalesced_batches == 3
        assert fleet.stats.coalesced_requests == 5

    def test_answers_bit_identical_to_fleet_serve(self):
        reference = Fleet().serve(REQUESTS)

        async def main():
            coalescer = RequestCoalescer(Fleet(), max_batch=3, max_delay_ms=60_000)
            return await coalescer.submit_many(REQUESTS)

        answers = asyncio.run(main())
        assert [a.rtt_quantile_s for a in answers] == [
            a.rtt_quantile_s for a in reference
        ]


class TestSingleFlight:
    def test_duplicate_of_inflight_miss_attaches(self):
        async def main():
            fleet = Fleet()
            executor = _SlowExecutor()
            coalescer = RequestCoalescer(
                fleet, max_batch=1, max_delay_ms=60_000, executor=executor
            )
            first = asyncio.ensure_future(coalescer.submit(REQUESTS[0]))
            await asyncio.sleep(0)  # flush window 1; its evaluation is in flight
            duplicate = asyncio.ensure_future(coalescer.submit(REQUESTS[0]))
            answers = await asyncio.gather(first, duplicate)
            return fleet, executor, answers

        fleet, executor, (first, duplicate) = asyncio.run(main())
        assert executor.runs == 1
        assert fleet.stats.evaluations == 1
        assert fleet.stats.deduped_inflight == 1
        assert fleet.stats.coalesced_requests == 1  # the rider is not re-batched
        assert duplicate.cached is True
        assert duplicate.rtt_quantile_s == first.rtt_quantile_s
        assert duplicate.tag == first.tag

    def test_distinct_points_are_not_deduped(self):
        async def main():
            fleet = Fleet()
            coalescer = RequestCoalescer(
                fleet, max_batch=1, max_delay_ms=60_000, executor=_SlowExecutor()
            )
            answers = await asyncio.gather(
                *(coalescer.submit(r) for r in REQUESTS)
            )
            return fleet, answers

        fleet, answers = asyncio.run(main())
        assert fleet.stats.deduped_inflight == 0
        assert fleet.stats.coalesced_requests == 3

    def test_inflight_error_reaches_the_attached_caller(self):
        class _FailingExecutor(_SlowExecutor):
            async def run_async(self, plans):
                await asyncio.sleep(self.delay_s)
                raise ValueError("boom")

        async def main():
            coalescer = RequestCoalescer(
                Fleet(), max_batch=1, max_delay_ms=60_000,
                executor=_FailingExecutor(),
            )
            first = asyncio.ensure_future(coalescer.submit(REQUESTS[0]))
            await asyncio.sleep(0)
            duplicate = asyncio.ensure_future(coalescer.submit(REQUESTS[0]))
            return await asyncio.gather(first, duplicate, return_exceptions=True)

        results = asyncio.run(main())
        assert all(isinstance(r, ValueError) for r in results)

    def test_key_is_released_after_the_window(self):
        async def main():
            fleet = Fleet()
            coalescer = RequestCoalescer(fleet, max_batch=1, max_delay_ms=60_000)
            await coalescer.submit(REQUESTS[0])
            await coalescer.drain()
            # The point is now a plain cache hit, not an in-flight rider.
            answer = await coalescer.submit(REQUESTS[0])
            return fleet, answer

        fleet, answer = asyncio.run(main())
        assert fleet.stats.deduped_inflight == 0
        assert answer.cached is True
        assert fleet.stats.cache_hits == 1


class TestErrorRouting:
    def test_bad_request_raises_at_submit(self):
        async def main():
            coalescer = RequestCoalescer(Fleet(), max_batch=2, max_delay_ms=5.0)
            return await asyncio.gather(
                coalescer.submit(REQUESTS[0]),
                coalescer.submit({"scenario": "ftth", "load": 1.5}),
                return_exceptions=True,
            )

        good, bad = asyncio.run(main())
        # The malformed request never entered the window; its neighbour
        # was answered normally.
        assert isinstance(bad, ReproError)
        assert good.tag == "a"
        assert good.rtt_quantile_s > 0.0

    def test_unknown_scenario_raises_at_submit(self):
        async def main():
            coalescer = RequestCoalescer(Fleet(), max_batch=1)
            await coalescer.submit({"scenario": "no-such-preset", "load": 0.4})

        with pytest.raises(ReproError, match="no-such-preset"):
            asyncio.run(main())

    def test_submit_after_aclose_raises(self):
        async def main():
            coalescer = RequestCoalescer(Fleet(), max_batch=4)
            await coalescer.aclose()
            await coalescer.aclose()  # idempotent
            await coalescer.submit(REQUESTS[0])

        with pytest.raises(ReproError, match="closed"):
            asyncio.run(main())


class TestFaultRecovery:
    def test_broken_executor_window_is_retried_once(self):
        reference = Fleet().serve(REQUESTS)

        async def main():
            fleet = Fleet()
            executor = _BreakOnceExecutor()
            coalescer = RequestCoalescer(
                fleet, max_batch=3, max_delay_ms=60_000, executor=executor
            )
            answers = await coalescer.submit_many(REQUESTS)
            return executor, answers

        executor, answers = asyncio.run(main())
        assert executor.runs == 2
        assert [a.rtt_quantile_s for a in answers] == [
            a.rtt_quantile_s for a in reference
        ]

    def test_persistently_broken_executor_surfaces_the_error(self):
        class _AlwaysBroken(SerialExecutor):
            async def run_async(self, plans):
                raise ExecutorBrokenError("pool keeps dying")

        async def main():
            coalescer = RequestCoalescer(
                Fleet(), max_batch=1, executor=_AlwaysBroken()
            )
            await coalescer.submit(REQUESTS[0])

        with pytest.raises(ExecutorBrokenError, match="keeps dying"):
            asyncio.run(main())

    def test_executor_failures_are_counted_per_host(self, capsys):
        class _BreakOnceWithHost(SerialExecutor):
            def __init__(self):
                self.runs = 0

            async def run_async(self, plans):
                self.runs += 1
                if self.runs == 1:
                    raise ExecutorBrokenError(
                        "worker daemon unreachable",
                        host="10.0.0.7:9101",
                        plan_count=len(plans),
                    )
                return await super().run_async(plans)

        async def main():
            fleet = Fleet()
            coalescer = RequestCoalescer(
                fleet, max_batch=3, max_delay_ms=60_000, executor=_BreakOnceWithHost()
            )
            await coalescer.submit_many(REQUESTS)
            return fleet

        fleet = asyncio.run(main())
        assert fleet.stats.executor_failures == {"10.0.0.7:9101": 1}
        assert fleet.stats.as_dict()["executor_failures"] == {"10.0.0.7:9101": 1}
        err = capsys.readouterr().err
        assert "executor failure on 10.0.0.7:9101" in err
        assert "retrying the window once" in err

    def test_failures_without_host_context_count_as_local(self):
        class _AlwaysBroken(SerialExecutor):
            async def run_async(self, plans):
                raise ExecutorBrokenError("pool keeps dying")

        async def main():
            fleet = Fleet()
            coalescer = RequestCoalescer(
                fleet, max_batch=1, executor=_AlwaysBroken()
            )
            with pytest.raises(ExecutorBrokenError):
                await coalescer.submit(REQUESTS[0])
            return fleet

        fleet = asyncio.run(main())
        # One count for the in-window retry, one for the final failure.
        assert fleet.stats.executor_failures == {"local": 2}


class TestDrain:
    def test_drain_flushes_the_partial_window(self):
        async def main():
            fleet = Fleet()
            coalescer = RequestCoalescer(fleet, max_batch=100, max_delay_ms=60_000)
            pending = [
                asyncio.ensure_future(coalescer.submit(r)) for r in REQUESTS
            ]
            await asyncio.sleep(0)
            assert coalescer.pending == 3
            await coalescer.drain()
            assert coalescer.pending == 0
            assert coalescer.inflight_windows == 0
            answers = await asyncio.gather(*pending)
            return fleet, answers

        fleet, answers = asyncio.run(main())
        assert [a.tag for a in answers] == ["a", "b", "c"]
        assert fleet.stats.coalesced_batches == 1


#: Points inside and outside the fast_paper_surface region (conftest).
IN_REGION = Request("paper-dsl", downlink_load=0.44, probability=0.99999, tag="in")
IN_REGION_EXACT = Request(
    "paper-dsl", downlink_load=0.44, probability=0.99999, exact=True, tag="exact"
)
OUT_OF_REGION = Request("paper-dsl", downlink_load=0.20, probability=0.99999, tag="out")

#: The FleetStats counters an inline warm hit must keep in step with
#: a one-request Fleet.serve.
PARITY_COUNTERS = (
    "requests",
    "cache_hits",
    "cache_misses",
    "surface_hits",
    "surface_fallbacks",
    "surface_misses",
)


def surfaced_fleet(surface):
    fleet = Fleet()
    fleet.attach_surfaces(surface)
    return fleet


class TestWarmFastPath:
    """LRU and certified-surface hits are answered at submit, inline."""

    def test_lru_and_surface_hits_skip_the_window(self, fast_paper_surface):
        fleet = surfaced_fleet(fast_paper_surface)
        fleet.serve([REQUESTS[0]])  # warm the LRU

        async def main():
            coalescer = RequestCoalescer(fleet, max_delay_ms=60_000)
            answers = []
            for request in (REQUESTS[0], IN_REGION):
                # A windowed request would wait the full minute.
                answers.append(
                    await asyncio.wait_for(coalescer.submit(request), timeout=5.0)
                )
                assert coalescer.pending == 0
            return answers

        lru, surface = asyncio.run(main())
        assert lru.cached is True and surface.cached is True
        assert lru.tag == "a" and surface.tag == "in"
        assert fleet.stats.coalesced_batches == 0
        assert fleet.stats.coalesced_requests == 0
        assert fleet.stats.cache_hits == 1
        assert fleet.stats.surface_hits == 1
        assert fleet.stats.plans_executed == 1  # the warm-up miss only

    def test_exact_and_out_of_region_requests_wait_in_the_window(
        self, fast_paper_surface
    ):
        fleet = surfaced_fleet(fast_paper_surface)

        async def main():
            coalescer = RequestCoalescer(fleet, max_delay_ms=60_000)
            pending = []
            for request in (IN_REGION_EXACT, OUT_OF_REGION):
                task = asyncio.ensure_future(coalescer.submit(request))
                await asyncio.sleep(0)
                pending.append(coalescer.pending)
                await coalescer.drain()
                await task
            return pending

        assert asyncio.run(main()) == [1, 1]
        assert fleet.stats.coalesced_batches == 2
        assert fleet.stats.surface_hits == 0
        assert fleet.stats.surface_fallbacks == 2

    def test_stats_and_floats_match_a_one_request_serve_twin(self, fast_paper_surface):
        stream = [
            IN_REGION,
            OUT_OF_REGION,
            REQUESTS[0],  # no surface for ftth: a surface miss
            IN_REGION,
            OUT_OF_REGION,  # now an LRU hit
            IN_REGION_EXACT,
            IN_REGION_EXACT,  # an exact request may take the LRU float
            REQUESTS[0],
            REQUESTS[1],
        ]
        twin = surfaced_fleet(fast_paper_surface)
        expected = [twin.serve([request])[0] for request in stream]
        fleet = surfaced_fleet(fast_paper_surface)

        async def main():
            coalescer = RequestCoalescer(fleet, max_batch=1, max_delay_ms=60_000)
            return [await coalescer.submit(request) for request in stream]

        answers = asyncio.run(main())
        for counter in PARITY_COUNTERS:
            assert getattr(fleet.stats, counter) == getattr(twin.stats, counter), counter
        assert [a.rtt_quantile_s for a in answers] == [
            a.rtt_quantile_s for a in expected
        ]
        assert [a.cached for a in answers] == [a.cached for a in expected]
        # Hits touch the scenario engines exactly as serve() does.
        assert list(fleet._engines) == list(twin._engines)

    def test_repeat_of_an_inflight_miss_rides_the_flight(self, fast_paper_surface):
        fleet = surfaced_fleet(fast_paper_surface)
        executor = _SlowExecutor()

        async def main():
            coalescer = RequestCoalescer(
                fleet, max_batch=1, max_delay_ms=60_000, executor=executor
            )
            first = asyncio.ensure_future(coalescer.submit(OUT_OF_REGION))
            await asyncio.sleep(0)  # window 1 is in flight, not yet cached
            rider = asyncio.ensure_future(coalescer.submit(OUT_OF_REGION))
            answers = await asyncio.gather(first, rider)
            # Once the flight has landed the same key is an LRU hit.
            answers.append(await coalescer.submit(OUT_OF_REGION))
            return answers

        first, rider, repeat = asyncio.run(main())
        assert executor.runs == 1
        assert fleet.stats.deduped_inflight == 1
        assert fleet.stats.coalesced_requests == 1
        assert rider.cached is True and repeat.cached is True
        assert rider.rtt_quantile_s == repeat.rtt_quantile_s == first.rtt_quantile_s
        assert fleet.stats.cache_hits == 1
