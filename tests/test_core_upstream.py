"""Tests for the upstream queueing models (N*D/D/1, M/D/1, multi-class M/G/1)."""

import math

import numpy as np
import pytest

from oracles import brentq_md1_pole
from repro.core import MD1Queue, MultiClassMG1Queue, PeriodicSourcesQueue, TrafficClass
from repro.errors import ParameterError, StabilityError


@pytest.fixture()
def paper_upstream() -> MD1Queue:
    """The Section 4 upstream queue at 40% downlink load (80 gamers)."""
    return MD1Queue(arrival_rate=80 / 0.040, packet_bits=640.0, rate_bps=5e6)


class TestPeriodicSourcesQueue:
    def test_load(self):
        queue = PeriodicSourcesQueue(num_sources=80, interval_s=0.040, packet_bits=640, rate_bps=5e6)
        assert queue.load == pytest.approx(0.256)

    def test_unstable_configuration_rejected(self):
        with pytest.raises(StabilityError):
            PeriodicSourcesQueue(num_sources=400, interval_s=0.040, packet_bits=640, rate_bps=5e6)

    def test_binomial_estimate_decreasing_in_delay(self):
        queue = PeriodicSourcesQueue(num_sources=100, interval_s=0.040, packet_bits=640, rate_bps=2e6)
        assert queue.delay_tail_binomial(0.001) >= queue.delay_tail_binomial(0.005)

    def test_chernoff_estimate_close_to_binomial(self):
        queue = PeriodicSourcesQueue(num_sources=100, interval_s=0.040, packet_bits=640, rate_bps=2e6)
        for delay in (0.002, 0.004):
            binom = queue.delay_tail_binomial(delay)
            chernoff = queue.delay_tail_chernoff(delay)
            if binom > 1e-12:
                assert math.log(chernoff) == pytest.approx(math.log(binom), abs=2.5)

    def test_chernoff_estimate_against_simulation(self):
        queue = PeriodicSourcesQueue(num_sources=60, interval_s=0.040, packet_bits=640, rate_bps=1.5e6)
        sim = queue.simulate_delays(4000, rng=np.random.default_rng(3))
        for delay in (0.001, 0.002):
            empirical = float((sim > delay).mean())
            estimate = queue.delay_tail_chernoff(delay)
            if empirical > 1e-4:
                assert math.log10(estimate) == pytest.approx(math.log10(empirical), abs=1.0)

    def test_quantile_bracketing(self):
        queue = PeriodicSourcesQueue(num_sources=100, interval_s=0.040, packet_bits=640, rate_bps=2e6)
        q = queue.delay_quantile_chernoff(0.999)
        assert q > 0.0
        assert queue.delay_tail_chernoff(q) == pytest.approx(1e-3, rel=0.05)

    def test_poisson_limit_preserves_load(self):
        queue = PeriodicSourcesQueue(num_sources=80, interval_s=0.040, packet_bits=640, rate_bps=5e6)
        md1 = queue.poisson_limit()
        assert md1.load == pytest.approx(queue.load)

    def test_periodic_delays_below_poisson(self):
        """Periodic smoothing: the N*D/D/1 tail is below the M/D/1 tail."""
        queue = PeriodicSourcesQueue(num_sources=50, interval_s=0.040, packet_bits=640, rate_bps=1.2e6)
        md1 = queue.poisson_limit()
        delay = 0.004
        assert queue.delay_tail_chernoff(delay) <= md1.delay_tail_chernoff(delay) * 1.5


class TestMD1Queue:
    def test_load_and_service_time(self, paper_upstream):
        assert paper_upstream.service_time_s == pytest.approx(1.28e-4)
        assert paper_upstream.load == pytest.approx(0.256)

    def test_unstable_configuration_rejected(self):
        with pytest.raises(StabilityError):
            MD1Queue(arrival_rate=10_000, packet_bits=640, rate_bps=5e6)

    def test_mean_waiting_time_pollaczek_khinchine(self, paper_upstream):
        rho, d = paper_upstream.load, paper_upstream.service_time_s
        assert paper_upstream.mean_waiting_time() == pytest.approx(rho * d / (2 * (1 - rho)))

    def test_mean_sojourn_adds_service(self, paper_upstream):
        assert paper_upstream.mean_sojourn_time() == pytest.approx(
            paper_upstream.mean_waiting_time() + paper_upstream.service_time_s
        )

    def test_dominant_pole_solves_equation(self, paper_upstream):
        gamma = paper_upstream.dominant_pole
        lam, d = paper_upstream.arrival_rate, paper_upstream.service_time_s
        assert gamma == pytest.approx(lam * math.expm1(gamma * d), rel=1e-9)
        assert gamma > 0.0

    @pytest.mark.parametrize(
        "load", np.concatenate([np.geomspace(1e-6, 0.5, 30), np.linspace(0.5, 0.999, 30)])
    )
    def test_closed_form_pole_matches_the_brentq_oracle(self, load):
        queue = MD1Queue(arrival_rate=load / 1.28e-4, packet_bits=640.0, rate_bps=5e6)
        expected = brentq_md1_pole(queue)
        assert abs(queue.dominant_pole - expected) <= 1e-12 * expected

    def test_exact_mgf_has_unit_value_at_zero(self, paper_upstream):
        assert paper_upstream.mgf_exact(0.0) == 1.0

    def test_exact_mgf_diverges_at_pole(self, paper_upstream):
        with pytest.raises(ParameterError):
            paper_upstream.mgf_exact(paper_upstream.dominant_pole * 1.01)

    def test_one_pole_waiting_time_mass(self, paper_upstream):
        waiting = paper_upstream.waiting_time()
        assert waiting.total_mass == pytest.approx(1.0)
        assert waiting.atom_mass == pytest.approx(1.0 - paper_upstream.load)

    def test_residue_coefficient_positive_and_below_load(self, paper_upstream):
        residue = paper_upstream.residue_coefficient()
        assert 0.0 < residue < 1.0

    def test_waiting_time_invalid_coefficient(self, paper_upstream):
        with pytest.raises(ParameterError):
            paper_upstream.waiting_time(coefficient="exact")

    def test_crommelin_cdf_monotone(self, paper_upstream):
        xs = [0.0, 1e-4, 3e-4, 6e-4, 1e-3]
        values = [paper_upstream.waiting_time_cdf_exact(x) for x in xs]
        assert values == sorted(values)
        assert values[0] == pytest.approx(1.0 - paper_upstream.load, rel=1e-9)

    def test_crommelin_matches_simulation(self, paper_upstream):
        sim = paper_upstream.simulate_waiting_times(300_000, rng=np.random.default_rng(4))
        for x in (1e-4, 3e-4, 5e-4):
            exact = 1.0 - paper_upstream.waiting_time_cdf_exact(x)
            empirical = float((sim > x).mean())
            assert exact == pytest.approx(empirical, abs=2e-3)

    def test_one_pole_tail_tracks_crommelin(self, paper_upstream):
        """Eq. (14) is an approximation; it should track the exact tail within a factor."""
        waiting = paper_upstream.waiting_time(coefficient="residue")
        for x in (3e-4, 6e-4):
            exact = 1.0 - paper_upstream.waiting_time_cdf_exact(x)
            approx = waiting.tail(x)
            assert approx == pytest.approx(exact, rel=0.35)

    def test_chernoff_estimate_close_to_exact(self, paper_upstream):
        for x in (3e-4, 6e-4):
            exact = 1.0 - paper_upstream.waiting_time_cdf_exact(x)
            estimate = paper_upstream.delay_tail_chernoff(x)
            assert math.log10(estimate) == pytest.approx(math.log10(exact), abs=1.0)

    def test_mean_matches_simulation(self, paper_upstream):
        sim = paper_upstream.simulate_waiting_times(300_000, rng=np.random.default_rng(5))
        assert paper_upstream.mean_waiting_time() == pytest.approx(float(sim.mean()), rel=0.05)


class TestMultiClassMG1:
    def test_requires_at_least_one_class(self):
        with pytest.raises(ParameterError):
            MultiClassMG1Queue(classes=(), rate_bps=1e6)

    def test_single_class_matches_md1(self):
        md1 = MD1Queue(arrival_rate=2000.0, packet_bits=640, rate_bps=5e6)
        multi = MultiClassMG1Queue.from_classes(
            [TrafficClass(num_sources=80, interval_s=0.040, packet_bits=640)], rate_bps=5e6
        )
        assert multi.load == pytest.approx(md1.load)
        assert multi.mean_waiting_time() == pytest.approx(md1.mean_waiting_time(), rel=1e-9)
        assert multi.dominant_pole == pytest.approx(md1.dominant_pole, rel=1e-9)

    def test_two_classes_load_adds_up(self):
        multi = MultiClassMG1Queue.from_classes(
            [
                TrafficClass(num_sources=40, interval_s=0.040, packet_bits=640),
                TrafficClass(num_sources=40, interval_s=0.060, packet_bits=1000),
            ],
            rate_bps=5e6,
        )
        expected = 40 * 640 / (0.040 * 5e6) + 40 * 1000 / (0.060 * 5e6)
        assert multi.load == pytest.approx(expected)

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            MultiClassMG1Queue.from_classes(
                [TrafficClass(num_sources=1000, interval_s=0.040, packet_bits=640)], rate_bps=1e6
            )

    def test_waiting_time_mass(self):
        multi = MultiClassMG1Queue.from_classes(
            [
                TrafficClass(num_sources=60, interval_s=0.040, packet_bits=640),
                TrafficClass(num_sources=30, interval_s=0.060, packet_bits=1000),
            ],
            rate_bps=5e6,
        )
        waiting = multi.waiting_time()
        assert waiting.total_mass == pytest.approx(1.0)
        assert waiting.atom_mass == pytest.approx(1.0 - multi.load)

    def test_mean_waiting_time_against_simulation(self, rng):
        classes = [
            TrafficClass(num_sources=60, interval_s=0.040, packet_bits=640),
            TrafficClass(num_sources=30, interval_s=0.060, packet_bits=1600),
        ]
        multi = MultiClassMG1Queue.from_classes(classes, rate_bps=3e6)
        # Simulate the M/G/1 queue with the mixture service time directly.
        lam = multi.arrival_rate
        weights = [c.arrival_rate / lam for c in classes]
        services = np.array([c.packet_bits / 3e6 for c in classes])
        n = 300_000
        choice = rng.choice(len(classes), size=n, p=weights)
        service_samples = services[choice]
        inter_arrivals = rng.exponential(1.0 / lam, size=n)
        w = 0.0
        waits = np.empty(n)
        for i in range(n):
            waits[i] = w
            w = max(w + service_samples[i] - inter_arrivals[i], 0.0)
        assert multi.mean_waiting_time() == pytest.approx(float(waits[1000:].mean()), rel=0.1)
