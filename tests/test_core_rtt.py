"""Tests for the end-to-end Ping-time model (Sections 3.3 and 4)."""

import warnings

import numpy as np
import pytest

from repro.core import PingTimeModel
from repro.core.dimensioning import one_gamer_load
from repro.core.rtt import QUANTILE_METHODS
from repro.engine import Engine
from repro.errors import ParameterError, StabilityError
from repro.scenarios.registry import available_scenarios, get_scenario


def paper_model(load=0.4, erlang_order=9, tick=0.040, server_bytes=125.0):
    return PingTimeModel.from_downlink_load(
        load,
        tick_interval_s=tick,
        client_packet_bytes=80.0,
        server_packet_bytes=server_bytes,
        erlang_order=erlang_order,
        access_uplink_bps=128e3,
        access_downlink_bps=1024e3,
        aggregation_rate_bps=5e6,
    )


class TestConstruction:
    def test_from_downlink_load_inverts_eq37(self):
        model = paper_model(load=0.4)
        assert model.num_gamers == pytest.approx(80.0)
        assert model.downlink_load == pytest.approx(0.4)

    def test_uplink_load_scales_with_packet_ratio(self):
        model = paper_model(load=0.4)
        assert model.uplink_load == pytest.approx(0.4 * 80.0 / 125.0)

    def test_rejects_erlang_order_one(self):
        with pytest.raises(ParameterError):
            paper_model(erlang_order=1)

    def test_rejects_unstable_downlink(self):
        with pytest.raises((ParameterError, StabilityError)):
            paper_model(load=1.2)

    def test_rejects_unstable_uplink(self):
        # P_S < P_C: a downlink load of 0.97 implies an uplink load > 1.
        with pytest.raises(StabilityError):
            paper_model(load=0.97, server_bytes=75.0)

    def test_with_gamers(self):
        model = paper_model().with_gamers(40.0)
        assert model.num_gamers == 40.0
        assert model.downlink_load == pytest.approx(0.2)

    def test_mean_burst_service(self):
        model = paper_model(load=0.4)
        assert model.mean_burst_service_s == pytest.approx(8 * 80 * 125 / 5e6)


class TestDeterministicDelays:
    def test_serialization_delay_components(self):
        model = paper_model()
        expected = 640 / 128e3 + 640 / 5e6 + 1000 / 5e6 + 1000 / 1024e3
        assert model.serialization_delay_s == pytest.approx(expected)

    def test_serialization_is_a_few_ms(self):
        # Section 4: the serialization contribution is of the order of a few ms.
        assert 0.002 < paper_model().serialization_delay_s < 0.010

    def test_propagation_counted_twice(self):
        base = paper_model()
        with_prop = PingTimeModel.from_downlink_load(
            0.4,
            tick_interval_s=0.040,
            client_packet_bytes=80.0,
            server_packet_bytes=125.0,
            erlang_order=9,
            access_uplink_bps=128e3,
            access_downlink_bps=1024e3,
            aggregation_rate_bps=5e6,
            propagation_delay_s=0.005,
        )
        assert with_prop.deterministic_delay_s == pytest.approx(
            base.deterministic_delay_s + 0.010
        )


class TestQueueingDelay:
    def test_component_loads_are_consistent(self):
        model = paper_model(load=0.4)
        assert model.upstream_queue().load == pytest.approx(model.uplink_load)
        assert model.downstream_queue().load == pytest.approx(model.downlink_load)

    def test_mean_queueing_delay_is_sum_of_component_means(self):
        model = paper_model(load=0.4)
        expected = (
            model._upstream_terms.mean()
            + model._burst_terms.mean()
            + model._position_terms.mean()
        )
        assert model.mean_queueing_delay() == pytest.approx(expected)

    def test_queueing_mgf_at_zero_is_one(self):
        assert paper_model().queueing_mgf(0.0) == pytest.approx(1.0)

    def test_queueing_tail_decreases(self):
        model = paper_model(load=0.4)
        assert model.queueing_tail(0.01) > model.queueing_tail(0.03) > model.queueing_tail(0.06)

    def test_erlang_sum_matches_inversion_when_well_conditioned(self):
        model = paper_model(load=0.7)
        inversion = model.queueing_quantile(method="inversion")
        erlang_sum = model.queueing_quantile(method="erlang-sum")
        assert erlang_sum == pytest.approx(inversion, rel=1e-3)

    def test_quantile_methods_are_ordered_sensibly(self):
        model = paper_model(load=0.5)
        exact = model.queueing_quantile(method="inversion")
        chernoff = model.queueing_quantile(method="chernoff")
        sum_of_quantiles = model.queueing_quantile(method="sum-of-quantiles")
        # Both bounds/approximations must not under-estimate the exact
        # quantile by more than a whisker.
        assert chernoff >= exact * 0.99
        assert sum_of_quantiles >= exact * 0.99

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            paper_model().queueing_quantile(method="magic")

    def test_all_methods_return_positive_values(self):
        model = paper_model(load=0.4)
        for method in QUANTILE_METHODS:
            assert model.queueing_quantile(0.999, method=method) >= 0.0

    def test_quantile_against_monte_carlo(self):
        """End-to-end check of the queueing-delay quantile (paper's headline point)."""
        model = paper_model(load=0.4, erlang_order=9, tick=0.040)
        rng = np.random.default_rng(123)
        n = 300_000
        burst = model.downstream_queue().simulate_waiting_times(n, rng=rng)
        position = model.position_delay().sample_uniform(n, rng=rng)
        upstream_terms = model._upstream_terms
        weight = upstream_terms.terms[0].coefficient.real
        gamma = upstream_terms.terms[0].rate.real
        upstream = np.where(rng.random(n) < weight, rng.exponential(1.0 / gamma, n), 0.0)
        total = burst + position + upstream
        for prob in (0.999, 0.9999):
            analytic = model.queueing_quantile(prob)
            empirical = float(np.quantile(total, prob))
            assert analytic == pytest.approx(empirical, rel=0.06)


class TestRttQuantiles:
    def test_headline_dimensioning_point(self):
        """P_S=125B, K=9, T=40ms, 40% load -> RTT quantile ~50 ms (Section 4)."""
        model = paper_model(load=0.4, erlang_order=9, tick=0.040)
        assert model.rtt_quantile_ms() == pytest.approx(50.0, abs=5.0)

    def test_rtt_increases_with_load(self):
        assert paper_model(load=0.6).rtt_quantile() > paper_model(load=0.3).rtt_quantile()

    def test_rtt_decreases_with_erlang_order(self):
        assert (
            paper_model(load=0.5, erlang_order=20).rtt_quantile()
            < paper_model(load=0.5, erlang_order=2).rtt_quantile()
        )

    def test_rtt_roughly_proportional_to_tick(self):
        """Figure 4: the queueing part of the RTT scales with T (60/40 = 3/2)."""
        fast = paper_model(load=0.5, tick=0.040)
        slow = paper_model(load=0.5, tick=0.060)
        ratio = slow.queueing_quantile() / fast.queueing_quantile()
        assert ratio == pytest.approx(1.5, rel=0.02)

    def test_mean_rtt_below_high_quantile(self):
        model = paper_model(load=0.5)
        assert model.mean_rtt() < model.rtt_quantile(0.99999)

    def test_rtt_quantile_ms_conversion(self):
        model = paper_model(load=0.4)
        assert model.rtt_quantile_ms() == pytest.approx(1e3 * model.rtt_quantile())

    def test_breakdown_is_consistent(self):
        model = paper_model(load=0.4)
        breakdown = model.breakdown(0.9999)
        assert breakdown.rtt_quantile_s == pytest.approx(
            breakdown.total_queueing_quantile_s + model.deterministic_delay_s
        )
        as_dict = breakdown.as_dict()
        assert set(as_dict) >= {"serialization_s", "rtt_quantile_s", "packet_position_s"}

    def test_downstream_dominates_when_ps_exceeds_pc(self):
        """Section 4: for P_S > P_C the downstream contribution dominates."""
        breakdown = paper_model(load=0.5).breakdown(0.9999)
        downstream = breakdown.downstream_burst_s + breakdown.packet_position_s
        assert downstream > 5.0 * breakdown.upstream_queueing_s

    def test_deterministic_bound_exceeds_quantile(self):
        model = paper_model(load=0.5)
        bound = model.deterministic_bound()
        assert bound.rtt_bound_s > model.rtt_quantile(0.99999)


class TestDominantPoleAtLowLoad:
    """At low load the burst-waiting poles converge on the position pole
    with weights ~1e-18; the residue must stay well defined there."""

    @pytest.mark.parametrize("preset", available_scenarios())
    def test_low_load_sweep_is_finite_and_warning_free(self, preset):
        scenario = get_scenario(preset)
        engine = Engine(scenario)
        loads = np.geomspace(one_gamer_load(scenario), 0.05, 25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for load in loads:
                model = engine.model_at_load(float(load))
                rtt = model.rtt_quantile(0.999, "dominant-pole")
                assert np.isfinite(rtt), load
                assert rtt > model.deterministic_delay_s, load
