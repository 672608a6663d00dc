"""Tests for the named scenario preset registry."""

import pytest

import repro.scenarios
from repro.scenarios import registry
from repro.scenarios import (
    SCENARIO_PRESETS,
    PAPER_BASELINE,
    MixScenario,
    Scenario,
    available_scenarios,
    get_scenario,
    register_scenario,
    scenario_from_spec,
)
from repro.traffic.games import counter_strike, unreal_tournament


class TestLookup:
    def test_paper_baseline_preset(self):
        assert get_scenario("paper-dsl") == PAPER_BASELINE

    def test_tick40_variant(self):
        assert get_scenario("paper-dsl-tick40").tick_interval_s == pytest.approx(0.040)

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="paper-dsl"):
            get_scenario("no-such-scenario")

    def test_available_scenarios_sorted(self):
        names = available_scenarios()
        assert names == sorted(names)
        for expected in ("paper-dsl", "cable", "ftth", "lte", "counter-strike"):
            assert expected in names

    def test_every_preset_is_a_valid_scenario(self):
        for name, preset in SCENARIO_PRESETS.items():
            assert isinstance(preset, (Scenario, MixScenario)), name

    def test_every_preset_round_trips_through_dict(self):
        # The acceptance criterion of the redesign: serialization is
        # lossless — Scenario.from_dict dispatches mixes transparently.
        for name, preset in SCENARIO_PRESETS.items():
            assert Scenario.from_dict(preset.to_dict()) == preset, name


class TestPaperConstants:
    @pytest.mark.parametrize(
        "name",
        [
            "PAPER_BASELINE",
            "PAPER_ERLANG_ORDERS",
            "PAPER_SERVER_PACKET_SIZES",
            "PAPER_TICK_INTERVALS_S",
        ],
    )
    def test_package_re_exports_the_registry_constant(self, name):
        assert name in registry.__all__
        assert name in repro.scenarios.__all__
        assert getattr(repro.scenarios, name) is getattr(registry, name)

    def test_baseline_sits_on_the_paper_grid(self):
        assert registry.PAPER_ERLANG_ORDERS == (2, 9, 20)
        assert registry.PAPER_TICK_INTERVALS_S == (0.040, 0.060)
        assert registry.PAPER_SERVER_PACKET_SIZES == (75.0, 100.0, 125.0)
        assert PAPER_BASELINE.erlang_order in registry.PAPER_ERLANG_ORDERS
        assert PAPER_BASELINE.tick_interval_s in registry.PAPER_TICK_INTERVALS_S
        assert PAPER_BASELINE.server_packet_bytes in registry.PAPER_SERVER_PACKET_SIZES


class TestAccessProfiles:
    def test_access_profiles_scale_up_from_dsl(self):
        dsl = get_scenario("paper-dsl")
        for name in ("cable", "ftth", "lte"):
            preset = get_scenario(name)
            assert preset.access_downlink_bps > dsl.access_downlink_bps, name
            assert preset.aggregation_rate_bps > dsl.aggregation_rate_bps, name
            # The gaming traffic itself stays the paper's.
            assert preset.server_packet_bytes == dsl.server_packet_bytes, name


class TestGamePresets:
    def test_game_presets_wired_to_published_characteristics(self):
        cs = get_scenario("counter-strike")
        assert cs.server_packet_bytes == counter_strike.PUBLISHED.server_packet_mean_bytes
        assert cs.client_packet_bytes == counter_strike.PUBLISHED.client_packet_mean_bytes
        assert cs.tick_interval_s == pytest.approx(
            counter_strike.PUBLISHED.server_iat_mean_ms / 1e3
        )

    def test_unreal_tournament_erlang_order_from_tail_fit(self):
        ut = get_scenario("unreal-tournament")
        assert ut.erlang_order == min(unreal_tournament.PUBLISHED.erlang_order_from_tail)

    def test_all_games_have_presets(self):
        for name in ("counter-strike", "half-life", "halo", "quake3", "unreal-tournament"):
            preset = get_scenario(name)
            # Every game preset must support the analytical model.
            assert preset.model_at_load(0.3).downlink_load == pytest.approx(0.3)


class TestRegistration:
    def test_register_and_get(self):
        custom = PAPER_BASELINE.derive(erlang_order=20)
        register_scenario("test-custom", custom)
        try:
            assert get_scenario("test-custom") == custom
        finally:
            del SCENARIO_PRESETS["test-custom"]

    def test_register_refuses_silent_overwrite(self):
        with pytest.raises(KeyError):
            register_scenario("paper-dsl", PAPER_BASELINE)

    def test_register_overwrite_flag(self):
        register_scenario("test-overwrite", PAPER_BASELINE)
        try:
            replacement = PAPER_BASELINE.derive(erlang_order=2)
            register_scenario("test-overwrite", replacement, overwrite=True)
            assert get_scenario("test-overwrite") == replacement
        finally:
            del SCENARIO_PRESETS["test-overwrite"]

    def test_register_rejects_non_scenarios(self):
        with pytest.raises(TypeError):
            register_scenario("test-bad", {"erlang_order": 9})


class TestSpecResolution:
    def test_spec_resolves_preset_name(self):
        assert scenario_from_spec("ftth") == get_scenario("ftth")

    def test_spec_resolves_json_file(self, tmp_path):
        scenario = PAPER_BASELINE.derive(tick_interval_s=0.040, erlang_order=20)
        path = tmp_path / "custom.json"
        scenario.save(path)
        assert scenario_from_spec(str(path)) == scenario

    def test_spec_rejects_unknown(self):
        with pytest.raises(KeyError, match="neither a scenario preset"):
            scenario_from_spec("/nonexistent/path.json")


class TestWorkloadPresets:
    """The satellite/LEO and mixed-background profiles (ISSUE 3)."""

    def test_satellite_leo_propagation_dominates(self):
        leo = get_scenario("satellite-leo")
        lte = get_scenario("lte")
        assert leo.propagation_delay_s > lte.propagation_delay_s
        # Two-way propagation alone consumes the bulk of the paper's
        # 50 ms "excellent play" budget.
        assert 2.0 * leo.propagation_delay_s >= 0.040

    def test_satellite_leo_keeps_paper_traffic(self):
        leo = get_scenario("satellite-leo")
        dsl = get_scenario("paper-dsl")
        assert leo.server_packet_bytes == dsl.server_packet_bytes
        assert leo.client_packet_bytes == dsl.client_packet_bytes
        assert leo.tick_interval_s == dsl.tick_interval_s

    def test_mixed_background_shrinks_gaming_capacity(self):
        mixed = get_scenario("dsl-mixed-background")
        dsl = get_scenario("paper-dsl")
        assert mixed.aggregation_rate_bps < dsl.aggregation_rate_bps
        # Only the contended aggregation link changes.
        assert mixed.access_uplink_bps == dsl.access_uplink_bps
        assert mixed.access_downlink_bps == dsl.access_downlink_bps

    def test_mixed_background_carries_fewer_gamers_at_equal_load(self):
        mixed = get_scenario("dsl-mixed-background")
        dsl = get_scenario("paper-dsl")
        assert mixed.gamers_at_load(0.4) < dsl.gamers_at_load(0.4)

    @pytest.mark.parametrize("name", ["satellite-leo", "dsl-mixed-background"])
    def test_new_presets_round_trip(self, name):
        preset = get_scenario(name)
        assert Scenario.from_dict(preset.to_dict()) == preset
        assert Scenario.from_json(preset.to_json()) == preset
        assert scenario_from_spec(name) == preset

    @pytest.mark.parametrize("name", ["satellite-leo", "dsl-mixed-background"])
    def test_new_presets_support_the_model(self, name):
        preset = get_scenario(name)
        assert preset.model_at_load(0.3).downlink_load == pytest.approx(0.3)


class TestCloudGamingPreset:
    def test_registered(self):
        assert "cloud-gaming" in available_scenarios()

    def test_much_larger_server_packets_and_shorter_tick(self):
        dsl = get_scenario("paper-dsl")
        cloud = get_scenario("cloud-gaming")
        assert cloud.server_packet_bytes >= 5 * dsl.server_packet_bytes
        assert cloud.tick_interval_s <= dsl.tick_interval_s / 5.0
        # Streaming frames needs fibre-class links to stay stable.
        assert cloud.aggregation_rate_bps > dsl.aggregation_rate_bps
        assert cloud.server_processing_s > 0.0

    def test_json_round_trip(self):
        cloud = get_scenario("cloud-gaming")
        assert Scenario.from_json(cloud.to_json()) == cloud
        assert Scenario.from_dict(cloud.to_dict()) == cloud

    def test_derive_keeps_the_profile(self):
        cloud = get_scenario("cloud-gaming")
        variant = cloud.derive(erlang_order=12)
        assert variant.erlang_order == 12
        assert variant.server_packet_bytes == cloud.server_packet_bytes
        assert variant.tick_interval_s == cloud.tick_interval_s

    def test_supports_the_analytical_model_across_loads(self):
        cloud = get_scenario("cloud-gaming")
        for load in (0.1, 0.5, 0.85):
            model = cloud.model_at_load(load)
            assert model.downlink_load == pytest.approx(load)
            assert model.uplink_load < 1.0
        # Thousands of concurrent cloud-gaming streams at 40% load.
        assert cloud.gamers_at_load(0.40) > 500
