"""Tests for the package surface (exports, CLI module) and report helpers."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.report import format_kv, format_series, format_table


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_headline_exports_available(self):
        for name in (
            "PingTimeModel",
            "DEKOneQueue",
            "MD1Queue",
            "ErlangTermSum",
            "PacketPositionDelay",
            "max_tolerable_load",
            "DEFAULT_QUANTILE",
        ):
            assert hasattr(repro, name), name

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_import(self):
        import repro.distributions
        import repro.experiments
        import repro.netsim
        import repro.scenarios
        import repro.traffic

        assert repro.distributions.Erlang is not None
        assert repro.traffic.PacketTrace is not None

    def test_module_entry_point_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "fps-ping" in result.stdout


class TestPyproject:
    """The install metadata that provides the ``fps-ping`` command."""

    @pytest.fixture(scope="class")
    def project(self):
        tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
        path = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with path.open("rb") as handle:
            return tomllib.load(handle)

    def test_console_script_resolves_to_the_cli(self, project):
        target = project["project"]["scripts"]["fps-ping"]
        assert target == "repro.cli:main"
        module, _, attribute = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attribute))

    def test_version_matches_the_package(self, project):
        assert project["project"]["name"] == "fps-ping"
        assert project["project"]["version"] == repro.__version__

    def test_declares_python_floor_and_runtime_dependencies(self, project):
        assert project["project"]["requires-python"] == ">=3.10"
        assert sorted(project["project"]["dependencies"]) == ["numpy", "scipy"]

    def test_packages_are_found_under_src(self, project):
        assert project["build-system"]["build-backend"] == "setuptools.build_meta"
        assert project["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
        root = Path(__file__).resolve().parents[1]
        assert (root / "src" / "repro" / "__init__.py").is_file()


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["alpha", 1.0], ["b", 123456.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) or len(line) <= len(lines[0]) + 20 for line in lines)

    def test_format_table_number_rendering(self):
        text = format_table(["x"], [[0.000123], [1234567.0], [0.5]])
        assert "0.000123" in text
        assert "1.23e+06" in text
        assert "0.5" in text

    def test_format_kv_contains_title_and_keys(self):
        text = format_kv({"load": 0.4, "gamers": 80}, title="Scenario")
        assert text.splitlines()[0] == "Scenario"
        assert "load" in text and "80" in text

    def test_format_series_columns(self):
        text = format_series("load", [0.1, 0.2], {"K=9": [10.0, 20.0], "K=20": [5.0, 9.0]})
        assert "K=9" in text and "K=20" in text
        assert len(text.splitlines()) == 4
