"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _BENCHES, _parse_shape, build_parser, main


class TestParseShape:
    def test_basic(self):
        assert _parse_shape("100x80x60") == (100, 80, 60)

    def test_case_insensitive(self):
        assert _parse_shape("4X5") == (4, 5)

    def test_garbage_exits(self):
        with pytest.raises(SystemExit):
            _parse_shape("4xfoo")

    def test_zero_extent_exits(self):
        with pytest.raises(SystemExit):
            _parse_shape("4x0")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["info"],
            ["plan", "4x4", "0", "2"],
            ["profile", "out.json"],
            ["predict", "4x4", "0", "2"],
            ["bench", "list"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.fn)


class TestCommands:
    @pytest.mark.parametrize("argv", [["calibrate"], ["calibrate", "probe"]])
    def test_calibrate_still_probes(self, argv, capsys, monkeypatch):
        import repro.perf.calibrate as calibrate
        from repro.analysis import CORE_I7_4770K

        monkeypatch.setattr(calibrate, "host_platform", lambda: CORE_I7_4770K)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert CORE_I7_4770K.name in out
        assert "GFLOP/s" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "CPU model" in out

    def test_plan_prints_source(self, capsys):
        assert main(["plan", "32x32x32", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "TtmPlan[32x32x32" in out
        assert "def inttm" in out

    def test_plan_col_major(self, capsys):
        assert main(["plan", "16x16x16", "1", "4", "--layout", "F"]) == 0
        assert "COL_MAJOR" in capsys.readouterr().out

    def test_predict_marks_estimator_choice(self, capsys):
        assert main(["predict", "8x8x8x8", "0", "4"]) == 0
        out = capsys.readouterr().out
        assert "<- estimator" in out
        assert "GFLOP/s (predicted)" in out

    def test_profile_saves_json(self, tmp_path, capsys, monkeypatch):
        # Shrink the measurement grid for test speed.

        def tiny_grid(m_values=(16,), **_kw):
            return [(m_values[0], 16, 16), (m_values[0], 32, 32)]

        monkeypatch.setattr("repro.gemm.bench.default_shape_grid", tiny_grid)
        out_file = tmp_path / "profile.json"
        assert main(["profile", str(out_file), "--j", "4"]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["meta"]["source"] == "measured"
        assert len(payload["points"]) == 2

    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig04", "fig10", "table1", "intensity"):
            assert name in out

    def test_bench_unknown_name(self, capsys):
        assert main(["bench", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bench_registry_covers_every_bench_file(self):
        import os

        bench_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks",
        )
        files = {
            f[: -len(".py")]
            for f in os.listdir(bench_dir)
            if f.startswith("bench_") and f.endswith(".py")
        }
        assert set(_BENCHES.values()) == files
