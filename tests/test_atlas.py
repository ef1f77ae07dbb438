"""Atlas: byte-determinism, parallel identity, reuse, gate, CLI.

The contracts under test (DESIGN.md §14):

* the canonical summary is a pure function of the config -- two runs at
  the same seed serialise byte-identically, serial or ``--workers N``;
* the journal makes an atlas resumable with bit-identical replays;
* a two-resolution atlas builds one space per resolution;
* the baseline gate fails (naming suite, query and metric) on injected
  regressions and passes on a pristine baseline.
"""

import json
import os

import pytest

from repro.atlas import (
    AtlasConfig,
    build_summary,
    canonical_json,
    compare_summaries,
    format_violations,
    load_summary,
    parse_tolerances,
    render_atlas_html,
    run_atlas,
    write_summary,
)
from repro.atlas.driver import collect_exhibits
from repro.cli import main
from repro.common.errors import DiscoveryError

#: Small but real: two suites, a synthetic regime, both algorithms.
CONFIG = dict(queries=("2D_EQ", "2D_Q91"),
              regimes=("baseline", "tail-blowup"),
              algorithms=("spillbound",), resolutions=(4,))


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestConfig:
    def test_round_trips_through_dict(self):
        config = AtlasConfig(**CONFIG)
        clone = AtlasConfig.from_dict(config.to_dict())
        assert clone.to_dict() == config.to_dict()

    def test_overrides_replace_fields(self):
        config = AtlasConfig(**CONFIG)
        clone = AtlasConfig.from_dict(config.to_dict(), ratio=4.0,
                                      seed=None)
        assert clone.ratio == 4.0
        assert clone.seed == config.seed

    def test_unknown_field_refused(self):
        with pytest.raises(DiscoveryError):
            AtlasConfig.from_dict({"queries": ["2D_EQ"], "bogus": 1})

    def test_unknown_regime_refused(self):
        with pytest.raises(DiscoveryError):
            AtlasConfig(regimes=("baseline", "benign"))

    def test_qualified_names(self):
        config = AtlasConfig(**dict(CONFIG, seed=3))
        assert config.qualified("2D_EQ", "baseline") == "2D_EQ"
        assert config.qualified("2D_EQ", "tail-blowup") == \
            "2D_EQ@tail-blowup#3"
        assert AtlasConfig(**CONFIG).qualified(
            "2D_EQ", "tail-blowup") == "2D_EQ@tail-blowup"


class TestSummary:
    def test_summary_shape_and_metrics(self):
        result = run_atlas(AtlasConfig(**CONFIG))
        summary = build_summary(result)
        assert summary["schema"].startswith("repro-atlas/")
        assert len(summary["units"]) == 4
        unit = summary["units"]["res4/2D_Q91@tail-blowup/spillbound"]
        assert unit["suite"] == "tpcds"
        assert unit["regime"] == "tail-blowup"
        assert unit["skeleton"] == "2D_Q91"
        assert unit["locations"] == 16
        assert unit["mso"] >= unit["regret_p99"] + 1.0 >= \
            unit["regret_p90"] + 1.0 >= unit["regret_p50"] + 1.0
        # SpillBound's D^2+3D guarantee must hold empirically.
        assert unit["guarantee"] == pytest.approx(10.0)
        assert unit["bound_slack"] == \
            pytest.approx(unit["guarantee"] - unit["mso"])
        assert set(summary["suites"]) == {"tpch", "tpcds"}
        assert summary["totals"]["units"] == 4

    def test_same_seed_byte_identical(self):
        config = AtlasConfig(**CONFIG)
        one = canonical_json(build_summary(run_atlas(config)))
        two = canonical_json(build_summary(run_atlas(config)))
        assert one == two

    def test_different_seed_differs(self):
        one = canonical_json(build_summary(
            run_atlas(AtlasConfig(**CONFIG))))
        two = canonical_json(build_summary(
            run_atlas(AtlasConfig(**dict(CONFIG, seed=9)))))
        assert one != two

    def test_parallel_matches_serial_byte_for_byte(self):
        config = AtlasConfig(**CONFIG)
        serial = canonical_json(build_summary(run_atlas(config)))
        parallel = canonical_json(build_summary(
            run_atlas(config, workers=4)))
        assert serial == parallel

    def test_summary_round_trips_canonically(self, tmp_path):
        summary = build_summary(run_atlas(AtlasConfig(**CONFIG)))
        path = str(tmp_path / "summary.json")
        write_summary(path, summary)
        loaded = load_summary(path)
        assert canonical_json(loaded) == canonical_json(summary)

    def test_load_rejects_non_summary(self, tmp_path):
        path = str(tmp_path / "x.json")
        with open(path, "w") as handle:
            json.dump({"nope": 1}, handle)
        with pytest.raises(ValueError):
            load_summary(path)


class TestReuseAndJournal:
    def test_two_resolution_run_builds_one_space_per_resolution(self):
        # One session serves every resolution: both algorithms share
        # each resolution's space, so the run builds exactly two.
        config = AtlasConfig(queries=("2D_EQ",), regimes=("baseline",),
                             algorithms=("spillbound", "alignedbound"),
                             resolutions=(4, 7))
        result = run_atlas(config)
        reuse = result.stats()["reuse"]
        assert reuse["space_builds"] == 2

    def test_journal_resume_replays_bit_identically(self, tmp_path):
        config = AtlasConfig(**CONFIG)
        journal = str(tmp_path / "journal")
        first = run_atlas(config, journal_dir=journal)
        assert first.stats()["journal"]["executed"] == 4
        second = run_atlas(config, journal_dir=journal, resume=True)
        assert second.stats()["journal"]["replayed"] == 4
        assert second.stats()["journal"]["executed"] == 0
        assert canonical_json(build_summary(second)) == \
            canonical_json(build_summary(first))

    def test_stats_stay_out_of_summary(self):
        result = run_atlas(AtlasConfig(**CONFIG))
        text = canonical_json(build_summary(result))
        for volatile in ("space_memory_hits", "contour_builds",
                         "replayed", "journal"):
            assert volatile not in text


class TestGate:
    def _summary(self, **overrides):
        return build_summary(run_atlas(
            AtlasConfig(**dict(CONFIG, **overrides))))

    def test_identical_summaries_pass(self):
        summary = self._summary()
        violations, notes = compare_summaries(summary, summary)
        assert violations == []
        assert notes == []

    def test_doctored_mso_regression_fails_with_names(self):
        baseline = self._summary()
        current = json.loads(canonical_json(baseline))
        key = "res4/2D_Q91@tail-blowup/spillbound"
        current["units"][key]["mso"] *= 1.5
        violations, _ = compare_summaries(baseline, current)
        assert len(violations) == 1
        violation = violations[0]
        assert violation["suite"] == "tpcds"
        assert violation["query"] == "2D_Q91@tail-blowup"
        assert violation["metric"] == "mso"
        line = format_violations(violations)[0]
        assert "suite=tpcds" in line
        assert "query=2D_Q91@tail-blowup" in line
        assert "metric=mso" in line

    def test_improvement_never_fails(self):
        baseline = self._summary()
        current = json.loads(canonical_json(baseline))
        for unit in current["units"].values():
            unit["mso"] *= 0.5
            unit["aso"] *= 0.5
        violations, _ = compare_summaries(baseline, current)
        assert violations == []

    def test_within_tolerance_passes(self):
        baseline = self._summary()
        current = json.loads(canonical_json(baseline))
        key = next(iter(current["units"]))
        current["units"][key]["mso"] *= 1.04  # below the 5% default
        violations, _ = compare_summaries(baseline, current)
        assert violations == []

    def test_shrinking_bound_slack_fails(self):
        baseline = self._summary()
        current = json.loads(canonical_json(baseline))
        key = "res4/2D_EQ/spillbound"
        current["units"][key]["bound_slack"] -= 2.0
        violations, _ = compare_summaries(baseline, current)
        assert [v["metric"] for v in violations] == ["bound_slack"]

    def test_new_degraded_location_fails_by_default(self):
        baseline = self._summary()
        current = json.loads(canonical_json(baseline))
        key = "res4/2D_EQ/spillbound"
        current["units"][key]["degraded"] += 1
        violations, _ = compare_summaries(baseline, current)
        assert [v["metric"] for v in violations] == ["degraded"]

    def test_missing_unit_is_a_regression(self):
        baseline = self._summary()
        current = json.loads(canonical_json(baseline))
        key = sorted(current["units"])[0]
        del current["units"][key]
        violations, _ = compare_summaries(baseline, current)
        assert any(v["metric"] == "missing" and v["unit"] == key
                   for v in violations)
        assert "missing" in format_violations(violations)[0]

    def test_new_units_and_config_drift_are_notes(self):
        baseline = self._summary()
        current = json.loads(canonical_json(baseline))
        current["units"]["res4/NEW/unit"] = \
            json.loads(canonical_json(
                current["units"]["res4/2D_EQ/spillbound"]))
        current["config"]["ratio"] = 4.0
        violations, notes = compare_summaries(baseline, current)
        assert violations == []
        assert any("new unit" in note for note in notes)
        assert any("config drift" in note for note in notes)

    def test_parse_tolerances(self):
        tolerances = parse_tolerances(["mso=0.2", "degraded=2"])
        assert tolerances["mso"] == 0.2
        assert tolerances["degraded"] == 2.0
        assert tolerances["aso"] == 0.05
        with pytest.raises(DiscoveryError):
            parse_tolerances(["nonsense=1"])
        with pytest.raises(DiscoveryError):
            parse_tolerances(["mso=abc"])


class TestReport:
    def test_html_is_self_contained(self):
        result = collect_exhibits(run_atlas(AtlasConfig(**CONFIG)),
                                  limit=2)
        summary = build_summary(result)
        html = render_atlas_html(summary, result=result,
                                 stats=result.stats())
        assert html.startswith("<!DOCTYPE html>")
        assert "<h1>Robustness atlas</h1>" in html
        assert "MSO heatmaps" in html
        assert html.count("<svg") >= 3  # heatmaps + exhibit figures
        assert "Worst-location exhibits" in html
        assert "res4/2D_Q91@tail-blowup/spillbound" in html
        assert "Reuse (volatile)" in html
        # No external fetches: a static report must carry everything.
        assert "http://" not in html and "https://" not in html \
            or "xmlns" in html  # the SVG namespace is declarative only

    def test_exhibits_cap_and_payload(self):
        result = collect_exhibits(run_atlas(AtlasConfig(**CONFIG)),
                                  limit=1)
        exhibits = [u for u in result.units if u.exhibit is not None]
        assert len(exhibits) == 1
        exhibit = exhibits[0].exhibit
        assert exhibit["result"].sub_optimality >= 1.0
        assert any(r.get("type") == "run-end"
                   for r in exhibit["records"])


ATLAS_FLAGS = ["--queries", "2D_EQ,2D_Q91",
               "--regimes", "baseline,tail-blowup",
               "--algorithms", "spillbound", "--resolutions", "4"]


class TestCLI:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        out_dir = str(tmp_path / "atlas")
        code, out = run_cli(["atlas", "run", "--out", out_dir]
                            + ATLAS_FLAGS, capsys)
        assert code == 0
        assert os.path.exists(os.path.join(out_dir,
                                           "atlas_summary.json"))
        assert os.path.exists(os.path.join(out_dir, "atlas_stats.json"))
        assert os.path.exists(os.path.join(out_dir,
                                           "atlas_report.html"))
        assert "atlas: 4 units" in out
        assert "reuse:" in out

    def test_bless_then_check_passes(self, tmp_path, capsys):
        baseline = str(tmp_path / "base.json")
        code, out = run_cli(["atlas", "bless", "--baseline", baseline]
                            + ATLAS_FLAGS, capsys)
        assert code == 0
        code, out = run_cli(["atlas", "check", "--baseline", baseline],
                            capsys)
        assert code == 0
        assert "passed" in out

    def test_bless_is_byte_deterministic(self, tmp_path, capsys):
        one = str(tmp_path / "one.json")
        two = str(tmp_path / "two.json")
        assert run_cli(["atlas", "bless", "--baseline", one]
                       + ATLAS_FLAGS, capsys)[0] == 0
        assert run_cli(["atlas", "bless", "--baseline", two,
                        "--workers", "4"] + ATLAS_FLAGS, capsys)[0] == 0
        with open(one, "rb") as a, open(two, "rb") as b:
            assert a.read() == b.read()

    def test_injected_regression_fails_check(self, tmp_path, capsys):
        # End-to-end injection: a coarser contour ladder (--ratio 4)
        # genuinely degrades discovery, so the re-run must regress
        # against the blessed ratio-2 baseline and the gate must name
        # the failing suite, query and metric.
        baseline = str(tmp_path / "base.json")
        assert run_cli(["atlas", "bless", "--baseline", baseline]
                       + ATLAS_FLAGS, capsys)[0] == 0
        code, out = run_cli(["atlas", "check", "--baseline", baseline,
                             "--ratio", "4.0"], capsys)
        assert code == 1
        assert "REGRESSION" in out
        assert "suite=" in out and "query=" in out and "metric=" in out
        assert "config drift" in out
        assert "FAILED" in out

    def test_tolerance_override_can_absorb_injection(self, tmp_path,
                                                     capsys):
        baseline = str(tmp_path / "base.json")
        assert run_cli(["atlas", "bless", "--baseline", baseline]
                       + ATLAS_FLAGS, capsys)[0] == 0
        code, out = run_cli(
            ["atlas", "check", "--baseline", baseline, "--ratio", "4.0",
             "--tolerance", "mso=10", "--tolerance", "aso=10",
             "--tolerance", "regret_p50=10",
             "--tolerance", "regret_p90=10",
             "--tolerance", "regret_p99=10",
             "--tolerance", "bound_slack=10"], capsys)
        assert code == 0

    def test_run_resume_replays(self, tmp_path, capsys):
        out_dir = str(tmp_path / "atlas")
        assert run_cli(["atlas", "run", "--out", out_dir, "--no-html"]
                       + ATLAS_FLAGS, capsys)[0] == 0
        code, out = run_cli(["atlas", "run", "--out", out_dir,
                             "--resume", "--no-html"] + ATLAS_FLAGS,
                            capsys)
        assert code == 0
        assert "4 replayed, 0 executed" in out

    def test_missing_baseline_errors(self, tmp_path, capsys):
        with pytest.raises(FileNotFoundError):
            run_cli(["atlas", "check", "--baseline",
                     str(tmp_path / "nope.json")], capsys)


class TestSweepReuseOutput:
    def test_sweep_prints_reuse_counters(self, capsys):
        code, out = run_cli(
            ["sweep", "2D_Q91", "--resolution", "5",
             "--algorithms", "spillbound"], capsys)
        assert code == 0
        assert "Artifact reuse" in out
        assert "space_builds" in out

    def test_durable_sweep_prints_reuse_counters(self, tmp_path,
                                                 capsys):
        code, out = run_cli(
            ["sweep", "2D_Q91", "--resolution", "5",
             "--algorithms", "spillbound",
             "--journal", str(tmp_path / "journal")], capsys)
        assert code == 0
        assert "Artifact reuse" in out
        assert "contour_hits" in out
