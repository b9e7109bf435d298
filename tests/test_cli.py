import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bispinor import cli
from bispinor.harness.checks import (
    REGISTRY,
    check_magnetic_trs_convention,
    check_noncommutation_witness,
    run_all,
)
from bispinor.harness.config import ConfigError, SuiteConfig
from bispinor.spectrum import eigenvalues

FAST = ["--gamma", "0.0,0.5", "--beta", "1.0", "--grid=-2:2:5",
        "--samples", "10", "--seed", "3"]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_small_config_passes(self, capsys):
        code, out, _ = run(["verify", *FAST], capsys)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        # one line per check plus the summary line
        assert len(lines) == len(REGISTRY) + 1
        assert all(ln.startswith("PASS") for ln in lines[:-1])
        assert lines[-1].startswith(f"{len(REGISTRY)}/{len(REGISTRY)}")

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run(["verify", *FAST, "--tol", "1e-16"], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_bad_gamma_is_usage_error(self, capsys):
        code, _, err = run(["verify", "--gamma", "1.5"], capsys)
        assert code == 2
        assert "error" in err

    def test_bad_grid_spec(self, capsys):
        code, _, err = run(["verify", "--grid", "nonsense"], capsys)
        assert code == 2
        assert "grid" in err

    def test_unequal_grid_point_counts_rejected(self, capsys):
        code, _, err = run(["spectrum", "--grid=-1:1:2,-1:1:5"], capsys)
        assert code == 2
        assert "same point count" in err

    @pytest.mark.parametrize("command, option", [
        ("spectrum", "--beta=nan"),
        ("verify", "--beta=nan"),
        ("verify", "--beta=inf"),
        ("verify", "--tol=nan"),
        ("verify", "--tol=inf"),
        ("verify", "--gamma=nan"),
        ("spectrum", "--grid=-inf:3:5"),
        ("texture", "--grid=0:nan:5"),
    ])
    def test_nonfinite_input_is_usage_error(self, command, option, capsys):
        code, out, err = run([command, option], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("command", ["verify", "spectrum", "texture"])
    def test_negative_seed_is_usage_error(self, command, capsys):
        code, out, err = run([command, "--seed=-1"], capsys)
        assert code == 2
        assert err.startswith("error:") and "seed" in err
        assert out == ""

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_config_rejects_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            SuiteConfig(seed=seed)

    @pytest.mark.parametrize("command", ["verify", "spectrum", "texture"])
    def test_infinite_grid_width_is_usage_error(self, command, capsys):
        # both bounds are finite, but hi - lo overflows to inf
        code, out, err = run([command, "--grid=-1e308:1e308:12"], capsys)
        assert code == 2
        assert err.startswith("error:") and "width" in err
        assert out == ""

    def test_box_inside_the_small_disc_is_a_registry_usage_error(self, capsys):
        # the registry draws momenta with |p| > 1e-2; none lie in this box
        code, out, err = run(["verify", "--grid=-0.005:0.005:12", "--samples", "5"], capsys)
        assert code == 2
        assert err.startswith("error:") and "1e-2" in err
        assert out == ""

    @pytest.mark.parametrize("half_width, code", [("0.0071", 2), ("0.00708", 2), ("0.0075", 0)])
    def test_redraws_of_small_momenta_are_bounded(self, half_width, code):
        # 3e-5 and 2e-6 of the first two boxes lie outside |p| <= 1e-2, 7e-3 of
        # the third: a usage error within the timeout, not minutes of redraws
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["verify", f"--grid=-{half_width}:{half_width}:12", "--samples", "5"]
        proc = subprocess.run([sys.executable, "-m", "bispinor.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == code
        if code == 2:
            assert proc.stderr.startswith("error:") and "1e-2" in proc.stderr
            assert proc.stdout == ""

    def test_wide_box_passes(self, capsys):
        # eigenvalues near 900 once broke the reversed-Schroedinger check's
        # fixed finite-difference step; the exact identity holds at any |p|
        code, out, _ = run(["verify", "--grid=-30:30:12"], capsys)
        assert code == 0
        assert out.splitlines()[-1].startswith(f"{len(REGISTRY)}/{len(REGISTRY)} checks passed")

    @pytest.mark.parametrize("command", ["spectrum", "texture"])
    def test_exports_accept_a_box_inside_the_small_disc(self, command, capsys):
        code, out, _ = run([command, "--grid=-0.005:0.005:12"], capsys)
        assert code == 0
        assert out


class TestReport:
    def test_written_report_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run(["report", *FAST, "--out", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["tolerance"] == 1e-10
        ids = [e["test_id"] for e in payload["entries"]]
        assert ids == sorted(ids) or len(ids) == len(set(ids))

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["report", *FAST, "--out", str(a)], capsys)
        run(["report", *FAST, "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_residuals_not_verdicts(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["report", *FAST[:-1], "11", "--out", str(a)], capsys)
        run(["report", *FAST[:-1], "12", "--out", str(b)], capsys)
        pa = json.loads(a.read_text())
        pb = json.loads(b.read_text())
        assert [e["status"] for e in pa["entries"]] == \
            [e["status"] for e in pb["entries"]]

    def test_entry_fields(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        run(["report", *FAST, "--out", str(out_path)], capsys)
        payload = json.loads(out_path.read_text())
        for entry in payload["entries"]:
            assert set(entry) >= {"test_id", "paper_ref", "status",
                                  "max_residual", "samples"}
            assert entry["status"] in ("pass", "fail")

    def test_nonfinite_residuals_are_written_as_null(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        with np.errstate(all="ignore"):
            code, out, _ = run(["report", "--grid=-1e160:1e160:12", "--samples", "5",
                                "--out", str(out_path)], capsys)
        assert code == 1

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        entries = json.loads(out_path.read_text(), parse_constant=reject)["entries"]
        nulls = [e for e in entries if e["max_residual"] is None]
        assert len(nulls) == out.count("residual=inf") > 0
        assert all(e["status"] == "fail" for e in nulls)


class TestSpectrumExport:
    def test_csv_matches_closed_form(self, capsys):
        code, out, _ = run(
            ["spectrum", "--gamma", "0.3", "--beta", "1.5",
             "--grid=-1:1:3", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows
        for row in rows:
            p = (float(row["p1"]), float(row["p2"]))
            lp, lm = eigenvalues(float(row["beta"]), p)
            assert abs(float(row["lambda_plus"]) - lp) < 1e-12
            assert abs(float(row["lambda_minus"]) - lm) < 1e-12

    def test_eigenvalues_independent_of_gamma(self, capsys):
        _, out, _ = run(["spectrum", "--gamma", "0.0,0.8", "--beta", "1.0",
                         "--grid=-2:2:4", "--format", "json"], capsys)
        rows = json.loads(out)
        by_gamma = {}
        for row in rows:
            key = (row["p1"], row["p2"])
            by_gamma.setdefault(row["gamma"], {})[key] = (
                row["lambda_plus"], row["lambda_minus"])
        g0, g8 = by_gamma[0.0], by_gamma[0.8]
        assert g0.keys() == g8.keys()
        for key in g0:
            assert np.abs(np.array(g0[key]) - np.array(g8[key])).max() < 1e-12

    def test_all_betas_zero_rejected(self, capsys):
        code, _, err = run(["spectrum", "--beta", "0.0"], capsys)
        assert code == 2
        assert "degenerate" in err

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "spec.csv"
        code, _, _ = run(["spectrum", "--grid=-1:1:3",
                          "--out", str(out_path), "--format", "csv"], capsys)
        assert code == 0
        header = out_path.read_text().splitlines()[0]
        assert header.split(",")[:4] == ["gamma", "beta", "p1", "p2"]

    def test_origin_skipped(self, capsys):
        # a 3x3 grid on [-1, 1]^2 holds the origin: 8 points per (gamma, beta)
        _, out, _ = run(["spectrum", "--gamma", "0.0,0.4", "--beta", "1.0,2.0",
                         "--grid=-1:1:3", "--format", "csv"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2 * 2 * 8
        assert not any(float(r["p1"]) == float(r["p2"]) == 0.0 for r in rows)


@pytest.mark.parametrize("command", ["spectrum", "texture"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nonfinite_export_is_rejected(command, fmt, capsys):
    # |p| ~ 1e160 overflows p^2: the export must fail instead of writing
    # inf/NaN (invalid JSON), and without a RuntimeWarning per row
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run([command, "--grid=-1e160:1e160:2",
                              f"--format={fmt}"], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestTextureExport:
    def test_planar_texture(self, capsys):
        _, out, _ = run(["texture", "--gamma", "0.0,0.6", "--beta", "1.0",
                         "--grid=-2:2:4", "--format", "json"], capsys)
        for row in json.loads(out):
            assert abs(row["v3"]) < 1e-12

    def test_undeformed_winding(self, capsys):
        _, out, _ = run(["texture", "--gamma", "0.0", "--beta", "1.0",
                         "--grid=-2:2:4", "--format", "json"], capsys)
        for row in json.loads(out):
            phi = np.arctan2(row["p1"], row["p2"])
            sign = 1.0 if row["branch"] == "plus" else -1.0
            assert abs(row["v1"] - sign * np.cos(phi)) < 1e-10
            assert abs(row["v2"] + sign * np.sin(phi)) < 1e-10

    def test_csv_unit_spin_vectors(self, capsys):
        code, out, _ = run(["texture", "--gamma", "0.0,0.6", "--beta", "1.0",
                            "--grid=-1:1:3", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2 * 2 * 8       # branch x gamma x grid off the origin
        assert [r["branch"] for r in rows] == ["plus", "minus"] * (len(rows) // 2)
        for r in rows:
            v = np.array([float(r["v1"]), float(r["v2"]), float(r["v3"])])
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "texture.json"
        code, out, _ = run(["texture", "--grid=-1:1:3", "--out", str(out_path),
                            "--format", "json"], capsys)
        assert code == 0
        assert out == ""
        rows = json.loads(out_path.read_text())
        assert len(rows) == 2 * len(SuiteConfig().gamma_values) * 8
        assert set(rows[0]) == {"branch", "gamma", "p1", "p2", "v1", "v2", "v3"}


class TestRegistry:
    def test_ids_unique_and_reported(self):
        ids = [entry[0] for entry in REGISTRY]
        assert len(ids) == len(set(ids))
        report = run_all(SuiteConfig(gamma_values=(0.0, 0.5),
                                     beta_values=(1.0,), samples=10,
                                     grid_points=5, seed=3))
        assert [e.test_id for e in report.entries] == ids
        assert all(e.paper_ref for e in report.entries)

    def test_nonfinite_witnesses_fail(self):
        # |p| ~ 1e160 overflows every matrix entry; a NaN witness must not
        # count as "visibly nonzero"
        cfg = SuiteConfig(p1_range=(-1e160, 1e160), p2_range=(-1e160, 1e160))
        for check in (check_noncommutation_witness, check_magnetic_trs_convention):
            with np.errstate(all="ignore"):
                residual, _ = check(cfg, np.random.default_rng(7))
            assert residual > cfg.tolerance

    def test_grid_equals_syntax_with_negative_bound(self, capsys):
        code, _, _ = run(["verify", "--gamma", "0.0", "--beta", "1.0",
                          "--grid=-1:1:4", "--samples", "5"], capsys)
        assert code == 0
