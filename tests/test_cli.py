import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bispinor import cli
from bispinor.harness import checks, tables
from bispinor.harness.checks import (
    REGISTRY,
    _nonzero_witness,
    check_magnetic_trs_convention,
    check_noncommutation_witness,
    run_all,
    worst_term,
)
from bispinor.harness.config import ConfigError, SuiteConfig
from bispinor.spectrum import eigenvalues

FAST = ["--gamma", "0.0,0.5", "--beta", "1.0", "--grid=-2:2:5",
        "--samples", "10", "--seed", "3"]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv, timeout):
    """``python -m bispinor.cli argv`` in a fresh interpreter with the
    checkout's ``src`` first on the path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "bispinor.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def exit_code(argv, capsys):
    """The exit code of ``bispinor argv``, whether main returns it or
    argparse exits with it."""
    try:
        return run(argv, capsys)[0]
    except SystemExit as exc:
        capsys.readouterr()
        return exc.code


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

    @pytest.mark.parametrize("field, value", [
        ("samples", 2.5), ("samples", True), ("samples", 0),
        ("grid_points", 3.5), ("grid_points", True), ("grid_points", 1),
    ])
    def test_config_rejects_counts_that_are_not_ints(self, field, value):
        # a float count used to reach the checks and fail them with a
        # TypeError; the seed has its own test above
        with pytest.raises(ConfigError, match="integer"):
            SuiteConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("p1_range", (0.0, 1.0, 2.0), "p1_range must be a pair"),
        ("p1_range", 3.0, "p1_range must be a pair"),
        ("p2_range", "ab", "p2_range must be a pair"),
        ("p2_range", (0.0, "1"), "p2_range must be a pair"),
        ("tolerance", "1e-3", "tolerance must be a number"),
        ("tolerance", True, "tolerance must be a number"),
        ("beta_values", ("x",), "beta_values must be a sequence of numbers"),
        ("beta_values", (True,), "beta_values must be a sequence of numbers"),
        ("p1_range", (False, True), "p1_range must be a pair"),
        ("gamma_values", "0.3", "gamma_values must be a sequence of numbers"),
        ("gamma_values", None, "gamma_values must be a sequence of numbers"),
    ])
    def test_config_rejects_values_that_are_not_numbers(self, field, value, message):
        # these used to escape as a bare ValueError ("too many values to
        # unpack", float()'s) or TypeError from inside the validation
        with pytest.raises(ConfigError, match=message):
            SuiteConfig(**{field: value})

    @pytest.mark.parametrize("betas", [(0.0,), (0.0, -0.0)])
    def test_config_rejects_all_zero_betas(self, betas):
        # the splitting vanishes; this used to pass construction and raise
        # from the first check or export that drew beta
        with pytest.raises(ConfigError, match="beta_values .*degenerate"):
            SuiteConfig(beta_values=betas)

    def test_config_holds_ranges_as_float_pairs(self):
        # a list range used to be kept as a list, so the frozen config could
        # not be hashed
        cfg = SuiteConfig(p1_range=[-1, 2], p2_range=np.array([-3.0, 3.0]), beta_values=[1])
        assert cfg.p1_range == (-1.0, 2.0) and type(cfg.p1_range[0]) is float
        assert cfg.p2_range == (-3.0, 3.0) and type(cfg.p2_range[0]) is float
        assert cfg.beta_values == (1.0,)
        assert hash(cfg) == hash(SuiteConfig(p1_range=(-1.0, 2.0), beta_values=(1.0,)))

    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    @pytest.mark.parametrize("option", ["--samples=2.5", "--seed=1.5", "--grid=-1:1:3.5"])
    def test_non_integer_count_is_usage_error(self, command, option, capsys):
        assert exit_code([command, option], capsys) == 2

    def test_format_is_an_export_option(self, capsys):
        # the report has one text form and one JSON form (--out); a
        # --format it would ignore is refused
        assert exit_code(["verify", "--format=json"], capsys) == 2

    def test_report_is_not_a_command(self, capsys):
        # verify --out writes the JSON report; there is no second command for it
        assert exit_code(["report"], capsys) == 2

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
        proc = run_process(["verify", f"--grid=-{half_width}:{half_width}:12", "--samples", "5"],
                           timeout=20)
        assert proc.returncode == code
        if code == 2:
            assert proc.stderr.startswith("error:") and "1e-2" in proc.stderr
            assert proc.stdout == ""

    def test_overflowing_box_fails_without_warnings(self, capsys):
        # |p| ~ 1e160 overflows most checks to residual inf, which the report
        # already shows as FAIL; the run prints no floating-point warnings
        argv = ["verify", "--grid=-1e160:1e160:12"]
        proc = run_process(argv, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == ""
        with np.errstate(all="ignore"):
            code, out, _ = run(argv, capsys)
        assert code == 1
        assert proc.stdout == out
        assert out.count("residual=inf") > 0

    def test_wide_box_passes(self, capsys):
        # eigenvalues near 900 once broke the reversed-Schroedinger check's
        # fixed finite-difference step; the exact identity holds at any |p|
        code, out, _ = run(["verify", "--grid=-30:30:12"], capsys)
        assert code == 0
        assert out.splitlines()[-1].startswith(f"{len(REGISTRY)}/{len(REGISTRY)} checks passed")

    @pytest.mark.parametrize("argv", [["--beta=-0.5,-1,-2"],
                                      ["--beta=-2", "--seed", "3", "--samples", "200"]])
    def test_negative_beta_passes(self, argv, capsys):
        # lambda_+ = (p^2 + beta^2)/2 + beta |p| is the lower root when
        # beta < 0; the oracle's descending roots once failed it by ~14
        code, out, _ = run(["verify", *argv], capsys)
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
        code, _, _ = run(["verify", *FAST, "--out", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["tolerance"] == 1e-10
        ids = [e["test_id"] for e in payload["entries"]]
        assert ids == sorted(ids) or len(ids) == len(set(ids))

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", *FAST, "--out", str(a)], capsys)
        run(["verify", *FAST, "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_residuals_not_verdicts(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", *FAST[:-1], "11", "--out", str(a)], capsys)
        run(["verify", *FAST[:-1], "12", "--out", str(b)], capsys)
        pa = json.loads(a.read_text())
        pb = json.loads(b.read_text())
        assert [e["status"] for e in pa["entries"]] == \
            [e["status"] for e in pb["entries"]]

    def test_entry_fields(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        run(["verify", *FAST, "--out", str(out_path)], capsys)
        payload = json.loads(out_path.read_text())
        for entry in payload["entries"]:
            assert set(entry) >= {"test_id", "paper_ref", "status",
                                  "max_residual", "samples"}
            assert entry["status"] in ("pass", "fail")

    def test_nonfinite_residuals_are_written_as_null(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        with np.errstate(all="ignore"):
            code, out, _ = run(["verify", "--grid=-1e160:1e160:12", "--samples", "5",
                                "--out", str(out_path)], capsys)
        assert code == 1

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        entries = json.loads(out_path.read_text(), parse_constant=reject)["entries"]
        nulls = [e for e in entries if e["max_residual"] is None]
        assert len(nulls) == out.count("residual=inf") > 0
        assert all(e["status"] == "fail" for e in nulls)

    def test_raising_check_fails_alone(self, tmp_path, monkeypatch, capsys):
        # a check that raises is one FAIL entry naming the exception: the
        # rest still run, and the exit code is 1 (a failed check), not 2
        def raising(*args):
            raise ValueError("injected failure")

        monkeypatch.setattr("bispinor.spectrum.mixture_expectation", raising)
        out_path = tmp_path / "r.json"
        code, out, _ = run(["verify", "--out", str(out_path)], capsys)
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == len(REGISTRY) + 1
        (failed,) = [ln for ln in lines if ln.startswith("FAIL")]
        assert "spectrum.associated_expectation" in failed
        assert "residual=inf samples=0" in failed
        assert failed.endswith(" error=ValueError: injected failure")
        entries = json.loads(out_path.read_text())["entries"]
        (entry,) = [e for e in entries if "error" in e]
        assert entry == {"test_id": "spectrum.associated_expectation", "paper_ref": "5",
                         "status": "fail", "max_residual": None, "samples": 0,
                         "error": "ValueError: injected failure"}


    def test_vanishing_associated_norm_fails_its_check(self, monkeypatch, capsys):
        # with the duals zeroed every associated norm vanishes: the NaN the
        # library returns must fail the check through worst_term, not raise
        real = checks.spectrum.mixture_expectation

        def no_duals(c_plus, c_minus, k, amps):
            return real(c_plus, c_minus, k, amps * [[1.0], [1.0], [0.0], [0.0]])

        monkeypatch.setattr("bispinor.spectrum.mixture_expectation", no_duals)
        code, out, _ = run(["verify"], capsys)
        assert code == 1
        (failed,) = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert "spectrum.associated_expectation" in failed
        assert "residual=inf" in failed
        assert failed.endswith(" term=pure_plus")

    def test_failing_entry_names_its_worst_term(self, tmp_path, monkeypatch, capsys):
        # break one sub-identity of spectrum.projectors, Pi1 Pi2 = 0
        def broken(cfg, rng):
            terms, samples = checks.check_projectors(cfg, rng)
            return {**terms, "orthogonality": terms["orthogonality"] + 1e-3}, samples

        monkeypatch.setattr(checks, "REGISTRY", tuple(
            (test_id, ref, broken if fn is checks.check_projectors else fn, scale)
            for test_id, ref, fn, scale in REGISTRY))
        out_path = tmp_path / "r.json"
        code, out, _ = run(["verify", "--out", str(out_path)], capsys)
        assert code == 1
        (failed,) = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert "spectrum.projectors" in failed
        assert failed.endswith("[ref 5] term=orthogonality")
        assert " term=" not in out.replace(failed, "")
        entries = json.loads(out_path.read_text())["entries"]
        (entry,) = [e for e in entries if "term" in e]
        assert entry["test_id"] == "spectrum.projectors"
        assert entry["term"] == "orthogonality" and entry["status"] == "fail"
        assert entry["max_residual"] == pytest.approx(1e-3)


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


@pytest.mark.parametrize("command, builder", [("spectrum", "spectrum_columns"),
                                              ("texture", "texture_columns")])
@pytest.mark.parametrize("message, printed", [
    ("Unable to allocate 80.5 GiB for an array", "Unable to allocate 80.5 GiB for an array"),
    ("", "out of memory")])
def test_export_out_of_memory_is_usage_error(command, builder, message, printed,
                                             monkeypatch, capsys):
    # a grid too large to allocate is a configuration error (2), not a
    # failed check (1); the exporter raises as numpy would, no grid is built
    def too_large(cfg):
        raise MemoryError(message)
    monkeypatch.setattr(tables, builder, too_large)
    code, out, err = run([command, "--grid=-3:3:100000"], capsys)
    assert (code, out, err) == (2, "", f"error: {printed}\n")


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
        # count as "visibly nonzero": its term reads 1.0
        cfg = SuiteConfig(p1_range=(-1e160, 1e160), p2_range=(-1e160, 1e160))
        for check in (check_noncommutation_witness, check_magnetic_trs_convention):
            with np.errstate(all="ignore"):
                terms, _ = check(cfg, np.random.default_rng(7))
            assert worst_term(terms)[0] > cfg.tolerance
            witnesses = {name: t for name, t in terms.items() if name.startswith("witness")}
            assert witnesses and worst_term(witnesses)[0] == 1.0

    def test_witness_threshold_edge(self):
        # one value per matrix, from its largest |entry| against 1e-6: at the
        # edge it is visibly nonzero (0.0), one ulp below it or at 0 it is not
        largest = np.array([1e-6, np.nextafter(1e-6, 0), 0.0, 1e-6j])
        m = np.zeros((4, 4), dtype=complex) + 0.25 * largest[:, None]
        m[np.arange(4), np.arange(4)] = largest          # a different entry per matrix
        assert _nonzero_witness(m.reshape(4, 2, 2)).tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_worst_term_rule(self):
        # max |.| per term; the first non-finite term wins, else the first
        # with the largest residual
        assert worst_term({}) == (0.0, None)
        assert worst_term({"a": [0.0], "b": np.zeros(0)}) == (0.0, "a")
        assert worst_term({"a": [0.5], "b": [-2.0, 1.0], "c": [2.0]}) == (2.0, "b")
        assert worst_term({"a": [3.0], "b": [np.nan], "c": [np.inf]}) == (math.inf, "b")
        assert worst_term({"a": [1j * np.inf], "b": [1.0]}) == (math.inf, "a")

    def test_grid_equals_syntax_with_negative_bound(self, capsys):
        code, _, _ = run(["verify", "--gamma", "0.0", "--beta", "1.0",
                          "--grid=-1:1:4", "--samples", "5"], capsys)
        assert code == 0
