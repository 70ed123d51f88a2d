import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim import cli
from zenosim.cli import (AMPLITUDE_LOGICAL, T2_STAR, _avg_curve, _json_dumps,
                         build_parser, main, parse_curve_csv)
from zenosim.ensemble import ExperimentPlan, NoiseModel, run_ensemble, sample_detunings
from zenosim.fitting import fit_decay, fit_scaling
from zenosim.logical import CARDINAL_2SPIN
from zenosim.model import decay_curve, sqrt_e_time


@pytest.fixture
def config(tmp_path):
    cfg = {
        "t2_star": [12.4],
        "initial_state": "X",
        "observable": "X",
        "readout": ["X"],
        "n_projections": 0,
        "tau_grid": [0.0, 3.0, 6.0, 9.0, 12.0],
        "shots": 200,
        "seed": 11,
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestSimulate:
    def test_schema_and_rows(self, config, tmp_path, capsys):
        path, cfg = config
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        files = sorted(out.glob("*.csv"))
        assert len(files) == 1
        text = files[0].read_text()
        assert "tau_ms,mean,stderr" in text
        data_rows = [l for l in text.splitlines()
                     if l and not l.startswith("#") and not l.startswith("tau_ms")]
        assert len(data_rows) == len(cfg["tau_grid"])
        assert any(l.startswith("# seed:") for l in text.splitlines())

    def test_byte_identical_reruns(self, config, tmp_path):
        path, _ = config
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(b)]) == 0
        fa, fb = sorted(a.glob("*.csv")), sorted(b.glob("*.csv"))
        assert [f.read_bytes() for f in fa] == [f.read_bytes() for f in fb]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"t2_star": [12.4], "bogus": 1}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 3

    def test_seed_env_override(self, config, tmp_path, monkeypatch):
        path, _ = config
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(path), "--out", str(a)])
        monkeypatch.setenv("ZENO_SEED", "777")
        main(["simulate", "--config", str(path), "--out", str(b)])
        ca = parse_curve_csv(next(a.glob("*.csv")).read_text())
        cb = parse_curve_csv(next(b.glob("*.csv")).read_text())
        assert cb.metadata["seed"] == 777
        assert not np.array_equal(ca.mean, cb.mean)

    def test_nan_dephasing_time_rejected(self, config, tmp_path, capsys):
        path, cfg = config
        path.write_text(json.dumps(dict(cfg, t2_star=[float("nan")])))
        assert "NaN" in path.read_text()
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_register_size_mismatch_rejected(self, config, tmp_path, capsys):
        path, cfg = config
        for bad in ({"t2_star": [12.4, 8.2], "initial_state": "X"},
                    {"t2_star": [12.4, 8.2], "initial_state": "X,X",
                     "observable": "XX", "readout": ["L:00L"]}):
            path.write_text(json.dumps(dict(cfg, **bad)))
            out = tmp_path / "out"
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
            assert "register" in capsys.readouterr().err
            assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("key", ["amplitude", "offset"])
    def test_analysis_keys_rejected(self, config, tmp_path, capsys, key):
        path, cfg = config
        path.write_text(json.dumps(dict(cfg, **{key: 0.9})))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"shots": True}, {"n_projections": True}, {"seed": False},
        {"t2_star": ["12.4"]}, {"t2_star": [True]}, {"tau_grid": ["0", "1e0"]},
        {"t2_star": [10**400]},
        # a readout that is not a string
        {"readout": [5]},
        # sqrt(2)/T2* overflows, and tau x sqrt(2)/T2* overflows
        {"t2_star": [1e-320]}, {"t2_star": [1e-300], "tau_grid": [0.0, 1e10]},
    ])
    def test_bad_number_values_rejected(self, config, tmp_path, capsys, bad):
        path, cfg = config
        path.write_text(json.dumps(dict(cfg, **bad)))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("text", ["5", "null", "true", '[{"a": 1}]', '"t2_star"'])
    def test_config_not_an_object_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config must be a JSON object"), err
        assert err.count("\n") == 1, err

    def test_integer_dephasing_times_write_float_headers(self, config, tmp_path):
        path, cfg = config
        written = []
        for t2_star in ([12, 8], [12.0, 8.0]):
            path.write_text(json.dumps(dict(cfg, t2_star=t2_star, initial_state="X,X",
                                            observable="XX", readout=["XX"])))
            out = tmp_path / str(len(written))
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            written.append([f.read_bytes() for f in sorted(out.glob("*.csv"))])
        assert written[0] == written[1] and b'"t2_star": [12.0, 8.0]' in written[0][0]

    def test_monte_carlo_size_limit(self, config, tmp_path, capsys):
        path, cfg = config
        path.write_text(json.dumps(dict(cfg, shots=111111111111111111111111111111)))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Monte-Carlo rows" in err
        assert err.count("\n") == 1, err
        assert not list(tmp_path.rglob("*.csv"))

    def test_non_integer_seed_env_rejected(self, config, tmp_path, monkeypatch, capsys):
        path, _ = config
        monkeypatch.setenv("ZENO_SEED", "12.5")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        _assert_one_error_line(code, err)
        assert "ZENO_SEED" in err and not list(tmp_path.rglob("*.csv"))

    def test_out_under_a_regular_file_is_an_io_error(self, config, tmp_path, capsys):
        path, _ = config
        (tmp_path / "file").write_text("")
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "file" / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1, err

    def test_negative_seed_env_rejected(self, config, tmp_path, monkeypatch, capsys):
        path, _ = config
        monkeypatch.setenv("ZENO_SEED", "-3")
        for argv in (["simulate", "--config", str(path), "--out", str(tmp_path / "s")],
                     ["reproduce", "fig2c", "--out", str(tmp_path / "r")]):
            assert main(argv) == 2
            assert "seed" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))


class TestAnalytic:
    def test_values(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["analytic", "--n", "0", "--t2eff", "6.5",
                     "--tau", "0,6.5", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("tau_ms")]
        vals = [float(r.split(",")[1]) for r in rows]
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(np.exp(-1.0))

    def test_large_n_finite(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["analytic", "--n", "4095", "--t2eff", "10",
                     "--tau", "0,25,50,100,200,400", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("tau_ms")]
        vals = np.array([float(r.split(",")[1]) for r in rows])
        assert vals.size == 6 and np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("n", [str(10**9 + 1), str(10**9 + 2)])
    def test_projection_limit(self, tmp_path, capsys, n):
        out = tmp_path / "curve.csv"
        assert main(["analytic", "--n", n, "--t2eff", "5", "--tau", "0,1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "limit" in err and err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_input_rejected(self, tmp_path, capsys):
        for argv in (["--tau", "0,inf", "--t2eff", "5"],
                     ["--tau", "0,1", "--t2eff", "nan"]):
            assert main(["analytic", "--n", "2", *argv]) == 2
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # tau/T2eff overflows, and (tau/T2eff)**2 overflows
        ["--t2eff", "1e-320", "--tau", "0,1"], ["--t2eff", "5", "--tau", "1e200"],
        ["--t2eff", "inf", "--tau", "0,1"],
    ])
    def test_out_of_range_input_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "curve.csv"
        assert main(["analytic", "--n", "4", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not out.exists()


class TestFitCommand:
    def _write_gaussian(self, path, a=0.9, t=6.5, off=0.05):
        tau = np.linspace(0, 25, 20)
        y = off + a * np.exp(-((tau / t) ** 2))
        lines = ["# zenosim curve v1", "# config: {}", "# seed: 0",
                 "# n_projections: 0", "# readout: X", "tau_ms,mean,stderr"]
        lines += [f"{x},{v},0.01" for x, v in zip(tau, y)]
        path.write_text("\n".join(lines) + "\n")

    def test_gaussian_table(self, tmp_path):
        self._write_gaussian(tmp_path / "c0.csv")
        out = tmp_path / "fits.json"
        assert main(["fit", "--in", str(tmp_path / "*.csv"), "--out", str(out)]) == 0
        table = json.loads(out.read_text())
        row = table["fits"][0]
        assert row["converged"]
        assert row["T2eff_ms"] == pytest.approx(6.5, abs=1e-4)
        assert row["A"] == pytest.approx(0.9, abs=1e-4)

    def test_rows_at_resolved_precision(self, tmp_path):
        # a fit stops at REL_TOL = 1e-9, so each float of a row is fit_decay's
        # to 9 significant digits
        self._write_gaussian(tmp_path / "c0.csv")
        out = tmp_path / "fits.json"
        assert main(["fit", "--in", str(tmp_path / "*.csv"), "--out", str(out)]) == 0
        (row,) = json.loads(out.read_text())["fits"]
        fit = fit_decay(parse_curve_csv((tmp_path / "c0.csv").read_text()), 0).as_dict()
        for key in ("A", "T2eff_ms", "offset", "rss", "chi2_dof"):
            assert row[key] == float(f"{fit[key]:.9g}")
        for key, err in fit["std_errors"].items():
            assert row["std_errors"][key] == float(f"{err:.9g}")
        assert row["iterations"] == fit["iterations"]

    def test_malformed_csv(self, tmp_path):
        (tmp_path / "bad.csv").write_text("this,is\nnot,a,curve\n")
        assert main(["fit", "--in", str(tmp_path / "*.csv")]) == 2

    @pytest.mark.parametrize("n,row", [(2, "inf,0.5,0.01"), (0, "-inf,0.5,0.01"),
                                       (0, "3,nan,0.01"), (2, "3,0.5,nan")])
    def test_non_finite_rows_rejected(self, tmp_path, capsys, n, row):
        self._write_gaussian(tmp_path / "c.csv")
        text = (tmp_path / "c.csv").read_text()
        (tmp_path / "c.csv").write_text(
            text.replace("# n_projections: 0", f"# n_projections: {n}") + row + "\n")
        assert main(["fit", "--in", str(tmp_path / "*.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse") and err.count("\n") == 1, err

    def test_projection_limit_is_a_failed_fit(self, tmp_path, capsys):
        self._write_gaussian(tmp_path / "c0.csv")
        text = (tmp_path / "c0.csv").read_text()
        (tmp_path / "c0.csv").write_text(
            text.replace("# n_projections: 0", f"# n_projections: {10**9 + 2}"))
        out = tmp_path / "fits.json"
        code = main(["fit", "--in", str(tmp_path / "*.csv"), "--out", str(out)])
        # the table is written, and one error line says that nothing fitted
        row = json.loads(out.read_text())["fits"][0]
        assert row["converged"] is False and "projection count" in row["error"]
        err = capsys.readouterr().err
        _assert_one_error_line(code, err)
        assert "c0.csv" in err and "projection count" in err

    def test_float_limit_curve_is_a_failed_fit(self, tmp_path):
        # means of 1e200 overflow the weighted fit: a failed fit, no warning
        self._write_gaussian(tmp_path / "c0.csv", a=0.9e200, off=0.05e200)
        code, out, err = _main_quiet(["fit", "--in", str(tmp_path / "*.csv")])
        _assert_one_error_line(code, err)
        row = json.loads(out)["fits"][0]
        assert row["converged"] is False and "overflow" in row["error"]

    def test_constant_tau_grid_is_a_failed_fit(self, tmp_path):
        lines = ["# zenosim curve v1", "# n_projections: 2", "tau_ms,mean,stderr"]
        lines += [f"5,{v},0.01" for v in (0.9, 0.8, 0.7, 0.6, 0.5)]
        (tmp_path / "c0.csv").write_text("\n".join(lines) + "\n")
        code, out, err = _main_quiet(["fit", "--in", str(tmp_path / "*.csv")])
        _assert_one_error_line(code, err)
        row = json.loads(out)["fits"][0]
        assert row["converged"] is False
        assert row["error"] == "degenerate data: every tau is equal"

    def test_directory_matched_is_an_io_error(self, tmp_path, capsys):
        self._write_gaussian(tmp_path / "c0.csv")
        (tmp_path / "d.csv").mkdir()
        assert main(["fit", "--in", str(tmp_path / "*.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and err.count("\n") == 1, err

    @pytest.mark.parametrize("text", ["tau_ms,mean,stderr\n", "1,0.5,0.01\n2,0.4,0.01\n",
                                      "# n_projections: 0\n\n"])
    def test_missing_header_or_rows_rejected(self, tmp_path, capsys, text):
        (tmp_path / "c.csv").write_text(text)
        code = main(["fit", "--in", str(tmp_path / "*.csv"), "--n", "0"])
        err = capsys.readouterr().err
        _assert_one_error_line(code, err)
        assert "missing header or data rows" in err

    def test_blank_lines_skipped(self, tmp_path):
        self._write_gaussian(tmp_path / "c.csv")
        text = (tmp_path / "c.csv").read_text()
        spaced = text.replace("\n", "\n\n   \n", 3).replace("0.01\n", "0.01\n\n", 2)
        assert spaced.count("\n\n") >= 4
        got, want = parse_curve_csv(spaced), parse_curve_csv(text)
        for field in ("tau", "mean", "stderr"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert got.n_projections == want.n_projections == 0

    def test_no_match(self, tmp_path):
        assert main(["fit", "--in", str(tmp_path / "*.csv")]) == 2

    @staticmethod
    def _write_headerless(path):
        """A curve CSV of an N = 4 decay with no '# n_projections:' line."""
        tau = np.linspace(0, 25, 20)
        rows = [f"{t},{v},0.01" for t, v in zip(tau, decay_curve(4, tau, 8.0))]
        path.write_text("\n".join(["tau_ms,mean,stderr", *rows]) + "\n")

    def test_missing_n_header_rejected(self, tmp_path, capsys):
        self._write_headerless(tmp_path / "c4.csv")
        out = tmp_path / "fits.json"
        assert main(["fit", "--in", str(tmp_path / "*.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "c4.csv" in err and "n_projections" in err
        assert err.count("\n") == 1, err
        assert not out.exists()

    def test_missing_n_header_with_n_option(self, tmp_path):
        self._write_headerless(tmp_path / "c4.csv")
        out = tmp_path / "fits.json"
        assert main(["fit", "--in", str(tmp_path / "*.csv"), "--n", "4",
                     "--out", str(out)]) == 0
        row = json.loads(out.read_text())["fits"][0]
        assert row["n_projections"] == 4
        assert row["T2eff_ms"] == pytest.approx(8.0, rel=1e-9)

    @pytest.mark.parametrize("guess", ["-5", "0", "inf", "nan"])
    def test_bad_t2_guess_rejected(self, tmp_path, capsys, guess):
        self._write_gaussian(tmp_path / "c0.csv")
        out = tmp_path / "fits.json"
        assert main(["fit", "--in", str(tmp_path / "*.csv"), "--out", str(out),
                     f"--t2-guess={guess}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --t2-guess") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("guess", ["1e-300", "1e12"])
    def test_hopeless_t2_guess_is_a_failed_fit(self, tmp_path, guess):
        # A guess far outside the data's time scale leaves the model flat:
        # the fit fails, and the table stays strict JSON.
        self._write_gaussian(tmp_path / "c0.csv")
        out = tmp_path / "fits.json"
        assert main(["fit", "--in", str(tmp_path / "*.csv"), "--out", str(out),
                     "--t2-guess", guess]) == 2

        def reject(token):
            raise AssertionError(f"non-JSON token {token}")

        row = json.loads(out.read_text(), parse_constant=reject)["fits"][0]
        assert row["converged"] is False and "error" in row

    def test_chi2_dof_reported(self, tmp_path):
        self._write_gaussian(tmp_path / "c0.csv")
        out = tmp_path / "fits.json"
        assert main(["fit", "--in", str(tmp_path / "*.csv"), "--out", str(out)]) == 0
        row = json.loads(out.read_text())["fits"][0]
        assert row["chi2_dof"] == pytest.approx(row["rss"] / (20 - 3), rel=1e-12)

    def test_calls_share_the_parser_not_arguments(self, tmp_path):
        # The parser is built once per process; an option given to one call
        # must not leak into the next.
        self._write_gaussian(tmp_path / "c0.csv")
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["fit", "--in", str(tmp_path / "*.csv"), "--n", "2",
                     "--out", str(first)]) == 0
        assert main(["fit", "--in", str(tmp_path / "*.csv"), "--out", str(second)]) == 0
        assert json.loads(first.read_text())["fits"][0]["n_projections"] == 2
        assert json.loads(second.read_text())["fits"][0]["n_projections"] == 0
        assert build_parser() is build_parser()


_PARSE_HEADERS = ["# zenosim curve v1", '# config: {"shots": 5}', "# seed: 0",
                  "# n_projections: 2", "# readout: XX"]
_PARSE_ROWS = ["0,0.95,0", "2.5,0.8,0.01", "5,0.5,0.02", "7.5,0.25,0.01"]


def _parse_text(*lines, end="\n"):
    return end.join(lines) + end


class TestParseCurveCsv:
    """What parse_curve_csv accepts and the fault it names in what it refuses."""

    CANONICAL = _parse_text(*_PARSE_HEADERS, "tau_ms,mean,stderr", *_PARSE_ROWS)

    def _assert_canonical(self, curve):
        want = np.array([[float(v) for v in row.split(",")] for row in _PARSE_ROWS])
        for j, field in enumerate(("tau", "mean", "stderr")):
            assert np.array_equal(getattr(curve, field), want[:, j])
        assert (curve.n_projections, curve.readout, curve.metadata) == (2, "XX", {"shots": 5})

    @pytest.mark.parametrize("text", [
        # data rows above the column line, and the column line twice
        _parse_text(*_PARSE_HEADERS, *_PARSE_ROWS[:2], "tau_ms,mean,stderr", *_PARSE_ROWS[2:]),
        _parse_text(*_PARSE_HEADERS, *_PARSE_ROWS, "tau_ms,mean,stderr"),
        _parse_text(*_PARSE_HEADERS, "tau_ms,mean,stderr", *_PARSE_ROWS[:1],
                    "tau_ms,mean,stderr", *_PARSE_ROWS[1:]),
        # blank and whitespace-only lines, indented lines, comment lines
        # between rows and a header line below them, and CRLF endings
        _parse_text(*_PARSE_HEADERS[:2], "", "   ", "\t", *_PARSE_HEADERS[2:],
                    " tau_ms,mean,stderr ", "", *_PARSE_ROWS[:2], "# a comment", "  ",
                    *_PARSE_ROWS[2:], "\t# another", ""),
        _parse_text(*_PARSE_HEADERS[:3], "tau_ms,mean,stderr", *_PARSE_ROWS, _PARSE_HEADERS[3],
                    _PARSE_HEADERS[4], end="\r\n"),
        # a header line repeated: the last one counts
        _parse_text(*_PARSE_HEADERS, "# n_projections: 6", "# readout: Z", "tau_ms,mean,stderr",
                    *_PARSE_ROWS, "# n_projections: 2", "# readout: XX"),
    ], ids=["rows above the column line", "column line last", "column line twice",
            "blank, indented and comment lines", "CRLF endings", "last header wins"])
    def test_accepted_layouts(self, text):
        self._assert_canonical(parse_curve_csv(text))
        assert self.CANONICAL.count("\n") == 10
        self._assert_canonical(parse_curve_csv(self.CANONICAL))

    def test_without_n_projections(self):
        curve = parse_curve_csv(_parse_text("tau_ms,mean,stderr", *_PARSE_ROWS))
        assert (curve.n_projections, curve.readout, curve.metadata) == (None, "", {})

    @pytest.mark.parametrize("lines,fault", [
        (["tau_ms,mean,stderr", "1,0.5"], r"malformed curve row: '1,0\.5'"),
        (["tau_ms,mean,stderr", "1,0.5,0.01,3"], r"malformed curve row: '1,0\.5,0\.01,3'"),
        (["tau_ms,mean,stderr", "1,x,0.01"], "could not convert string to float: 'x'"),
        (["tau_ms,mean,stderr", "1,,0.01"], "could not convert string to float: ''"),
        (["tau_ms,mean,stderr"], "missing header or data rows"),
        (["1,0.5,0.01"], "missing header or data rows"),
        (["tau,mean,stderr", "1,0.5,0.01"], "could not convert string to float: 'tau'"),
        (["# tau_ms,mean,stderr", "1,0.5,0.01"], "missing header or data rows"),
        (["tau_ms,mean,stderr", "1,0.5,inf"], "non-finite tau, mean or stderr"),
        (["tau_ms,mean,stderr", "nan,0.5,0.01"], "non-finite tau, mean or stderr"),
        (["tau_ms,mean,stderr", "1,0.5,-0.01"], "standard errors must be nonnegative"),
        (["# config: {bad", "tau_ms,mean,stderr", "1,0.5,0.01"], "Expecting property name"),
        (["# n_projections: two", "tau_ms,mean,stderr", "1,0.5,0.01"],
         "invalid literal for int"),
        (["# n_projections: 2.0", "tau_ms,mean,stderr", "1,0.5,0.01"],
         "invalid literal for int"),
        # of two faults, the one above is named
        (["# n_projections: x", "tau_ms,mean,stderr", "1,0.5"], "invalid literal for int"),
        (["tau_ms,mean,stderr", "1,0.5", "# n_projections: x"], "malformed curve row"),
        # the header lines and the cells of each row are read before any cell
        # is converted
        (["tau_ms,mean,stderr", "1,x,0.01", "1,0.5,0.01,3"], "malformed curve row"),
        (["tau_ms,mean,stderr", "1,x,0.01", "# n_projections: y"], "invalid literal for int"),
    ])
    def test_faults_named(self, tmp_path, lines, fault):
        text = _parse_text(*lines)
        with pytest.raises(ValueError, match=fault):
            parse_curve_csv(text)
        (tmp_path / "c.csv").write_text(text)
        code, _, err = _main_quiet(["fit", "--in", str(tmp_path / "*.csv"), "--n", "2"])
        _assert_one_error_line(code, err)
        assert err.startswith("error: cannot parse")

    @pytest.mark.parametrize("lines", [
        # float() reads 0_9 as 9.0 and the Arabic-Indic 16 as 16.0
        ["tau_ms,mean,stderr", "0,0.95,0", "2.5,0_9,0.01", "5,0.5,0.01", "7.5,0.25,0.01"],
        ["tau_ms,mean,stderr", "0,0.95,0", "2.5,0.8,0.01", "١٦,0.5,0.01",
         "7.5,0.25,0.01"],
        ["tau_ms,mean,stderr", "0,0.95,0", "2.5,0.8,0.01", "5,0.5, 0.01", "7.5,0.25,0.01"],
        # int() reads 1_6 and the Arabic-Indic 16 as N = 16
        ["# n_projections: ١٦", "tau_ms,mean,stderr", *_PARSE_ROWS],
        ["# n_projections: 1_6", "tau_ms,mean,stderr", *_PARSE_ROWS],
    ], ids=["underscore cell", "arabic-indic cell", "no-break space in a cell",
            "arabic-indic N", "underscore N"])
    def test_numbers_are_plain_ascii(self, tmp_path, lines):
        text = _parse_text(*lines)
        with pytest.raises(ValueError, match="malformed"):
            parse_curve_csv(text)
        (tmp_path / "c.csv").write_text(text)
        code, out, err = _main_quiet(["fit", "--in", str(tmp_path / "*.csv")])
        _assert_one_error_line(code, err)
        assert err.startswith("error: cannot parse") and "malformed" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["analytic", "--n", "x", "--t2eff", "1", "--tau", "1"],
    ["analytic", "--t2eff", "1", "--tau", "1"],
    ["fit", "--in", "x.csv", "--t2-guess", "fast"],
    ["reproduce", "fig2c"],
    ["scaling", "--in", "x.json", "--bogus"],
    ["frobnicate"],
    [],
])
def test_argument_rejections_are_one_error_line(argv, capsys):
    # argparse's rejections return 2 with one error line, no usage block
    code = main(argv)
    _assert_one_error_line(code, capsys.readouterr().err)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    assert exc.value.code == 0 and "--t2-guess" in capsys.readouterr().out


def test_json_output_rejects_nan():
    with pytest.raises(ValueError):
        _json_dumps({"mu_err": float("nan")})


# a fit row entry left out
_MISSING = object()


class TestScalingCommand:
    def test_times_input(self, tmp_path):
        times = {str(n): sqrt_e_time(n, 1.0) for n in range(0, 17, 2)}
        inp = tmp_path / "times.json"
        inp.write_text(json.dumps({"times": times}))
        out = tmp_path / "scaling.json"
        assert main(["scaling", "--in", str(inp), "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["mu"] == pytest.approx(0.77, abs=0.02)
        assert res["nu"] == pytest.approx(0.63, abs=0.02)

    def test_output_at_resolved_precision(self, tmp_path):
        # as for a decay fit row: each float is fit_scaling's to 9 significant
        # digits, the normalized times included
        times = {0: 12.4, 2: 19.83, 4: 24.91, 8: 32.07, 16: 42.13}
        inp = tmp_path / "times.json"
        inp.write_text(json.dumps({"times": {str(n): t for n, t in times.items()}}))
        out = tmp_path / "scaling.json"
        assert main(["scaling", "--in", str(inp), "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        fit = fit_scaling(times).as_dict()
        for key in ("mu", "nu", "mu_err", "nu_err"):
            assert res[key] == float(f"{fit[key]:.9g}")
        assert res["normalized_times"] == {n: float(f"{t:.9g}")
                                           for n, t in fit["normalized_times"].items()}

    def test_missing_n0(self, tmp_path):
        inp = tmp_path / "times.json"
        inp.write_text(json.dumps({"times": {"2": 2.1, "4": 2.8}}))
        assert main(["scaling", "--in", str(inp)]) == 2

    def test_flat_times_rejected(self, tmp_path, capsys):
        # No enhancement at all: mu = 0 leaves nu and both errors undefined.
        inp = tmp_path / "times.json"
        inp.write_text(json.dumps({"times": {"0": 1, "2": 1, "4": 1, "8": 1}}))
        out = tmp_path / "scaling.json"
        assert main(["scaling", "--in", str(inp), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scaling fit") and err.count("\n") == 1, err
        assert "converge" in err or "undefined" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"times": {"0": "x"}}',
        '{"fits": [{"converged": true, "n_projections": 0, "T2eff_ms": 0}]}',
        '{"fits": [{"converged": true, "n_projections": 2, "T2eff_ms": NaN}]}',
        '{"times": {"0": 1.0, "2": Infinity, "4": 2.0}}',
        '{"times": {"0": 1.0, "2.5": 1.5, "4": 2.0}}',
        '[1.0, 1.5, 2.0]',
        '{"times": 5}',
        # non-ASCII digits: superscript two, Arabic-Indic one
        r'{"times": {"0": 1, "2": 1.5, "\u00b2": 2, "4": 1.9}}',
        r'{"times": {"0": 1, "\u0661": 1.2, "2": 1.5, "4": 1.9}}',
        # two spellings of N = 2
        '{"times": {"0": 1, "2": 1.5, "02": 1.6, "4": 1.9}}',
        # a repeated N in a fit table
        '{"fits": [' + ", ".join(
            f'{{"converged": true, "n_projections": {n}, "T2eff_ms": {t}}}'
            for n, t in ((0, 10.0), (2, 10.0), (2, 60.0), (4, 10.0), (6, 10.0))) + ']}',
        # an even N past the closed form's limit
        '{"fits": [' + ", ".join(
            f'{{"converged": true, "n_projections": {n}, "T2eff_ms": 10.0}}'
            for n in (0, 2, 10**9 + 2, 4)) + ']}',
        # N = 0 and two other N fix mu and nu exactly, leaving no degree of
        # freedom for their errors
        '{"times": {"0": 1.0, "2": 1.5, "4": 2.0}}',
        # 2/1e-320 is not finite
        '{"times": {"0": 1e-320, "2": 2, "4": 3, "8": 4}}',
        # normalized times too large and too small for the fit to square
        '{"times": {"0": 1e-300, "2": 2, "4": 3, "8": 4}}',
        '{"times": {"0": 1, "2": 1e-300, "4": 3, "8": 4}}',
    ])
    def test_bad_input_rejected(self, tmp_path, capsys, text):
        inp = tmp_path / "bad.json"
        inp.write_text(text)
        assert main(["scaling", "--in", str(inp)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("data,found", [
        # a typo of "times", and no key at all
        ({"time": {"0": 1.0, "2": 1.5}}, '["time"]'), ({}, "[]"),
        # both keys: the fits, one of which _converged would refuse, are not ignored
        ({"times": {"0": 1.0, "2": 1.5, "4": 1.9},
          "fits": [{"n_projections": 0, "converged": "yes"}]}, '["fits", "times"]'),
    ])
    def test_times_or_fits_exactly_one(self, tmp_path, capsys, data, found):
        inp = tmp_path / "scaling.json"
        inp.write_text(json.dumps(data))
        assert main(["scaling", "--in", str(inp)]) == 2
        assert capsys.readouterr().err == (
            'error: scaling input must hold exactly one of "times" and "fits", '
            f"found keys {found}\n")

    def test_integer_past_the_digit_limit_rejected(self, config, tmp_path):
        # Python reads at most 4300 digits into an int by default; a longer N
        # key or JSON integer is one error line, not a traceback
        big = "1" * 5000
        (tmp_path / "times.json").write_text(f'{{"times": {{"0": 1, "2": 2, "{big}": 3}}}}')
        path, cfg = config
        path.write_text(json.dumps(cfg).replace('"seed": 11', f'"seed": {big}'))
        for argv in (["scaling", "--in", str(tmp_path / "times.json")],
                     ["simulate", "--config", str(path), "--out", str(tmp_path / "s")]):
            code, _, err = _main_quiet(argv)
            _assert_one_error_line(code, err)
            assert len(err) < 300, err

    def test_n_past_float_precision_kept(self, tmp_path, capsys):
        # float(N) is 99999999999999991611392: N must not pass through float
        big = "99999999999999999999999"
        inp = tmp_path / "times.json"
        inp.write_text(f'{{"times": {{"0": 1, "2": 2, "4": 2.5, "{big}": 3}}}}')
        out = tmp_path / "scaling.json"
        assert main(["scaling", "--in", str(inp), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        res = json.loads(out.read_text())
        assert res["normalized_times"] == {"0": 1.0, "2": 2.0, "4": 2.5, big: 3.0}
        assert np.isfinite([res["mu"], res["nu"], res["mu_err"], res["nu_err"]]).all()

    @staticmethod
    def _fit_table(path, last):
        """A fit table of N = 0, 2, 4, 8 (converged) and N = 6 with the given row entries."""
        rows = [{"converged": True, "n_projections": n, "T2eff_ms": 10.0 + 3 * n}
                for n in (0, 2, 4, 8)]
        path.write_text(json.dumps({"fits": rows + [dict(n_projections=6, **last)]}))

    def test_false_row_skipped(self, tmp_path):
        # a row that did not converge carries no usable T2eff; it is skipped
        # as if absent
        self._fit_table(tmp_path / "a.json", {"converged": False, "T2eff_ms": None})
        self._fit_table(tmp_path / "b.json", {"converged": True, "T2eff_ms": 40.0})
        code, with_false, err = _main_quiet(["scaling", "--in", str(tmp_path / "a.json")])
        assert code == 0 and err == ""
        assert "6" not in json.loads(with_false)["normalized_times"]
        code, with_true, _ = _main_quiet(["scaling", "--in", str(tmp_path / "b.json")])
        assert code == 0 and "6" in json.loads(with_true)["normalized_times"]

    def test_odd_rows_named_when_too_few_n_remain(self, tmp_path):
        # converged rows at N = 0, 1, 2 and 4 list three N besides N = 0, but
        # the odd N = 1 has no 1/sqrt(e) time; the error says it was skipped
        rows = [{"converged": True, "n_projections": n, "T2eff_ms": 10.0 + n}
                for n in (0, 1, 2, 4)]
        (tmp_path / "fits.json").write_text(json.dumps({"fits": rows}))
        code, out, err = _main_quiet(["scaling", "--in", str(tmp_path / "fits.json")])
        _assert_one_error_line(code, err)
        assert out == ""
        assert err == ("error: scaling fit needs N=0 and at least 3 other N; "
                       "odd-N fit rows are skipped (N=1)\n")

    @pytest.mark.parametrize("converged,got", [
        ("false", '"false"'), ("no", '"no"'), (1, "1"), (0, "0"), (None, "null"),
        (_MISSING, "null"),
    ], ids=["string false", "string no", "one", "zero", "null", "missing"])
    def test_converged_must_be_a_json_boolean(self, tmp_path, converged, got):
        # only JSON true takes a row and only false skips it; anything else,
        # truthy or not, is an error naming the row's N
        last = {"T2eff_ms": 40.0}
        if converged is not _MISSING:
            last["converged"] = converged
        self._fit_table(tmp_path / "fits.json", last)
        code, out, err = _main_quiet(["scaling", "--in", str(tmp_path / "fits.json")])
        _assert_one_error_line(code, err)
        assert out == ""
        assert err == f"error: fit row of N=6: converged must be true or false, got {got}\n"

    @pytest.mark.parametrize("n,got", [
        ("6", "'6'"), (6.0, "6.0"), (True, "True"), (None, "None"), ([6], "[6]"),
    ], ids=["string", "float", "bool", "null", "list"])
    def test_fit_row_n_is_a_json_integer(self, tmp_path, n, got):
        # the digit-text rule is for "times" keys; a fit row's N is a JSON
        # integer, as zeno fit writes it
        self._fit_table(tmp_path / "fits.json", {"converged": True, "T2eff_ms": 40.0})
        data = json.loads((tmp_path / "fits.json").read_text())
        data["fits"][-1]["n_projections"] = n
        (tmp_path / "fits.json").write_text(json.dumps(data))
        code, out, err = _main_quiet(["scaling", "--in", str(tmp_path / "fits.json")])
        _assert_one_error_line(code, err)
        assert out == "" and err == f"error: fit row projection count must be int, got {got}\n"


def test_readme_pipeline(tmp_path):
    # the README's steps in order: simulate its example config, reproduce
    # fig2c, fit the curves and fit the scaling law; a numpy RuntimeWarning
    # on the way fails the test (pytest's filterwarnings = error)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```json\n(.*?)^```$", readme, re.M | re.S)
    plan = tmp_path / "plan.json"
    plan.write_text(block)
    fits, scaling = tmp_path / "fits.json", tmp_path / "scaling.json"
    steps = [["simulate", "--config", str(plan), "--out", str(tmp_path / "results")],
             ["reproduce", "fig2c", "--shots", "200", "--out", str(tmp_path / "repro")],
             ["fit", "--in", str(tmp_path / "repro" / "fig2c_N*.csv"), "--out", str(fits)],
             ["scaling", "--in", str(fits), "--out", str(scaling)]]
    for argv in steps:
        code, _, err = _main_quiet(argv)
        assert code == 0, (argv, err)
    rows = json.loads(fits.read_text())["fits"]
    assert len(rows) == 5 and all(row["converged"] for row in rows)
    assert math.isfinite(json.loads(scaling.read_text())["nu"])


class TestReproduce:
    def test_fig5_summary(self, tmp_path, capsys):
        out = tmp_path / "fig5"
        assert main(["reproduce", "fig5", "--out", str(out)]) == 0
        summary = json.loads((out / "fig5_summary.json").read_text())
        assert summary["mu"] == pytest.approx(0.77, abs=0.02)
        assert summary["nu"] == pytest.approx(0.63, abs=0.02)
        assert (out / "fig5_normalized_times.csv").exists()

    def test_fig5_summary_at_resolved_precision(self, tmp_path):
        assert main(["reproduce", "fig5", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "fig5_summary.json").read_text())
        fit = fit_scaling({n: sqrt_e_time(n, 1.0) for n in range(0, 17, 2)})
        for key in ("mu", "nu", "mu_err", "nu_err"):
            assert summary[key] == float(f"{getattr(fit, key):.9g}")

    def test_fig5_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["reproduce", "fig5", "--out", str(a)])
        main(["reproduce", "fig5", "--out", str(b)])
        assert (a / "fig5_summary.json").read_bytes() == \
            (b / "fig5_summary.json").read_bytes()

    def test_zero_shots_rejected(self, tmp_path, capsys):
        out = tmp_path / "fig2c"
        assert main(["reproduce", "fig2c", "--out", str(out), "--shots", "0"]) == 2
        assert "--shots" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fig", ["fig2c", "fig3b", "fig3c", "fig4b"])
    def test_top_seed_accepted(self, tmp_path, fig):
        # every plan runs with the seed as given, so the largest one is valid
        out = tmp_path / fig
        assert main(["reproduce", fig, "--out", str(out), "--shots", "1",
                     "--seed", str(2**64 - 1)]) == 0
        for path in out.glob("*.csv"):
            assert parse_curve_csv(path.read_text()).metadata["seed"] == 2**64 - 1

    @pytest.mark.parametrize("fig", ["fig2c", "fig3b", "fig3c", "fig4b"])
    def test_monte_carlo_size_limit(self, tmp_path, capsys, fig):
        out = tmp_path / fig
        assert main(["reproduce", fig, "--out", str(out),
                     "--shots", str(10**30)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Monte-Carlo rows" in err
        assert err.count("\n") == 1, err
        assert not out.exists()

    def test_fig2c_failed_fits_recorded(self, tmp_path):
        # at one shot per point some fits do not converge
        out = tmp_path / "fig2c"
        assert main(["reproduce", "fig2c", "--out", str(out), "--shots", "1",
                     "--seed", "1"]) == 0
        summary = json.loads((out / "fig2c_summary.json").read_text())
        failed = [n for n, row in summary["fits"].items() if not row["converged"]]
        assert failed
        for n in failed:
            assert "did not converge" in summary["fits"][n]["error"]
            assert summary["sqrt_e_times_ms"][n] is None
        for n in set(summary["fits"]) - set(failed):
            assert summary["sqrt_e_times_ms"][n] > 0
        assert len(list(out.glob("fig2c_N*.csv"))) == 5

    @pytest.mark.parametrize("fig", ["fig2c", "fig3b", "fig3c", "fig4b"])
    def test_reruns_byte_identical(self, tmp_path, fig):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["reproduce", fig, "--out", str(out), "--shots", "5"]) == 0
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir()) and len(files) > 1
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_no_crossing_is_none(self):
        tau = np.array([0.0, 1.0, 2.0])
        assert cli._crossing_time(tau, np.array([1.0, 0.9, 0.8]), 0.5) is None
        assert cli._crossing_time(tau, np.array([1.0, 0.6, 0.4]), 0.5) == pytest.approx(1.5)

    def test_unknown_figure(self, tmp_path, capsys):
        code = main(["reproduce", "fig9", "--out", str(tmp_path)])
        _assert_one_error_line(code, capsys.readouterr().err)

    def test_fig2c_decay_times_increase(self, tmp_path):
        out = tmp_path / "fig2c"
        assert main(["reproduce", "fig2c", "--out", str(out),
                     "--shots", "1000"]) == 0
        summary = json.loads((out / "fig2c_summary.json").read_text())
        times = [summary["sqrt_e_times_ms"][str(n)] for n in (0, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert len(list(out.glob("fig2c_N*.csv"))) == 5

    def test_fig3c_entanglement_persists_longer(self, tmp_path):
        out = tmp_path / "fig3c"
        assert main(["reproduce", "fig3c", "--out", str(out),
                     "--shots", "400"]) == 0
        summary = json.loads((out / "fig3c_summary.json").read_text())
        cross = summary["entanglement_persistence_ms"]
        assert cross["0"] is not None
        for n in ("2", "4", "6"):
            assert cross[n] > cross["0"]

    def test_fig4b_outputs(self, tmp_path):
        out = tmp_path / "fig4b"
        assert main(["reproduce", "fig4b", "--out", str(out),
                     "--shots", "300"]) == 0
        summary = json.loads((out / "fig4b_summary.json").read_text())
        assert summary["states"] == ["00L", "X0L", "PhiPlusL"]
        assert len(list(out.glob("fig4b_*.csv"))) == 9

    def test_fig4b_states_draw_distinct_blocks(self, tmp_path):
        plans = _reproduce_plans(tmp_path, "fig4b", "20")
        for n in (0, 2, 4):
            blocks = {_first_block(p) for p in plans if p.n_projections == n}
            assert len(blocks) == 3, n

    def test_figures_draw_distinct_blocks(self, tmp_path):
        # fig3b's 0L and fig3c's +L share T2*, observable and seed: before
        # streams were keyed by the plan, they drew identical detunings
        fig3b = _reproduce_plans(tmp_path / "b", "fig3b", "4")
        fig3c = _reproduce_plans(tmp_path / "c", "fig3c", "4")
        for n in (0, 2, 4, 6):
            (zero,) = [p for p in fig3b if p.n_projections == n and
                       p.initial_state == "0L"]
            (plus,) = [p for p in fig3c if p.n_projections == n and
                       p.initial_state == "+L"]
            assert (zero.seed, zero.noise) == (plus.seed, plus.noise)
            assert _first_block(zero) != _first_block(plus), n

    def test_fig3b_crossings(self, tmp_path):
        out = tmp_path / "fig3b"
        assert main(["reproduce", "fig3b", "--out", str(out),
                     "--shots", "300"]) == 0
        summary = json.loads((out / "fig3b_summary.json").read_text())
        cross = summary["classical_memory_crossings_ms"]
        for n in ("2", "4", "6", "16"):
            assert cross[n] > cross["0"]

    @pytest.mark.parametrize("fig,floor", [("fig3b", 0.5), ("fig3c", 0.25),
                                           ("fig4b", 0.25)])
    def test_fidelity_curves_have_error_bars(self, tmp_path, fig, floor):
        out = tmp_path / fig
        assert main(["reproduce", fig, "--out", str(out), "--shots", "20"]) == 0
        at_zero = AMPLITUDE_LOGICAL + (1 - AMPLITUDE_LOGICAL) * floor
        for path in out.glob(f"{fig}_*N*.csv"):
            curve = parse_curve_csv(path.read_text())
            assert curve.mean[0] == pytest.approx(at_zero, abs=1e-12)
            assert np.all(curve.stderr[curve.tau > 0] > 0), path.name
            assert curve.metadata["amplitude"] == AMPLITUDE_LOGICAL
            assert {"figure", "n_projections", "seed", "readout", "shots", "t2_star",
                    "observable", "states"} <= set(curve.metadata)


def _reproduce_plans(out, fig, shots):
    """The plans that `zeno reproduce fig` runs, seed 12345."""
    with mock.patch.object(cli, "run_ensemble", wraps=run_ensemble) as run:
        assert main(["reproduce", fig, "--out", str(out), "--shots", shots,
                     "--seed", "12345"]) == 0
    return [c.args[0] for c in run.call_args_list]


def _first_block(plan):
    """The plan's detunings at its first tau point, as bytes."""
    return sample_detunings(plan)[:plan.shots].tobytes()


class TestAvgCurve:
    TAUS = (0.0, 5.0, 20.0, 60.0)

    def _run(self, t2_star, state, n, seed):
        (curve,) = run_ensemble(ExperimentPlan(
            noise=NoiseModel(t2_star), initial_state=state,
            observable="X" * len(t2_star), readout=(f"L:{state}",), n_projections=n,
            tau_grid=self.TAUS, shots=50, seed=seed))
        return curve

    def test_states_add_in_quadrature(self):
        amp, seed = 0.89, 31
        curve = _avg_curve(T2_STAR[:2], CARDINAL_2SPIN, "L:", 2, self.TAUS, 50,
                           seed, amp)
        runs = [self._run(T2_STAR[:2], s, 2, seed) for s in CARDINAL_2SPIN]
        want_mean = sum(amp * r.mean + (1 - amp) / 2 for r in runs) / len(runs)
        want_err = amp * np.sqrt(sum(r.stderr**2 for r in runs)) / len(runs)
        assert np.max(np.abs(curve.mean - want_mean)) <= 1e-15
        assert np.max(np.abs(curve.stderr - want_err)) <= 1e-15
        assert np.all(curve.stderr[1:] > 0)

    def test_single_state_scales_readout_error(self):
        curve = _avg_curve(T2_STAR, ("X0L",), "L:", 4, self.TAUS, 50, 77, 0.89)
        run = self._run(T2_STAR, "X0L", 4, 77)
        assert np.max(np.abs(curve.stderr - 0.89 * run.stderr)) <= 1e-15


class TestHeaderProvenance:
    @staticmethod
    def _run(argv):
        """main(argv) and the curves it wrote, keyed by their CSV text."""
        curves = {}

        def record(curve):
            text = to_csv(curve)
            curves[text] = curve
            return text

        to_csv = cli.curve_to_csv
        with mock.patch.object(cli, "curve_to_csv", side_effect=record):
            assert main(argv) == 0
        return curves

    # the readout's value on the maximally mixed state: 0 for fig2c's X
    # correlator, 1/2 for one logical qubit, 1/4 for a two-spin fidelity
    # and for two logical qubits
    FLOOR = {"fig2c": 0.0, "fig3b": 0.5, "fig3c": 0.25, "fig4b": 0.25}

    @pytest.mark.parametrize("fig,name", [("fig2c", "fig2c_N4.csv"),
                                          ("fig3b", "fig3b_N2.csv"),
                                          ("fig3c", "fig3c_N2.csv"),
                                          ("fig4b", "fig4b_X0L_N4.csv")])
    def test_header_alone_rebuilds_the_curve(self, tmp_path, fig, name):
        curves = self._run(["reproduce", fig, "--out", str(tmp_path / fig),
                            "--shots", "30", "--seed", "12345"])
        text = (tmp_path / fig / name).read_text()
        curve, header = curves[text], parse_curve_csv(text)
        cfg = header.metadata
        assert cfg["figure"] == fig and header.readout == cfg["readout"]
        values = []
        for state in cfg["states"]:
            # each state is read with the header's readout template
            plan = {"t2_star": cfg["t2_star"], "initial_state": state,
                    "observable": cfg["observable"],
                    "readout": [header.readout.replace("<state>", state)],
                    "n_projections": cfg["n_projections"],
                    "tau_grid": header.tau.tolist(), "shots": cfg["shots"],
                    "seed": cfg["seed"]}
            path = tmp_path / f"{state}.json"
            path.write_text(json.dumps(plan))
            (single,) = self._run(["simulate", "--config", str(path),
                                   "--out", str(tmp_path / state)]).values()
            values.append(single.mean)
        amp, floor = cfg["amplitude"], self.FLOOR[fig]
        want = np.mean([amp * v + (1 - amp) * floor for v in values], axis=0)
        assert np.max(np.abs(want - curve.mean)) <= 1e-15


# Any JSON value. Integers stay small, so that every Monte-Carlo plan runs
# in milliseconds, except for a few listed extremes.
_JSON_INTS = (st.integers(-10**4, 10**4)
              | st.sampled_from([2**63, 2**64 - 1, 2**64, -2**64, 10**30, 10**400]))
_JSON = st.recursive(
    st.none() | st.booleans() | _JSON_INTS | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)

_SIMULATE_CONFIG = {"t2_star": [12.4, 8.2], "initial_state": "X,X", "observable": "XX",
                    "readout": ["XX", "F:+L"], "n_projections": 2,
                    "tau_grid": [0.0, 4.0, 8.0], "shots": 20, "seed": 7}
# Per key, values of its JSON type, often in range, so that some mutants run.
_COUNTS = st.integers(0, 50) | _JSON_INTS
_PLAUSIBLE = {
    "t2_star": st.lists(st.floats(0.1, 100.0) | st.floats(), min_size=2, max_size=2),
    "initial_state": st.sampled_from(["X,X", "+L", "0,1", "PhiPlusL", "X"]),
    "observable": st.sampled_from(["XX", "ZY", "X", "XQ"]),
    "readout": st.lists(st.sampled_from(["XX", "ZI", "F:+L", "L:+L", "F:0"]), max_size=3),
    "n_projections": _COUNTS, "shots": _COUNTS, "seed": _COUNTS,
    "tau_grid": st.lists(st.floats(0.0, 100.0) | st.floats(), max_size=4).map(sorted),
}
_SET_A_KEY = st.sampled_from(sorted(_SIMULATE_CONFIG)).flatmap(
    lambda key: (_PLAUSIBLE[key] | _JSON).map(
        lambda value: dict(_SIMULATE_CONFIG, **{key: value})))
_CONFIG_MUTANTS = st.one_of(
    st.just(_SIMULATE_CONFIG),
    # setting a key is listed thrice: it is the most varied mutation
    _SET_A_KEY, _SET_A_KEY, _SET_A_KEY,
    st.sampled_from(sorted(_SIMULATE_CONFIG)).map(
        lambda key: {k: v for k, v in _SIMULATE_CONFIG.items() if k != key}),
    st.tuples(st.text(max_size=6), _JSON).map(
        lambda kv: {**_SIMULATE_CONFIG, kv[0]: kv[1]}),
    # a top level that is not an object
    _JSON.filter(lambda v: not isinstance(v, dict)),
)

_N_KEYS = (st.sampled_from(["2", "4", "8", "16"]) | st.integers(0, 40).map(str)
           | st.sampled_from(["99999999999999999999999", "1" + "0" * 400, "-2", "2.5",
                              "02", "x", ""]))
_TIMES = st.floats(0.5, 50.0) | st.floats() | _JSON
_SCALING_TABLES = st.one_of(
    # N = 0 comes first, and plausible times rise with N, so that some
    # tables can be fitted
    st.tuples(st.floats(0.5, 2.0) | _TIMES,
              st.dictionaries(_N_KEYS, st.floats(2.0, 50.0) | _TIMES, min_size=2,
                              max_size=5)).map(
        lambda t: {"times": {"0": t[0], **t[1]}}),
    st.lists(st.fixed_dictionaries({"converged": st.just(True) | st.booleans(),
                                    "n_projections": st.sampled_from([0, 2, 4, 8])
                                    | st.integers(0, 40) | _JSON,
                                    "T2eff_ms": st.floats(6.0, 7.0) | _TIMES}),
             min_size=3, max_size=6).map(lambda rows: {"fits": rows}),
    _JSON,
)


# Number texts: in range, out of range, not finite, not numbers, and bools.
_WORDS = st.sampled_from(["nan", "inf", "-inf", "True", "False", "true", "", "x", "1,2",
                          "0x10", "1_0", " 4", "1e400", "-1e-05", "1e-320"])
# Texts in range are drawn often, so that many argv run.
_N_TEXTS = (st.integers(0, 3000).map(str)
            | st.integers(-5, 3000).map(str) | _WORDS
            | st.sampled_from([str(10**9 + 1), "99999999999999999999", "1" + "0" * 400,
                               "2.5", "-0"]))
_FLOAT_TEXTS = (st.floats(0.1, 100.0).map(str) | st.floats(0.1, 100.0).map(str)
                | st.floats().map(repr) | st.integers(-10, 10).map(str) | _WORDS)
_TAU_TEXTS = st.lists(st.floats(0.0, 100.0).map(str) | _FLOAT_TEXTS, min_size=1,
                      max_size=5).map(",".join)


# Curve-CSV texts for zeno fit: a fittable N = 2 decay with its headers,
# lines and cells mutated. A cell is a number, often extreme, or a word.
_CURVE_TAUS = np.linspace(0.0, 30.0, 16)
_CURVE_ROWS = [[repr(float(t)), repr(float(v)), "0.01"] for t, v in
               zip(_CURVE_TAUS, 0.05 + 0.9 * decay_curve(2, _CURVE_TAUS, 6.5))]
_CELLS = (_WORDS | st.floats().map(repr)
          | st.sampled_from(["1e308", "-1e308", "1e200", "1e-310", "5e-324", "0", "-1"]))


@st.composite
def _curve_texts(draw):
    rows = [list(row) for row in _CURVE_ROWS]
    # about a third of the texts keep every row
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        # a cell replaced (a whole column in one of six), or a row cut
        # short, lengthened or dropped
        i = draw(st.integers(0, len(rows) - 1))
        change = draw(st.sampled_from(["cell"] * 4 + ["column", "short", "long", "drop"]))
        if change == "cell" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_CELLS)
        elif change == "column":
            j, cell = draw(st.integers(0, 2)), draw(_CELLS)
            for row in rows:
                row[j:j + 1] = [cell]
        elif change == "short":
            rows[i] = rows[i][:draw(st.integers(0, 2))]
        elif change == "long":
            rows[i] = rows[i] + [draw(_CELLS)]
        else:
            del rows[i]
    lines = ["# zenosim curve v1",
             "# config: " + draw(st.sampled_from(["{}", "{}", '{"x": 1}', "{bad"]))]
    if draw(st.booleans()):
        lines.append("# n_projections: " + draw(st.just("2") | st.just("2") | _N_TEXTS))
    lines.append(draw(st.sampled_from(["tau_ms,mean,stderr"] * 4
                                      + ["tau,mean,stderr", "# tau_ms,mean,stderr"])))
    lines += [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    return "\n".join(lines) + "\n"


def _main_quiet(argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_error_line(code, err):
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1, (code, err)


class TestCommandProperties:
    """Bad input exits 2 with one error line: never a traceback, a warning or a NaN."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_CONFIG_MUTANTS)
    def test_simulate_config_mutants(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "plan.json"
            path.write_text(json.dumps(cfg))
            out = Path(tmp) / "out"
            code, _, err = _main_quiet(["simulate", "--config", str(path),
                                        "--out", str(out)])
            csvs = list(out.glob("*.csv"))
            if code:
                _assert_one_error_line(code, err)
                assert not csvs
            else:
                assert err == "" and csvs
                for csv in csvs:
                    curve = parse_curve_csv(csv.read_text())
                    assert np.isfinite([curve.mean, curve.stderr]).all()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_SCALING_TABLES)
    def test_scaling_tables(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "times.json"
            path.write_text(json.dumps(table))
            code, out, err = _main_quiet(["scaling", "--in", str(path)])
        if code:
            _assert_one_error_line(code, err)
        else:
            def reject(token):
                raise AssertionError(f"non-finite {token} in the output")

            fit = json.loads(out, parse_constant=reject)
            assert err == "" and all(math.isfinite(fit[k])
                                     for k in ("mu", "nu", "mu_err", "nu_err"))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_curve_texts(), st.none() | st.none() | st.just("2") | _N_TEXTS,
           st.none() | st.none() | st.floats(1.0, 20.0).map(str) | _FLOAT_TEXTS)
    def test_fit_curve_texts_and_argv(self, text, n, t2_guess):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "c.csv").write_text(text)
            argv = ["fit", "--in", str(Path(tmp) / "*.csv")]
            argv += ["--n", n] if n is not None else []
            argv += ["--t2-guess", t2_guess] if t2_guess is not None else []
            code, out, err = _main_quiet(argv)
        if code:
            _assert_one_error_line(code, err)
        else:
            def reject(token):
                raise AssertionError(f"non-finite {token} in the output")

            (row,) = json.loads(out, parse_constant=reject)["fits"]
            assert err == "" and row["converged"]
            numbers = [row[k] for k in ("A", "T2eff_ms", "offset", "rss", "chi2_dof")]
            assert all(math.isfinite(v) for v in numbers + list(row["std_errors"].values()))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_N_TEXTS, _FLOAT_TEXTS, _TAU_TEXTS)
    def test_analytic_argv(self, n, t2eff, tau):
        code, out, err = _main_quiet(["analytic", "--n", n, "--t2eff", t2eff,
                                      "--tau", tau])
        if code:
            _assert_one_error_line(code, err)
        else:
            rows = [line.split(",") for line in out.splitlines()
                    if line and not line.startswith(("#", "tau_ms"))]
            assert err == "" and rows
            assert all(math.isfinite(float(v)) for row in rows for v in row), out


# Number texts that int() or float() would read: a plain ASCII number with
# '_', an Arabic-Indic, fullwidth or superscript digit or a no-break space
# put in, or with every digit written as an Arabic-Indic or fullwidth one.
_UNPLAIN_CHARS = st.sampled_from(["_", "\u0661", "\u0666", "\uff11", "\uff16", "\u00b2",
                                  "\u00b9", "\u00a0"])
_FOREIGN_DIGITS = st.sampled_from([str.maketrans("0123456789", "".join(map(chr, range(
    start, start + 10)))) for start in (0x0660, 0xff10)])


@st.composite
def _unplain_texts(draw):
    text = draw(st.integers(1, 10**6).map(str) | st.floats(0.5, 100.0).map(str))
    if draw(st.booleans()):
        return text.translate(draw(_FOREIGN_DIGITS))
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(_UNPLAIN_CHARS) + text[i:]


# Each number read from argv, as (argv with "{}" for the text, the name an
# error must give)
_NUMBER_ARGV = [
    (["analytic", "--n", "{}", "--t2eff", "5", "--tau", "1"], "--n"),
    (["analytic", "--n", "2", "--t2eff", "{}", "--tau", "1"], "--t2eff"),
    (["analytic", "--n", "2", "--t2eff", "5", "--tau", "0,{},9"], "--tau"),
    (["analytic", "--n", "2", "--t2eff", "5", "--tau", "1", "--amplitude", "{}"],
     "--amplitude"),
    (["analytic", "--n", "2", "--t2eff", "5", "--tau", "1", "--offset", "{}"], "--offset"),
    (["fit", "--in", "none.csv", "--n", "{}"], "--n"),
    (["fit", "--in", "none.csv", "--t2-guess", "{}"], "--t2-guess"),
    (["reproduce", "fig5", "--out", "{out}", "--shots", "{}"], "--shots"),
    (["reproduce", "fig5", "--out", "{out}", "--seed", "{}"], "--seed"),
]


class TestPlainNumbers:
    """Every number in argv and ZENO_SEED follows _plain's rule: ASCII, no '_'."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_unplain_texts())
    def test_unplain_numbers_exit_2_naming_the_input(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            out = str(Path(tmp) / "out")
            for argv, name in _NUMBER_ARGV:
                code, stdout, err = _main_quiet(
                    [a.format(text, out=out) for a in argv])
                _assert_one_error_line(code, err)
                assert name in err and stdout == "", (argv, text, err)
            with mock.patch.dict("os.environ", {"ZENO_SEED": text}):
                code, stdout, err = _main_quiet(["reproduce", "fig5", "--out", out])
            _assert_one_error_line(code, err)
            assert "ZENO_SEED" in err and stdout == "", (text, err)
            assert not Path(out).exists()

    @pytest.mark.parametrize("argv,env,name", [
        (["analytic", "--n", "١٦", "--t2eff", "1_0", "--tau", "١,2"], None,
         "--n"),
        (["reproduce", "fig5"], "1_0", "ZENO_SEED"),
        (["reproduce", "fig5", "--seed", "١٠", "--shots", "1_0"], None, "--seed"),
    ], ids=["analytic N=16", "ZENO_SEED=10", "reproduce seed=10 shots=10"])
    def test_commands_that_read_unplain_numbers_as_others(self, tmp_path, monkeypatch,
                                                          argv, env, name):
        if env is not None:
            monkeypatch.setenv("ZENO_SEED", env)
        if argv[0] == "reproduce":
            argv = argv + ["--out", str(tmp_path / "out")]
        code, stdout, err = _main_quiet(argv)
        _assert_one_error_line(code, err)
        assert name in err and stdout == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,kind,value", [
        ("16", int, 16), (" 4", int, 4), ("-0", int, 0), ("1e-3", float, 1e-3),
        ("inf", float, math.inf), ("2.5", float, 2.5),
    ])
    def test_plain_numbers_read_as_before(self, text, kind, value):
        reader = {int: cli._int, float: cli._float}[kind]
        assert reader(text) == kind(text) == value


# The draw integers' rules, in the words of their gates, model.key_word and
# model.shot_count
def _range_message(what, value):
    rule = "must be >= 1" if what.endswith("shots") else "must lie in [0, 2**64)"
    return f"{what} {rule}, got {value}"


def _type_message(what, value):
    return f"{what} must be int, got {value!r}"


# (draw integer, out-of-range value) and the wrong types of a JSON or Python value
_OUT_OF_RANGE = [("seed", -1), ("seed", 2**64), ("shots", -1), ("shots", 0)]
_WRONG_TYPES = [True, 1.5, "3"]
# argv and ZENO_SEED are text, and "3" is a valid int there
_WRONG_TEXTS = ["True", "1.5"]


class TestDrawIntegers:
    """A bad seed or shot count reads the same at every entry point."""

    @pytest.mark.parametrize("key,value", _OUT_OF_RANGE)
    def test_config_out_of_range(self, config, tmp_path, key, value):
        path, cfg = config
        path.write_text(json.dumps(dict(cfg, **{key: value})))
        code, _, err = _main_quiet(["simulate", "--config", str(path), "--out",
                                    str(tmp_path / "out")])
        assert (code, err) == (2, f"error: {_range_message(key, value)}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["seed", "shots"])
    @pytest.mark.parametrize("value", _WRONG_TYPES)
    def test_config_wrong_type(self, config, tmp_path, key, value):
        path, cfg = config
        path.write_text(json.dumps(dict(cfg, **{key: value})))
        code, _, err = _main_quiet(["simulate", "--config", str(path), "--out",
                                    str(tmp_path / "out")])
        assert (code, err) == (2, f"error: {_type_message(key, value)}\n")

    @staticmethod
    def _argv(command, config, tmp_path):
        if command == "simulate":
            return ["simulate", "--config", str(config[0]), "--out", str(tmp_path / "out")]
        return ["reproduce", command, "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("command", ["simulate", "fig2c", "fig5"])
    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_zeno_seed_out_of_range(self, config, tmp_path, monkeypatch, command, value):
        monkeypatch.setenv("ZENO_SEED", str(value))
        code, _, err = _main_quiet(self._argv(command, config, tmp_path))
        assert (code, err) == (2, f"error: {_range_message('seed', value)}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "fig2c", "fig5"])
    @pytest.mark.parametrize("text", _WRONG_TEXTS)
    def test_zeno_seed_wrong_type(self, config, tmp_path, monkeypatch, command, text):
        monkeypatch.setenv("ZENO_SEED", text)
        code, _, err = _main_quiet(self._argv(command, config, tmp_path))
        assert (code, err) == (2, f"error: ZENO_SEED: invalid int value: {text!r}\n")

    @pytest.mark.parametrize("fig", ["fig2c", "fig5"])
    @pytest.mark.parametrize("option,value", [("--seed", -1), ("--seed", 2**64),
                                              ("--shots", -1), ("--shots", 0)])
    def test_reproduce_out_of_range(self, tmp_path, fig, option, value):
        out = tmp_path / "out"
        code, _, err = _main_quiet(["reproduce", fig, "--out", str(out), f"{option}={value}"])
        # the seed may come from ZENO_SEED, so its rule names the seed itself
        what = "seed" if option == "--seed" else option
        assert (code, err) == (2, f"error: {_range_message(what, value)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("fig", ["fig2c", "fig5"])
    @pytest.mark.parametrize("option", ["--seed", "--shots"])
    @pytest.mark.parametrize("text", _WRONG_TEXTS)
    def test_reproduce_wrong_type(self, tmp_path, fig, option, text):
        code, _, err = _main_quiet(["reproduce", fig, "--out", str(tmp_path / "out"),
                                    option, text])
        assert (code, err) == (2, f"error: argument {option}: invalid int value: {text!r}\n")

    @staticmethod
    def _plan(**fields):
        return ExperimentPlan(**dict(dict(
            noise=NoiseModel((12.4,)), initial_state="X", observable="X", readout=("X",),
            n_projections=0, tau_grid=(0.0, 3.0), shots=2, seed=1), **fields))

    @pytest.mark.parametrize("field,value", _OUT_OF_RANGE)
    def test_plan_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"^{re.escape(_range_message(field, value))}$"):
            self._plan(**{field: value})

    @pytest.mark.parametrize("field", ["seed", "shots"])
    @pytest.mark.parametrize("value", _WRONG_TYPES)
    def test_plan_wrong_type(self, field, value):
        with pytest.raises(TypeError, match=f"^{re.escape(_type_message(field, value))}$"):
            self._plan(**{field: value})
