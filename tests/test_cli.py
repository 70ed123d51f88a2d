import json
from unittest import mock

import numpy as np
import pytest

from zenosim import cli
from zenosim.cli import (AMPLITUDE_LOGICAL, T2_STAR, _avg_curve, _json_dumps,
                         build_parser, main, parse_curve_csv)
from zenosim.ensemble import ExperimentPlan, NoiseModel, run_ensemble, sample_detunings
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

    def test_monte_carlo_size_limit(self, config, tmp_path, capsys):
        path, cfg = config
        path.write_text(json.dumps(dict(cfg, shots=111111111111111111111111111111)))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Monte-Carlo rows" in err
        assert err.count("\n") == 1, err
        assert not list(tmp_path.rglob("*.csv"))

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

    def test_projection_limit_is_a_failed_fit(self, tmp_path):
        self._write_gaussian(tmp_path / "c0.csv")
        text = (tmp_path / "c0.csv").read_text()
        (tmp_path / "c0.csv").write_text(
            text.replace("# n_projections: 0", f"# n_projections: {10**9 + 2}"))
        out = tmp_path / "fits.json"
        assert main(["fit", "--in", str(tmp_path / "*.csv"), "--out", str(out)]) == 2
        row = json.loads(out.read_text())["fits"][0]
        assert row["converged"] is False and "projection count" in row["error"]

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


def test_json_output_rejects_nan():
    with pytest.raises(ValueError):
        _json_dumps({"mu_err": float("nan")})


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

    def test_missing_n0(self, tmp_path):
        inp = tmp_path / "times.json"
        inp.write_text(json.dumps({"times": {"2": 2.1, "4": 2.8}}))
        assert main(["scaling", "--in", str(inp)]) == 2

    def test_flat_times_rejected(self, tmp_path, capsys):
        # No enhancement at all: mu = 0 leaves nu and both errors undefined.
        inp = tmp_path / "times.json"
        inp.write_text(json.dumps({"times": {"0": 1, "2": 1, "4": 1}}))
        out = tmp_path / "scaling.json"
        assert main(["scaling", "--in", str(inp), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scaling fit") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"times": {"0": "x"}}',
        '{"fits": [{"converged": true, "n_projections": 0, "T2eff_ms": 0}]}',
        '{"fits": [{"converged": true, "n_projections": 2, "T2eff_ms": NaN}]}',
        '{"times": {"0": 1.0, "2": Infinity, "4": 2.0}}',
        '{"times": {"0": 1.0, "2.5": 1.5, "4": 2.0}}',
        '[1.0, 1.5, 2.0]',
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
        # 2/1e-320 is not finite
        '{"times": {"0": 1e-320, "2": 2, "4": 3}}',
    ])
    def test_bad_input_rejected(self, tmp_path, capsys, text):
        inp = tmp_path / "bad.json"
        inp.write_text(text)
        assert main(["scaling", "--in", str(inp)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_n_past_float_precision_kept(self, tmp_path, capsys):
        # float(N) is 99999999999999991611392: N must not pass through float
        big = "99999999999999999999999"
        inp = tmp_path / "times.json"
        inp.write_text(f'{{"times": {{"0": 1, "2": 2, "{big}": 3}}}}')
        out = tmp_path / "scaling.json"
        assert main(["scaling", "--in", str(inp), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        res = json.loads(out.read_text())
        assert res["normalized_times"] == {"0": 1.0, "2": 2.0, big: 3.0}
        assert np.isfinite([res["mu"], res["nu"], res["mu_err"], res["nu_err"]]).all()


class TestReproduce:
    def test_fig5_summary(self, tmp_path, capsys):
        out = tmp_path / "fig5"
        assert main(["reproduce", "fig5", "--out", str(out)]) == 0
        summary = json.loads((out / "fig5_summary.json").read_text())
        assert summary["mu"] == pytest.approx(0.77, abs=0.02)
        assert summary["nu"] == pytest.approx(0.63, abs=0.02)
        assert (out / "fig5_normalized_times.csv").exists()

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

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig9", "--out", str(tmp_path)])

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
    return sample_detunings(plan.seed, plan.stream, 0, plan.shots, plan.noise).tobytes()


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
