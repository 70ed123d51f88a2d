import json

import numpy as np
import pytest

from zenosim.cli import AMPLITUDE_LOGICAL, T2_STAR, _avg_curve, main, parse_curve_csv
from zenosim.ensemble import ExperimentPlan, NoiseModel, run_ensemble
from zenosim.logical import CARDINAL_2SPIN
from zenosim.model import sqrt_e_time


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
    ])
    def test_bad_number_values_rejected(self, config, tmp_path, capsys, bad):
        path, cfg = config
        path.write_text(json.dumps(dict(cfg, **bad)))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
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

    def test_no_match(self, tmp_path):
        assert main(["fit", "--in", str(tmp_path / "*.csv")]) == 2


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

    @pytest.mark.parametrize("text", [
        '{"times": {"0": "x"}}',
        '{"fits": [{"converged": true, "n_projections": 0, "T2eff_ms": 0}]}',
        '{"fits": [{"converged": true, "n_projections": 2, "T2eff_ms": NaN}]}',
        '{"times": {"0": 1.0, "2": Infinity, "4": 2.0}}',
        '{"times": {"0": 1.0, "2.5": 1.5, "4": 2.0}}',
        '[1.0, 1.5, 2.0]',
    ])
    def test_bad_input_rejected(self, tmp_path, capsys, text):
        inp = tmp_path / "bad.json"
        inp.write_text(text)
        assert main(["scaling", "--in", str(inp)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


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
    def test_derived_seed_overflow_rejected(self, tmp_path, capsys, fig):
        # a valid base seed whose seed + N + 1000*j passes 2**64 - 1
        out = tmp_path / fig
        assert main(["reproduce", fig, "--out", str(out), "--shots", "1",
                     "--seed", str(2**64 - 16)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not out.exists()

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

    def test_fig4b_states_have_distinct_seeds(self, tmp_path):
        out = tmp_path / "fig4b"
        assert main(["reproduce", "fig4b", "--out", str(out), "--shots", "20"]) == 0
        for n in (0, 2, 4):
            seeds = {parse_curve_csv(p.read_text()).metadata["seed"]
                     for p in out.glob(f"fig4b_*_N{n}.csv")}
            assert len(seeds) == 3, (n, seeds)

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
        runs = [self._run(T2_STAR[:2], s, 2, seed + 1000 * j)
                for j, s in enumerate(CARDINAL_2SPIN)]
        want_mean = sum(amp * r.mean + (1 - amp) / 2 for r in runs) / len(runs)
        want_err = amp * np.sqrt(sum(r.stderr**2 for r in runs)) / len(runs)
        assert np.max(np.abs(curve.mean - want_mean)) <= 1e-15
        assert np.max(np.abs(curve.stderr - want_err)) <= 1e-15
        assert np.all(curve.stderr[1:] > 0)

    def test_single_state_scales_readout_error(self):
        curve = _avg_curve(T2_STAR, ("X0L",), "L:", 4, self.TAUS, 50, 77, 0.89)
        run = self._run(T2_STAR, "X0L", 4, 77)
        assert np.max(np.abs(curve.stderr - 0.89 * run.stderr)) <= 1e-15
