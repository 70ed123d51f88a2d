import json

import numpy as np
import pytest

from zenosim.cli import main, parse_curve_csv
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
        path.write_text(json.dumps(dict(cfg, t2_star=[12.4, 8.2], initial_state="X")))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "register" in capsys.readouterr().err
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
