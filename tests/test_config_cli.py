from pathlib import Path

import pytest

import slns.config
from slns.cli import main
from slns.config import compare_gates, load_config, save_effective
from slns.errors import ConfigError

EXAMPLES = Path(__file__).resolve().parents[1] / "examples_cfg"

BURGERS_CFG = """
[run]
equation = burgers
dim = 1
n = 128
nu = 0.1
dt = 0.002
t_end = 0.05
realizations = 32
seed = 3

[initial]
name = sine_mode
mode = 1
amplitude = 1.0

[output]
dir = {out}
snapshot_interval = 0

[compare]
oracle = cole_hopf
rel_l2_max = 0.2
"""

TG_CFG = """
[run]
equation = navier_stokes
dim = 2
n = 32
nu = 0.05
dt = 0.005
t_end = 0.02
realizations = 16
seed = 1

[initial]
name = taylor_green_2d

[output]
dir = {out}
"""

CONSTANT_FORCING = """
[forcing]
name = constant
vector = 0.1, 0.0
"""


def write_cfg(tmp_path, text, name="run.cfg", out="out"):
    p = tmp_path / name
    p.write_text(text.format(out=tmp_path / out))
    return p


class TestConfigFile:
    def test_load_and_values(self, tmp_path):
        p = write_cfg(tmp_path, BURGERS_CFG)
        cfg = load_config(p)
        assert cfg.equation == "burgers"
        assert cfg.n == 128
        assert cfg.initial_params == {"mode": 1, "amplitude": 1.0}
        assert compare_gates(p)["rel_l2_max"] == 0.2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[run]\nequation = burgers\nwat = 1\n")
        with pytest.raises(ConfigError, match="unknown"):
            load_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[run]\nequation = burgers\ndim = 1\n\n[extra]\nx = 1\n")
        with pytest.raises(ConfigError, match="section"):
            load_config(p)

    def test_overrides_win(self, tmp_path):
        p = write_cfg(tmp_path, BURGERS_CFG)
        cfg = load_config(p, {"run.seed": "99", "initial.amplitude": "0.5"})
        assert cfg.seed == 99
        assert cfg.initial_params["amplitude"] == 0.5

    def test_effective_roundtrip(self, tmp_path):
        p = write_cfg(tmp_path, BURGERS_CFG)
        cfg = load_config(p)
        eff = tmp_path / "effective.cfg"
        save_effective(cfg, eff, gates={"rel_l2_max": 0.2})
        cfg2 = load_config(eff)
        assert cfg2 == cfg
        assert compare_gates(eff)["rel_l2_max"] == 0.2

    def test_documented_probe_line_gives_three_probes(self, tmp_path):
        line = next(
            ln for ln in slns.config.__doc__.splitlines() if ln.startswith("probes =")
        )
        p = tmp_path / "probes.cfg"
        p.write_text(f"[run]\nequation = burgers\ndim = 1\n\n[output]\n{line}\n")
        assert load_config(p).probes == [[1.57, 3.14, 4.71]]

    def test_two_probes_survive_effective_roundtrip(self, tmp_path):
        p = write_cfg(tmp_path, TG_CFG + "probes = 1.0,2.0 ; 3.0,4.0  # two points\n")
        cfg = load_config(p)
        assert cfg.probes == [[1.0, 3.0], [2.0, 4.0]]
        eff = tmp_path / "effective.cfg"
        save_effective(cfg, eff)
        assert load_config(eff) == cfg

    def test_constant_forcing_vector_roundtrip(self, tmp_path):
        p = write_cfg(tmp_path, TG_CFG + CONSTANT_FORCING)
        cfg = load_config(p)
        assert cfg.forcing_params == {"vector": [0.1, 0.0]}
        eff = tmp_path / "effective.cfg"
        save_effective(cfg, eff)
        assert load_config(eff) == cfg


class TestCLI:
    def test_run_creates_artifacts(self, tmp_path, capsys):
        p = write_cfg(tmp_path, BURGERS_CFG)
        assert main(["run", str(p)]) == 0
        out = tmp_path / "out"
        for name in ("diag.csv", "effective.cfg", "manifest.json", "timing.csv"):
            assert (out / name).exists(), name
        assert sorted(out.glob("snapshot_*.slnsf"))
        assert "run finished" in capsys.readouterr().out

    def test_missing_config_exit_1_names_path(self, tmp_path, capsys):
        missing = tmp_path / "ghost.cfg"
        assert main(["run", str(missing)]) == 1
        assert "ghost.cfg" in capsys.readouterr().err

    def test_seed_override_reproducible(self, tmp_path):
        p = write_cfg(tmp_path, BURGERS_CFG)
        main(["run", str(p), "--seed", "7", "--output-dir", str(tmp_path / "a")])
        main(["run", str(p), "--seed", "7", "--output-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "diag.csv").read_bytes() == (
            tmp_path / "b" / "diag.csv"
        ).read_bytes()

    def test_effective_config_rerun_identical(self, tmp_path):
        p = write_cfg(tmp_path, BURGERS_CFG)
        main(["run", str(p)])
        eff = tmp_path / "out" / "effective.cfg"
        main(["run", str(eff), "--output-dir", str(tmp_path / "rerun")])
        assert (tmp_path / "out" / "diag.csv").read_bytes() == (
            tmp_path / "rerun" / "diag.csv"
        ).read_bytes()

    def test_effective_config_reproduces_every_section(self, tmp_path):
        sections = """
[forcing]
name = steady_taylor_green
quadrature = trapezoid

[circulation]
kind = circle
center = 3.0, 3.2
radius = 1.0
realizations = 2
"""
        p = write_cfg(tmp_path, TG_CFG + "probes = 1.0,2.0 ; 3.0,4.0\n" + sections)
        assert main(["run", str(p), "--set", "run.reset_interval=2"]) == 0
        eff = tmp_path / "out" / "effective.cfg"
        assert main(["run", str(eff), "--output-dir", str(tmp_path / "rerun")]) == 0
        for name in ("diag.csv", "circulation.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (
                tmp_path / "rerun" / name
            ).read_bytes(), name

    def test_constant_forcing_runs(self, tmp_path, capsys):
        p = write_cfg(tmp_path, TG_CFG + CONSTANT_FORCING)
        assert main(["run", str(p)]) == 0
        assert main(["run", str(p), "--set", "forcing.vector=0.1,0.0,0.0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_workers_flag_invariant(self, tmp_path, monkeypatch):
        p = write_cfg(tmp_path, TG_CFG)
        main(["run", str(p), "--workers", "1", "--output-dir", str(tmp_path / "w1"),
              "--set", "run.reset_interval=50"])
        monkeypatch.setenv("SLNS_WORKERS", "4")
        main(["run", str(p), "--output-dir", str(tmp_path / "w4"),
              "--set", "run.reset_interval=50"])
        assert (tmp_path / "w1" / "diag.csv").read_bytes() == (
            tmp_path / "w4" / "diag.csv"
        ).read_bytes()

    def test_cfl_violation_exit_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path, BURGERS_CFG)
        code = main(["run", str(p), "--set", "run.dt=0.05", "--set", "run.t_end=0.05",
                     "--set", "run.cfl_max=0.01"])
        assert code == 2

    def test_non_invertible_exit_3(self, tmp_path):
        p = write_cfg(tmp_path, TG_CFG)
        code = main(["run", str(p), "--set", "run.newton_max_iter=1",
                     "--set", "run.inversion_tol_factor=1e-15"])
        assert code == 3

    def test_non_finite_velocity_exit_4(self, tmp_path, capsys):
        # a NaN force makes the first recovered velocity NaN
        nan_force = "\n[forcing]\nname = steady_taylor_green\namplitude = nan\n"
        p = write_cfg(tmp_path, TG_CFG + nan_force)
        assert main(["run", str(p)]) == 4
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        ["initial.amplitude=nan", "initial.name=bogus", "initial.bogus=1", "run.dim=3"],
    )
    def test_bad_initial_field_exit_1(self, tmp_path, capsys, override):
        p = write_cfg(tmp_path, TG_CFG)
        assert main(["run", str(p), "--set", override]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            "circulation.center=a, b",
            "circulation.radius=x",
            "circulation.realizations=x",
            "output.snapshot_interval=x",
        ],
    )
    def test_non_numeric_value_exit_1(self, tmp_path, capsys, override):
        p = write_cfg(tmp_path, TG_CFG)
        assert main(["run", str(p), "--set", override]) == 1
        assert "error:" in capsys.readouterr().err

    def test_compare_gates_pass_and_fail(self, tmp_path, capsys):
        p = write_cfg(tmp_path, BURGERS_CFG)
        main(["run", str(p)])
        assert main(["compare", str(tmp_path / "out"), "--oracle", "cole_hopf"]) == 0
        # tighten the gate beyond reach and expect a failure exit
        eff = tmp_path / "out" / "effective.cfg"
        text = eff.read_text().replace("rel_l2_max = 0.2", "rel_l2_max = 1e-12")
        eff.write_text(text)
        assert main(["compare", str(tmp_path / "out"), "--oracle", "cole_hopf"]) == 1

    def test_compare_run_against_its_own_field(self, tmp_path):
        # comparing the t=0 snapshot against the analytic initial state
        p = write_cfg(tmp_path, TG_CFG)
        main(["run", str(p), "--set", "run.t_end=0.0"])
        assert main(["compare", str(tmp_path / "out"), "--oracle", "analytic"]) == 0
        csv = (tmp_path / "out" / "compare_analytic.csv").read_text().splitlines()
        l2_vals = [float(line.split(",")[1]) for line in csv[1:]]
        assert max(l2_vals) <= 1e-12

    @pytest.mark.parametrize("args", [["--levels", "2"], ["--reference", "oracle"]])
    def test_convergence_errors_exit_1(self, capsys, args):
        cfg = EXAMPLES / "lans_alpha.cfg"  # has no oracle
        assert main(["convergence", str(cfg), "--axis", "dt", *args]) == 1
        assert "error:" in capsys.readouterr().err

    def test_convergence_command(self, tmp_path, capsys):
        p = write_cfg(tmp_path, BURGERS_CFG)
        out_csv = tmp_path / "conv.csv"
        code = main(
            ["convergence", str(p), "--axis", "realizations", "--levels", "3",
             "--set", "run.t_end=0.02", "--set", "run.realizations=16",
             "--out", str(out_csv)]
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "level,value,error,order"
        assert len(lines) == 4

    def test_info(self, capsys, tmp_path):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "equations" in out and "SLNSF1" in out
        p = write_cfg(tmp_path, BURGERS_CFG)
        assert main(["info", str(p)]) == 0
        assert "valid" in capsys.readouterr().out


class TestCompareOracles:
    def test_cole_hopf_needs_viscosity(self, tmp_path, capsys):
        p = write_cfg(tmp_path, BURGERS_CFG)
        assert main(["run", str(p), "--set", "run.nu=0"]) == 0
        assert main(["compare", str(tmp_path / "out"), "--oracle", "cole_hopf"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_spectral_ns_oracle(self, tmp_path):
        p = write_cfg(tmp_path, TG_CFG)
        main(["run", str(p)])
        assert main(["compare", str(tmp_path / "out"), "--oracle", "spectral_ns"]) == 0
        assert (tmp_path / "out" / "compare_spectral_ns.csv").exists()

    def test_config_oracle_is_the_default(self, tmp_path, capsys):
        p = write_cfg(tmp_path, TG_CFG + "\n[compare]\noracle = spectral_ns\n")
        main(["run", str(p)])
        assert main(["compare", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "compare_spectral_ns.csv").exists()
        assert not (tmp_path / "out" / "compare_analytic.csv").exists()
        eff = tmp_path / "out" / "effective.cfg"
        eff.write_text(eff.read_text().replace("spectral_ns", "bogus"))
        assert main(["compare", str(tmp_path / "out")]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_constant_forcing_analytic_is_forced_spectral(self, tmp_path):
        # no closed form: the analytic oracle is the forced spectral reference
        p = write_cfg(tmp_path, TG_CFG + CONSTANT_FORCING)
        main(["run", str(p)])
        out = tmp_path / "out"
        assert main(["compare", str(out), "--oracle", "analytic"]) == 0
        assert main(["compare", str(out), "--oracle", "spectral_ns"]) == 0
        assert (out / "compare_analytic.csv").read_bytes() == (
            out / "compare_spectral_ns.csv"
        ).read_bytes()

    def test_convergence_against_oracle(self, tmp_path):
        p = write_cfg(tmp_path, BURGERS_CFG)
        code = main(
            ["convergence", str(p), "--axis", "dt", "--levels", "3",
             "--reference", "oracle",
             "--set", "run.t_end=0.04", "--set", "run.dt=0.004",
             "--set", "run.realizations=32"]
        )
        assert code == 0
