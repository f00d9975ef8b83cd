import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slns.config
import slns.solver
from slns.cli import main
from slns.config import compare_gates, load_config, save_effective
from slns.errors import ConfigError
from slns.grid import PeriodicGrid
from slns.reference import taylor_green_2d
from slns.snapshots import write_snapshot
from slns.solver import SolverConfig

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

RANDOM_CFG = TG_CFG.replace("taylor_green_2d", "random_band_limited\nkmax = 2\ndivergence_free = true")

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

    def test_every_run_key_roundtrips(self, tmp_path):
        # every [run] value but a pinned one differs from its default, so a
        # key that save_effective leaves out comes back as the default
        run = dict(equation="lans_alpha", dim=3, n=16, length=3.0, nu=0.07, alpha=0.1,
                   dt=0.002, t_end=0.01, realizations=8, reset_interval=3,
                   seed=5, backend="translated_flow",
                   inversion_tol_factor=1e-9, substeps=2, **slns.solver.PINNED)
        assert set(run) == set(slns.config._RUN_KEYS)
        default = SolverConfig()
        assert all(value != getattr(default, key) for key, value in run.items()
                   if key not in slns.solver.PINNED)
        cfg = SolverConfig(**run, initial="abc_flow")
        eff = tmp_path / "effective.cfg"
        save_effective(cfg, eff)
        assert load_config(eff) == cfg

    def test_output_dir_stays_text(self, tmp_path):
        # a comma in a path is not a list separator
        p = write_cfg(tmp_path, TG_CFG, out="a,b")
        assert load_config(p).output_dir == str(tmp_path / "a,b")

    def test_one_number_is_a_1d_vector(self, tmp_path):
        text = BURGERS_CFG + "\n[forcing]\nname = constant\nvector = 0.1\n"
        cfg = load_config(write_cfg(tmp_path, text))
        eff = tmp_path / "effective.cfg"
        save_effective(cfg, eff)
        assert load_config(eff) == cfg
        assert "vector = 0.10000000000000001\n" in eff.read_text()

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

[circulation]
center = 3.0, 3.2
radius = 1.0
"""
        p = write_cfg(tmp_path, TG_CFG + sections)
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

    @pytest.mark.parametrize(
        "lines",
        [
            "name = steady_taylor_green\namplitud = 2",
            "name = steady_taylor_green\nquadrature = left",
            "nme = constant\nvector = 0.1, 0.0",  # no forcing name: not unforced
            "name = constant\nvector = nan, 0",
            "name = constant\nvector = 0, inf",
            "name = steady_taylor_green\namplitude = nan",
            "name = steady_taylor_green\namplitude = inf",
            "name = steady_taylor_green\namplitude = abc",
            "name = constant\nvector = true, 0",
        ],
        ids=["amplitud", "quadrature", "nameless", "vector-nan", "vector-inf", "amplitude-nan",
             "amplitude-inf", "amplitude-abc", "vector-bool"],
    )
    def test_unknown_forcing_key_exit_1(self, tmp_path, capsys, lines):
        p = write_cfg(tmp_path, TG_CFG + f"\n[forcing]\n{lines}\n")
        assert main(["info", str(p)]) == 1
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err.count("forcing") >= 2
        assert not (tmp_path / "out").exists()

    def test_run_files_independent_of_hash_seed(self, tmp_path):
        # effective.cfg lists its keys in a fixed order: two processes with
        # different string hashing write the same bytes
        p = tmp_path / "run.cfg"
        p.write_text(TG_CFG.format(out="out").replace("t_end = 0.02", "t_end = 0.01"))
        src = str(Path(slns.config.__file__).resolve().parents[1])
        outs = []
        for hash_seed in ("1", "2"):
            cwd = tmp_path / f"h{hash_seed}"
            cwd.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-m", "slns.cli", "run", str(p)], cwd=cwd, env=env,
                           check=True, capture_output=True)
            outs.append([(cwd / "out" / name).read_bytes()
                         for name in ("effective.cfg", "manifest.json")])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "args",
        [["run", "{cfg}", "--bogus"], ["run", "{cfg}", "--workers", "4"],
         ["convergence", "{cfg}", "--axis", "foo"]],
        ids=["unknown-flag", "removed-workers-flag", "bad-choice"],
    )
    def test_usage_error_exit_1(self, tmp_path, capsys, args):
        # exit 2 is the CFL violation's, not argparse's
        p = write_cfg(tmp_path, BURGERS_CFG)
        assert main([a.format(cfg=p) for a in args]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cfl_violation_exit_2(self, tmp_path, capsys):
        # dt |u|max / h = 0.05 * 1 / (2 pi / 128) = 1.02 > CFL_MAX
        p = write_cfg(tmp_path, BURGERS_CFG)
        code = main(["run", str(p), "--set", "run.dt=0.05", "--set", "run.t_end=0.05"])
        assert code == 2
        assert "CFL" in capsys.readouterr().err

    def test_non_invertible_exit_3(self, tmp_path, capsys):
        # a tolerance below rounding cannot be met within MAX_UPDATES updates
        p = write_cfg(tmp_path, TG_CFG)
        assert main(["run", str(p), "--set", "run.inversion_tol_factor=1e-17"]) == 3
        assert "stalled" in capsys.readouterr().err

    def test_folded_map_exit_3(self, tmp_path, capsys):
        # the unit sine steepens into a shock near t = 1; a window that long folds
        p = write_cfg(tmp_path, BURGERS_CFG)
        args = ["run.nu=0.001", "run.dt=0.02", "run.t_end=1.6", "run.realizations=4",
                "run.reset_interval=1000"]
        assert main(["run", str(p), *(a for kv in args for a in ("--set", kv))]) == 3
        assert "map folds" in capsys.readouterr().err

    def test_non_finite_velocity_exit_4(self, tmp_path, capsys, monkeypatch):
        # a NaN from the Weber recovery is caught before the step commits
        monkeypatch.setattr(slns.solver, "weber_velocity",
                            lambda flow, u0: np.full(u0.shape[-3:], np.nan))
        p = write_cfg(tmp_path, TG_CFG)
        assert main(["run", str(p)]) == 4
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        ["run.cfl_max=0.5", "run.newton_max_iter=25", "circulation.kind=circle",
         "circulation.realizations=2", "output.probes=1.0"],
    )
    def test_retired_key_exit_1_names_it(self, tmp_path, capsys, override):
        # keys that older effective.cfg files hold; their settings are constants
        p = write_cfg(tmp_path, TG_CFG)
        assert main(["run", str(p), "--set", override]) == 1
        key = override.split("=")[0].split(".")[1]
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_circulation_section_writes_rows(self, tmp_path):
        p = write_cfg(tmp_path, TG_CFG + "\n[circulation]\n")
        assert main(["run", str(p)]) == 0
        rows = (tmp_path / "out" / "circulation.csv").read_text().splitlines()
        assert len(rows) == 1 + 4 * 2  # 4 steps x CIRCULATION_REALIZATIONS
        assert "[circulation]" in (tmp_path / "out" / "effective.cfg").read_text()

    @pytest.mark.parametrize(
        "override",
        ["initial.amplitude=nan", "initial.name=bogus", "initial.bogus=1", "run.dim=3"],
    )
    def test_bad_initial_field_exit_1(self, tmp_path, capsys, override):
        p = write_cfg(tmp_path, TG_CFG)
        assert main(["run", str(p), "--set", override]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["initial.amplitude=true", "initial.divergence_free=2"])
    def test_initial_param_of_wrong_type_exit_1(self, tmp_path, capsys, override):
        # each [initial] value takes the type of the generator's default
        p = write_cfg(tmp_path, RANDOM_CFG)
        assert main(["info", str(p)]) == 0
        assert main(["run", str(p), "--set", override]) == 1
        assert f"[initial] {override.split('=')[0].split('.')[1]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "override",
        [
            "circulation.center=a, b",
            "circulation.radius=x",
            "output.snapshot_interval=x",
            # a value of the wrong type, as SolverConfig checks it
            "run.n=64.0",
            "run.seed=1.5",
            "run.realizations=true",
            "run.nu=abc",
            "run.equation=1",
            "output.snapshot_interval=2.5",
            "output.probes=a,b",
        ],
    )
    def test_non_numeric_value_exit_1(self, tmp_path, capsys, override):
        p = write_cfg(tmp_path, TG_CFG)
        assert main(["run", str(p), "--set", override]) == 1
        assert override.split("=")[0].split(".")[1] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "override",
        [
            "run.nu=nan",  # `nu > 0` is false for NaN: a noise-free run
            "run.alpha=inf",
            "run.alpha=0.5",  # read only by lans_alpha
            "run.inversion_tol_factor=nan",  # `rnorm > nan` never holds
            "run.inversion_tol_factor=-1e-8",
            "run.dt=nan",
            "run.t_end=nan",
            "run.workers=0",
            "run.workers=-2",
            "run.substeps=0",
            "run.interpolation=linear",
            # pinned to the one value every run uses
            "run.workers=4",
            "run.interpolation=quintic",
            "run.picard_iters=3",
            "run.seed=-1",
            "output.snapshot_interval=-1",  # `step % -1 == 0` on every step
            "output.probes=",
            "output.probes=1.0, nan",
            "circulation.realizations=0",  # retired: the probe reports 2 realizations
            # non-finite curves used to fail at the first step's interpolation
            "circulation.radius=nan",
            "circulation.radius=inf",
            "circulation.center=nan, 1",
        ],
    )
    def test_out_of_range_run_value_exit_1(self, tmp_path, capsys, override):
        p = write_cfg(tmp_path, TG_CFG)
        assert main(["run", str(p), "--set", override]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and override.split("=")[0].split(".")[1] in err

    @pytest.mark.parametrize(
        "text",
        [
            TG_CFG.replace("name = taylor_green_2d", "name = sine_mode"),  # not divergence-free
            TG_CFG.replace("name = taylor_green_2d", "name = taylor_green_2d\namplitude = nan"),
            BURGERS_CFG + "\n[forcing]\nname = steady_taylor_green\n",  # a 2D forcing
            # sine_mode parameters it cannot honour
            BURGERS_CFG.replace("mode = 1", "mode = 1\ncomponent = 1"),
            TG_CFG.replace("name = taylor_green_2d", "name = sine_mode\ncomponent = -1"),
            BURGERS_CFG.replace("mode = 1", "mode = 0"),
            BURGERS_CFG.replace("mode = 1", "mode = 1.5"),  # not periodic
            # a bad [compare] section fails every subcommand, info included
            BURGERS_CFG.replace("oracle = cole_hopf", "oracle = bogus"),
            BURGERS_CFG.replace("rel_l2_max = 0.2", "rel_l2_max = nan"),
            BURGERS_CFG.replace("rel_l2_max = 0.2", "rel_l2_mx = 0.2"),
            BURGERS_CFG.replace("seed = 3", "seed = 3\nalpha = 2.0"),  # read only by lans_alpha
        ],
        ids=["divergent-initial", "nan-initial", "1d-steady-taylor-green",
             "sine-component-1-in-1d", "sine-component-minus-1", "sine-mode-0",
             "sine-mode-1.5", "bogus-oracle", "nan-gate", "unknown-compare-key",
             "alpha-on-burgers"],
    )
    def test_info_rejects_what_run_rejects(self, tmp_path, capsys, text):
        p = write_cfg(tmp_path, text)
        assert main(["info", str(p)]) == 1
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err.count("error:") == 2
        assert not (tmp_path / "out").exists()

    def test_circulation_needs_2d(self, tmp_path, capsys):
        p = write_cfg(tmp_path, BURGERS_CFG + "\n[circulation]\n")
        assert main(["run", str(p)]) == 1
        assert "circulation" in capsys.readouterr().err

    def test_compare_gates_pass_and_fail(self, tmp_path, capsys):
        p = write_cfg(tmp_path, BURGERS_CFG)
        main(["run", str(p)])
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "out"), "--oracle", "cole_hopf"]) == 0
        # every snapshot row prints the three norms of compare_<oracle>.csv
        rows = [line for line in capsys.readouterr().out.splitlines() if "t=" in line]
        assert rows and all(re.findall(r"(\w+)=", line) == ["t", "l2", "rel_l2", "linf"]
                            for line in rows)
        # tighten the gate beyond reach and expect a failure exit
        eff = tmp_path / "out" / "effective.cfg"
        eff.write_text(re.sub(r"rel_l2_max = .*", "rel_l2_max = 1e-12", eff.read_text()))
        assert compare_gates(eff)["rel_l2_max"] == 1e-12
        assert main(["compare", str(tmp_path / "out"), "--oracle", "cole_hopf"]) == 1

    @pytest.mark.parametrize(
        "override, run_code, compare_code",
        [
            ("compare.linf_max=1e-30", 0, 1),  # an override gates like a file value
            ("compare.rel_l2_mx=0.1", 1, None),
            ("compare.rel_l2_max=abc", 1, None),
            ("compare.rel_l2_max=nan", 1, None),  # `worst > nan` could never fail
            ("compare.linf_max=inf", 1, None),
        ],
    )
    def test_compare_section_validated(self, tmp_path, capsys, override, run_code, compare_code):
        p = write_cfg(tmp_path, BURGERS_CFG)
        assert main(["run", str(p), "--set", override]) == run_code
        if compare_code is None:
            assert "error:" in capsys.readouterr().err
        else:
            assert main(["compare", str(tmp_path / "out")]) == compare_code

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_compare_rejects_non_finite_gate(self, tmp_path, capsys, value):
        p = write_cfg(tmp_path, BURGERS_CFG)
        assert main(["run", str(p)]) == 0
        eff = tmp_path / "out" / "effective.cfg"
        eff.write_text(re.sub(r"rel_l2_max = .*", f"rel_l2_max = {value}", eff.read_text()))
        assert main(["compare", str(tmp_path / "out")]) == 1
        assert "must be finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize("override", ["compare.rel_l2_max=inf", "compare.bogus=1"])
    def test_convergence_checks_compare_section(self, tmp_path, capsys, override):
        p = write_cfg(tmp_path, BURGERS_CFG)
        assert main(["convergence", str(p), "--axis", "realizations",
                     "--set", override]) == 1
        assert "[compare]" in capsys.readouterr().err

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
        # the oracles that `slns compare --oracle` accepts
        assert "oracles: cole_hopf, spectral_ns, analytic\n" in out
        p = write_cfg(tmp_path, BURGERS_CFG)
        assert main(["info", str(p)]) == 0
        assert "valid" in capsys.readouterr().out


@pytest.mark.parametrize("cfg", sorted(EXAMPLES.glob("*.cfg")), ids=lambda p: p.name)
def test_example_config_is_valid(cfg):
    # an example that keeps a removed or misspelt key fails here
    assert main(["info", str(cfg)]) == 0
    compare_gates(cfg)


@pytest.mark.parametrize("cfg", sorted(EXAMPLES.glob("*.cfg")), ids=lambda p: p.name)
def test_example_config_loads_to_an_equal_config(cfg, tmp_path):
    # the checks keep every value as the file gives it, and the initial
    # field the config keeps is no field: effective.cfg reads back equal
    config = load_config(cfg)
    save_effective(config, tmp_path / "effective.cfg")
    assert load_config(tmp_path / "effective.cfg") == config == dataclasses.replace(config)


class TestCompareOracles:
    def test_cole_hopf_needs_viscosity(self, tmp_path, capsys):
        p = write_cfg(tmp_path, BURGERS_CFG)
        assert main(["run", str(p), "--set", "run.nu=0"]) == 0
        assert main(["compare", str(tmp_path / "out"), "--oracle", "cole_hopf"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("nu, code", [("0.05", 0), ("0.04", 1)])
    def test_cole_hopf_rounding_limit(self, tmp_path, capsys, nu, code):
        # below nu ~ 0.045 the unit sine's Cole-Hopf field loses its digits
        p = write_cfg(tmp_path, BURGERS_CFG)
        assert main(["run", str(p), "--set", f"run.nu={nu}", "--set", "run.t_end=0.01",
                     "--set", "compare.rel_l2_max=1"]) == 0
        assert main(["compare", str(tmp_path / "out")]) == code
        assert main(["convergence", str(p), "--axis", "dt", "--levels", "3",
                     "--reference", "oracle", "--set", f"run.nu={nu}",
                     "--set", "run.t_end=0.008", "--set", "run.dt=0.004"]) == code
        if code:
            assert capsys.readouterr().err.count("error: cole_hopf oracle") == 2

    def test_spectral_ns_oracle(self, tmp_path):
        p = write_cfg(tmp_path, TG_CFG)
        main(["run", str(p)])
        assert main(["compare", str(tmp_path / "out"), "--oracle", "spectral_ns"]) == 0
        assert (tmp_path / "out" / "compare_spectral_ns.csv").exists()

    def test_bogus_config_oracle_fails_before_the_run(self, tmp_path, capsys):
        p = write_cfg(tmp_path, TG_CFG + "\n[compare]\noracle = bogus\n")
        assert main(["run", str(p)]) == 1
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_spectral_reference_integrates_once_for_every_snapshot(self, tmp_path, monkeypatch):
        p = write_cfg(tmp_path, RANDOM_CFG)
        assert main(["run", str(p), "--set", "run.t_end=0.05",
                     "--set", "output.snapshot_interval=1"]) == 0
        runs = []
        real_run = slns.solver.spectral_ns_run
        monkeypatch.setattr(slns.solver, "spectral_ns_run",
                            lambda *a, **kw: runs.append(a[3]) or real_run(*a, **kw))
        assert main(["compare", str(tmp_path / "out"), "--oracle", "spectral_ns"]) == 0
        assert len(runs) == 1 and len(runs[0]) == 11
        # the same references as one integration per snapshot
        config = load_config(tmp_path / "out" / "effective.cfg")
        times = runs[0]
        refs = slns.solver.oracle_solution(config, times, "spectral_ns")
        for t, ref in zip(times, refs):
            one = slns.solver.oracle_solution(config, t, "spectral_ns")
            assert (ref - one).l2_norm() <= 1e-10 * one.l2_norm()


class TestBadSnapshots:
    """A snapshot that cannot be compared is a config error naming the file."""

    @staticmethod
    def _header_n(raw: bytes, n: int) -> bytes:
        return raw[:10] + n.to_bytes(4, "little") + raw[14:]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw, other: raw[:40],  # truncated payload
            lambda raw, other: b"BOGUS1" + raw[6:],  # bad magic
            lambda raw, other: other,  # a valid snapshot on another grid
            # a header that announces far more data than the file holds
            lambda raw, other: TestBadSnapshots._header_n(raw, 2**20),
        ],
        ids=["truncated", "bad-magic", "grid-mismatch", "oversized-header"],
    )
    def test_bad_snapshot_exits_1_with_one_error_line(self, tmp_path, capsys, damage):
        p = write_cfg(tmp_path, TG_CFG)
        assert main(["run", str(p)]) == 0
        snap = sorted((tmp_path / "out").glob("snapshot_*.slnsf"))[-1]
        other_path = tmp_path / "other.slnsf"
        write_snapshot(other_path, taylor_green_2d(PeriodicGrid(2, 16, 2 * np.pi)), 0.02)
        snap.write_bytes(damage(snap.read_bytes(), other_path.read_bytes()))
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and snap.name in err[0]
