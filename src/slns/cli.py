"""Command line interface.

Subcommands: ``run`` (execute a config), ``compare`` (diff a finished run
directory against an oracle), ``convergence`` (refinement studies),
``info`` (environment and registry listing). ``--workers`` falls back to
the ``SLNS_WORKERS`` environment variable. Exit codes: 1 config/usage
problems, 2 CFL violation, 3 failed map inversion, 4 non-finite velocity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import compare_gates, load_config, save_effective
from .errors import ConfigError, SLNSError
from .grid import Field
from .snapshots import read_snapshot
from .solver import (
    BACKENDS,
    EQUATIONS,
    convergence_study,
    oracle_solution,
    run as run_solver,
)


ORACLES = ("cole_hopf", "spectral_ns", "analytic")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SLNSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slns",
        description="Stochastic Lagrangian solver for periodic incompressible flow",
    )
    parser.add_argument("--version", action="version", version=f"slns {__version__}")
    sub = parser.add_subparsers(required=True)

    p_run = sub.add_parser("run", help="execute a run described by a config file")
    p_run.add_argument("config", help="path to the .cfg file")
    _common_overrides(p_run)
    p_run.set_defaults(handler=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare a run directory against an oracle")
    p_cmp.add_argument("run_dir", help="directory produced by `slns run`")
    p_cmp.add_argument(
        "--oracle",
        choices=ORACLES,
        help="overrides the run's [compare] oracle (default analytic)",
    )
    p_cmp.add_argument("--norms", default="l2,linf", help="comma list of norms to report")
    p_cmp.set_defaults(handler=cmd_compare)

    p_conv = sub.add_parser("convergence", help="refinement study along dt, n or realizations")
    p_conv.add_argument("config")
    p_conv.add_argument("--axis", choices=("dt", "n", "realizations"), required=True)
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--reference", choices=("self", "oracle"), default="self")
    p_conv.add_argument("--out", help="write the study table as CSV here")
    _common_overrides(p_conv)
    p_conv.set_defaults(handler=cmd_convergence)

    p_info = sub.add_parser("info", help="show version, registries and config defaults")
    p_info.add_argument("config", nargs="?", help="optionally validate this config")
    p_info.set_defaults(handler=cmd_info)
    return parser


def _common_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="override [run] seed")
    p.add_argument("--workers", type=int, help="realization-loop parallelism")
    p.add_argument("--output-dir", help="override [output] dir")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override any config value",
    )


def _collect_overrides(args) -> dict:
    overrides: dict[str, str] = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set needs SECTION.KEY=VALUE, got {item!r}")
        dotted, value = item.split("=", 1)
        overrides[dotted.strip()] = value.strip()
    if args.seed is not None:
        overrides["run.seed"] = str(args.seed)
    workers = args.workers
    if workers is None and os.environ.get("SLNS_WORKERS"):
        workers = int(os.environ["SLNS_WORKERS"])
    if workers is not None:
        overrides["run.workers"] = str(workers)
    if args.output_dir is not None:
        overrides["output.dir"] = args.output_dir
    return overrides


# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    config = load_config(args.config, _collect_overrides(args))
    gates = compare_gates(args.config)
    t0 = time.perf_counter()
    result = run_solver(config)
    wall = time.perf_counter() - t0
    if config.output_dir:
        out = Path(config.output_dir)
        save_effective(config, out / "effective.cfg", gates=gates or None)
        _amend_manifest(out, ["effective.cfg"])
    if len(result.diagnostics):
        energy = result.diagnostics.column("energy")[-1]
        maxdiv = result.diagnostics.column("max_divergence").max()
    else:
        energy = 0.5 * result.velocity.l2_norm() ** 2
        maxdiv = 0.0
    print(
        f"run finished: t={result.final_time:g} energy={energy:.6g} "
        f"max_div={maxdiv:.3g} wall={wall:.2f}s"
    )
    return 0


def _amend_manifest(out_dir: Path, names: list[str]) -> None:
    manifest_path = out_dir / "manifest.json"
    manifest = {"artifacts": {}}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
    for name in names:
        p = out_dir / name
        if p.exists():
            manifest["artifacts"][name] = hashlib.sha256(p.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def cmd_compare(args) -> int:
    run_dir = Path(args.run_dir)
    cfg_path = run_dir / "effective.cfg"
    if not cfg_path.exists():
        raise ConfigError(f"{run_dir} has no effective.cfg (was it produced by `slns run`?)")
    config = load_config(cfg_path)
    gates = compare_gates(cfg_path)
    norms = [n.strip() for n in args.norms.split(",") if n.strip()]
    oracle = args.oracle or gates.get("oracle", "analytic")
    if oracle not in ORACLES:
        raise ConfigError(f"[compare] oracle must be one of {ORACLES}, got {oracle!r}")

    snaps = sorted(run_dir.glob("snapshot_*.slnsf"))
    if not snaps:
        raise ConfigError(f"no snapshots found in {run_dir}")

    rows = []
    for snap in snaps:
        field, t = read_snapshot(snap)
        ref = _oracle_field(config, t, oracle)
        diff = field - ref
        l2 = diff.l2_norm()
        rows.append(
            {
                "time": t,
                "l2": l2,
                "rel_l2": l2 / max(ref.l2_norm(), 1e-300),
                "linf": diff.max_norm(),
            }
        )

    out_csv = run_dir / f"compare_{oracle}.csv"
    with open(out_csv, "w") as fh:
        fh.write("time,l2,rel_l2,linf\n")
        for r in rows:
            fh.write(f"{r['time']:.17g},{r['l2']:.17g},{r['rel_l2']:.17g},{r['linf']:.17g}\n")

    print(f"comparison against {oracle} ({len(rows)} snapshots) -> {out_csv}")
    for r in rows:
        cols = "  ".join(f"{n}={r[n]:.3e}" for n in norms if n in r)
        print(f"  t={r['time']:<8g} {cols}")

    failed = []
    gate_map = {"l2_max": "l2", "rel_l2_max": "rel_l2", "linf_max": "linf"}
    for gate_key, col in gate_map.items():
        if gate_key in gates:
            worst = max(r[col] for r in rows)
            if worst > float(gates[gate_key]):
                failed.append(f"{col} {worst:.3e} > {gates[gate_key]}")
    if failed:
        print("gate failures: " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


def _oracle_field(config, t: float, oracle: str) -> Field:
    """``oracle_solution`` after the named oracle's eligibility check."""
    if oracle == "cole_hopf":
        if config.equation != "burgers" or config.dim != 1 or config.initial != "sine_mode":
            raise ConfigError("cole_hopf comparison needs a 1D burgers run with a sine initial")
        if config.nu <= 0:
            raise ConfigError("cole_hopf comparison needs nu > 0")
    if oracle == "spectral_ns" and config.equation not in ("navier_stokes", "euler"):
        raise ConfigError("spectral_ns comparison needs an incompressible run")
    ref = oracle_solution(config, t, spectral=oracle == "spectral_ns")
    if ref is None:
        raise ConfigError("no analytic oracle for this configuration")
    return ref


def cmd_convergence(args) -> int:
    config = load_config(args.config, _collect_overrides(args))
    config = replace(config, output_dir=None)
    rows = convergence_study(config, args.axis, args.levels, reference=args.reference)
    header = f"{'level':>5} {'value':>12} {'error':>14} {'order':>8}"
    print(header)
    for i, r in enumerate(rows):
        print(f"{i:>5} {r['value']:>12.6g} {r['error']:>14.6e} {r['order']:>8.3f}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("level,value,error,order\n")
            for i, r in enumerate(rows):
                fh.write(f"{i},{r['value']:.17g},{r['error']:.17g},{r['order']:.17g}\n")
        print(f"table written to {args.out}")
    return 0


def cmd_info(args) -> int:
    from .reference import _GENERATORS

    print(f"slns {__version__}")
    print(f"equations: {', '.join(EQUATIONS)}")
    print(f"backends: {', '.join(BACKENDS)}")
    print(f"initial fields: {', '.join(sorted(_GENERATORS))}")
    print("forcings: steady_taylor_green, constant")
    print("snapshot format: SLNSF1 (little-endian, float64)")
    if args.config:
        config = load_config(args.config)
        print(f"config {args.config}: valid")
        print(f"  equation={config.equation} dim={config.dim} n={config.n} nu={config.nu}")
        print(
            f"  dt={config.dt} t_end={config.t_end} realizations={config.realizations} "
            f"seed={config.seed}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
