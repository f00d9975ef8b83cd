"""Command line interface.

Subcommands: ``run`` (execute a config), ``compare`` (diff a finished run
directory against an oracle), ``convergence`` (refinement studies),
``info`` (environment and registry listing). Exit codes: 1 config/usage
problems (an unknown flag or a bad choice too), 2 CFL violation, 3 failed
map inversion, 4 non-finite velocity.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import COMPARE_GATES, NORMS, compare_gates, load_config, save_effective
from .errors import ConfigError, SLNSError
from .snapshots import read_snapshot
from .solver import (
    BACKENDS,
    EQUATIONS,
    FORCINGS,
    ORACLES,
    _sha256,
    convergence_study,
    oracle_solution,
    run as run_solver,
    write_csv,
)


class _Parser(argparse.ArgumentParser):
    """Usage errors are :exc:`ConfigError` (exit 1); argparse's 2 is the CFL code."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SLNSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_cmp.set_defaults(handler=cmd_compare)

    p_conv = sub.add_parser("convergence", help="refinement study along dt, n or realizations")
    p_conv.add_argument("config")
    p_conv.add_argument("--axis", choices=("dt", "n", "realizations"), required=True)
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--reference", choices=("self", "oracle"), default="self")
    p_conv.add_argument("--out", help="write the study table as CSV here")
    _common_overrides(p_conv)
    p_conv.set_defaults(handler=cmd_convergence)

    p_info = sub.add_parser("info", help="show version and registries; validate a config")
    p_info.add_argument("config", nargs="?", help="optionally validate this config")
    p_info.set_defaults(handler=cmd_info)
    return parser


def _common_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="override [run] seed")
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
    if args.output_dir is not None:
        overrides["output.dir"] = args.output_dir
    return overrides


# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    overrides = _collect_overrides(args)
    config = load_config(args.config, overrides)
    gates = compare_gates(args.config, overrides)
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
            manifest["artifacts"][name] = _sha256(p)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def cmd_compare(args) -> int:
    run_dir = Path(args.run_dir)
    cfg_path = run_dir / "effective.cfg"
    if not cfg_path.exists():
        raise ConfigError(f"{run_dir} has no effective.cfg (was it produced by `slns run`?)")
    config = load_config(cfg_path)
    gates = compare_gates(cfg_path)
    oracle = args.oracle or gates.get("oracle", "analytic")

    snaps = sorted(run_dir.glob("snapshot_*.slnsf"))
    if not snaps:
        raise ConfigError(f"no snapshots found in {run_dir}")

    grid = config.grid()
    timed = []
    for snap in snaps:
        try:
            field, t = read_snapshot(snap)
        except ValueError as exc:  # its message names the file
            raise ConfigError(f"bad snapshot: {exc}") from None
        if (field.grid, field.components) != (grid, grid.dim):
            raise ConfigError(f"{snap}: snapshot {field!r} does not match effective.cfg "
                              f"(dim={grid.dim}, n={grid.n}, L={grid.length}, {grid.dim} components)")
        if not (math.isfinite(t) and t >= 0):
            raise ConfigError(f"{snap}: time stamp {t} is not a finite time >= 0")
        timed.append((t, field))
    timed.sort(key=lambda tf: tf[0])
    refs = oracle_solution(config, [t for t, _ in timed], oracle)

    rows = []
    for (t, field), ref in zip(timed, refs):
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
    write_csv(out_csv, ("time",) + NORMS, rows)

    print(f"comparison against {oracle} ({len(rows)} snapshots) -> {out_csv}")
    for r in rows:
        cols = "  ".join(f"{n}={r[n]:.3e}" for n in NORMS)
        print(f"  t={r['time']:<8g} {cols}")

    failed = []
    for gate_key, col in COMPARE_GATES.items():
        if gate_key in gates:
            worst = max(r[col] for r in rows)
            if worst > gates[gate_key]:
                failed.append(f"{col} {worst:.3e} > {gates[gate_key]}")
    if failed:
        print("gate failures: " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_convergence(args) -> int:
    config = load_config(args.config, _collect_overrides(args))
    config = replace(config, output_dir=None)
    rows = convergence_study(config, args.axis, args.levels, reference=args.reference)
    header = f"{'level':>5} {'value':>12} {'error':>14} {'order':>8}"
    print(header)
    for i, r in enumerate(rows):
        print(f"{i:>5} {r['value']:>12.6g} {r['error']:>14.6e} {r['order']:>8.3f}")
    if args.out:
        columns = ("level", "value", "error", "order")
        write_csv(args.out, columns, ({"level": i, **r} for i, r in enumerate(rows)))
        print(f"table written to {args.out}")
    return 0


def cmd_info(args) -> int:
    from .reference import GENERATORS

    print(f"slns {__version__}")
    print(f"equations: {', '.join(EQUATIONS)}")
    print(f"backends: {', '.join(BACKENDS)}")
    print(f"initial fields: {', '.join(sorted(GENERATORS))}")
    print(f"forcings: {', '.join(FORCINGS)}")
    print(f"oracles: {', '.join(ORACLES)}")
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
