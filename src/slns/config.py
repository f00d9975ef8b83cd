"""Flat key-value run configuration files.

INI syntax (``configparser``) with the sections below; unknown keys are
rejected so typos fail loudly. CLI flags override file values, and every
run emits the fully materialized ``effective.cfg`` next to its outputs so
a run directory is always reproducible from itself.

A point or vector is comma-separated numbers, and ``;`` separates probe
points, so only ``#`` starts a comment after a value.

```
[run]                      # solver parameters (see SolverConfig)
equation = burgers
dim = 1
n = 256
nu = 0.1
dt = 0.001
t_end = 0.5
realizations = 4096

[initial]                  # velocity generator + parameters
name = sine_mode
mode = 1
amplitude = 1.0

[forcing]                  # optional body force
name = constant
vector = 0.1               # one component per dimension

[circulation]              # optional per-step circulation probe: a circle
center = 3.14159, 3.14159  # default: the box centre
radius = 1.0

[output]
dir = out/burgers1d
snapshot_interval = 0
probes = 1.57 ; 3.14 ; 4.71

[compare]                  # default oracle and gates of `slns compare`, checked on load
oracle = cole_hopf
rel_l2_max = 0.02
linf_max = 0.05
```
"""

from __future__ import annotations

import configparser
import dataclasses
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .solver import ORACLES, SolverConfig

# every scalar field is a [run] key, typed by its default, except those of other sections
_RUN_KEYS = {
    f.name: type(f.default)
    for f in dataclasses.fields(SolverConfig)
    if isinstance(f.default, (int, float, str)) and f.name not in ("initial", "snapshot_interval")
}
NORMS = ("l2", "rel_l2", "linf")  # the columns of compare_<oracle>.csv after time
COMPARE_GATES = {f"{n}_max": n for n in NORMS}  # [compare] gate -> the column it bounds


def _parse_scalar(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_typed(raw: str, want: type, what: str):
    """``raw`` as a value of type ``want`` (str passes through)."""
    val = _parse_scalar(raw)
    if want is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{what} must be an integer")
    elif want is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{what} must be a number")
        val = float(val)
    return val


def _parse_vector(text: str, dim: int, what: str) -> list:
    """``dim`` comma-separated numbers, as :func:`_fmt_value` writes them."""
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) != dim:
        raise ConfigError(f"{what} {text.strip()!r} must be {dim} comma-separated numbers")
    return vals


def _parse_points(text: str, dim: int) -> list:
    return [_parse_vector(c, dim, "probe point") for c in text.split(";") if c.strip()]


def _read(path: str | Path, overrides: dict | None) -> configparser.ConfigParser:
    """The parsed file with ``overrides`` (``"section.key"`` -> string) applied."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    if overrides:
        for dotted, value in overrides.items():
            if "." not in dotted:
                raise ConfigError(f"override {dotted!r} must look like section.key")
            section, key = dotted.split(".", 1)
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, str(value))
    return parser


def load_config(path: str | Path, overrides: dict | None = None) -> SolverConfig:
    """Read a config file and build a validated :class:`SolverConfig`.

    ``overrides`` maps ``"section.key"`` to replacement string values and
    wins over file contents (the CLI feeds its flags through here).
    """
    parser = _read(path, overrides)
    known_sections = {"run", "initial", "forcing", "circulation", "output", "compare"}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    kwargs: dict = {}
    if parser.has_section("run"):
        for key, raw in parser.items("run"):
            if key not in _RUN_KEYS:
                raise ConfigError(f"unknown [run] key {key!r}")
            kwargs[key] = _parse_typed(raw, _RUN_KEYS[key], f"[run] {key}")

    dim = kwargs.get("dim", SolverConfig.dim)
    if parser.has_section("initial"):
        items = dict(parser.items("initial"))
        kwargs["initial"] = items.pop("name", SolverConfig.initial)
        kwargs["initial_params"] = {k: _parse_scalar(v) for k, v in items.items()}

    if parser.has_section("forcing"):
        items = dict(parser.items("forcing"))
        name = items.pop("name", None)
        if name is not None:
            kwargs["forcing"] = name
        params = {k: _parse_scalar(v) for k, v in items.items()}
        if "vector" in items:
            params["vector"] = _parse_vector(items["vector"], dim, "[forcing] vector")
        kwargs["forcing_params"] = params

    if parser.has_section("circulation"):
        spec = dict(parser.items("circulation"))  # named_curve rejects other keys
        if "center" in spec:
            spec["center"] = _parse_vector(spec["center"], 2, "[circulation] center")
        if "radius" in spec:
            spec["radius"] = _parse_typed(spec["radius"], float, "[circulation] radius")
        kwargs["circulation_curve"] = spec

    if parser.has_section("output"):
        items = dict(parser.items("output"))
        if "dir" in items:
            kwargs["output_dir"] = items.pop("dir")
        if "snapshot_interval" in items:
            kwargs["snapshot_interval"] = _parse_typed(
                items.pop("snapshot_interval"), int, "[output] snapshot_interval"
            )
        if "probes" in items:
            pts = _parse_points(items.pop("probes"), dim)
            kwargs["probes"] = np.asarray(pts).T.tolist()
        if items:
            raise ConfigError(f"unknown [output] keys: {sorted(items)}")

    _compare_section(parser)  # read by compare_gates; checked here so every subcommand rejects it
    try:
        return SolverConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def compare_gates(path: str | Path, overrides: dict | None = None) -> dict:
    """Default oracle and tolerances for ``slns compare``; empty when absent.

    ``overrides`` apply as in :func:`load_config`; the keys are ``oracle``
    and the numeric gates ``l2_max``, ``rel_l2_max`` and ``linf_max``.
    """
    return _compare_section(_read(path, overrides))


def _compare_section(parser: configparser.ConfigParser) -> dict:
    """The ``[compare]`` section, checked: ``oracle`` is one of
    :data:`~slns.solver.ORACLES`, every gate a finite number, no other key."""
    gates = dict(parser.items("compare")) if parser.has_section("compare") else {}
    for key, raw in gates.items():
        if key in COMPARE_GATES:
            gates[key] = _parse_typed(raw, float, f"[compare] {key}")
            if not np.isfinite(gates[key]):  # `worst > nan` never fails
                raise ConfigError(f"[compare] {key} must be finite, got {raw!r}")
        elif key != "oracle":
            raise ConfigError(f"unknown [compare] key {key!r}")
        elif raw not in ORACLES:
            raise ConfigError(f"[compare] oracle must be one of {ORACLES}, got {raw!r}")
    return gates


def save_effective(config: SolverConfig, path: str | Path, gates: dict | None = None) -> None:
    """Write the fully materialized configuration (all defaults explicit)."""
    parser = configparser.ConfigParser()
    parser.add_section("run")
    for key in _RUN_KEYS:
        parser.set("run", key, _fmt_value(getattr(config, key)))

    parser.add_section("initial")
    parser.set("initial", "name", config.initial)
    for k, v in config.initial_params.items():
        parser.set("initial", k, _fmt_value(v))

    if config.forcing is not None:
        parser.add_section("forcing")
        parser.set("forcing", "name", config.forcing)
        for k, v in config.forcing_params.items():
            parser.set("forcing", k, _fmt_value(v))

    if config.circulation_curve is not None:
        parser.add_section("circulation")
        for k, v in config.circulation_curve.items():
            parser.set("circulation", k, _fmt_value(v))

    parser.add_section("output")
    if config.output_dir is not None:
        parser.set("output", "dir", str(config.output_dir))
    parser.set("output", "snapshot_interval", str(config.snapshot_interval))
    if config.probes is not None:
        pts = np.asarray(config.probes, dtype=np.float64).reshape(config.dim, -1)
        parser.set(
            "output",
            "probes",
            " ; ".join(",".join(_fmt_value(x) for x in pts[:, p]) for p in range(pts.shape[1])),
        )

    if gates:
        parser.add_section("compare")
        for k, v in gates.items():
            parser.set("compare", k, _fmt_value(v))

    with open(path, "w") as fh:
        parser.write(fh)


def _fmt_value(v) -> str:
    if isinstance(v, (list, tuple, np.ndarray)):
        return ", ".join(_fmt_value(float(x)) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)
