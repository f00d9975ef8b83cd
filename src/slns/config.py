"""Flat key-value run configuration files.

INI syntax (``configparser``) with the sections below; unknown keys are
rejected so typos fail loudly. CLI flags override file values, and every
run emits the fully materialized ``effective.cfg`` next to its outputs so
a run directory is always reproducible from itself.

This module only turns text into plain values: a number (or ``true`` /
``false``), text or a comma-separated list; only ``#`` starts a comment
after a value. ``[output] dir`` stays text.
:class:`~slns.solver.SolverConfig` checks every value, its type included,
as it does for the Python API. A vector has one number per dimension; in
1D it may be that one number.

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

[circulation]              # optional per-step circulation probe, 2D only: a circle
center = 3.14159, 3.14159  # default: the box centre
radius = 1.0

[output]
dir = out/burgers1d
snapshot_interval = 0

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

# every scalar field is a [run] key, in field order, except those of other sections
_RUN_KEYS = tuple(
    f.name
    for f in dataclasses.fields(SolverConfig)
    if isinstance(f.default, (int, float, str)) and f.name not in ("initial", "snapshot_interval")
)
NORMS = ("l2", "rel_l2", "linf")  # the columns of compare_<oracle>.csv after time
COMPARE_GATES = {f"{n}_max": n for n in NORMS}  # [compare] gate -> the column it bounds
_OUTPUT_KEYS = {"dir": "output_dir", "snapshot_interval": "snapshot_interval"}
_BOOLS = {"true": True, "yes": True, "on": True, "false": False, "no": False, "off": False}


def _parse_value(text: str):
    """``text`` as a plain value: a list when it holds ``,``, else a bool,
    int, float or the stripped text. List items are numbers or text."""
    if "," in text:
        return [_number(v) for v in text.split(",")]
    return _BOOLS.get(text.strip().lower(), _number(text))


def _number(text: str):
    text = text.strip()
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


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

    def section(name: str) -> dict:
        items = parser.items(name) if parser.has_section(name) else ()
        return {k: _parse_value(v) for k, v in items}

    kwargs = section("run")
    for key in kwargs:
        if key not in _RUN_KEYS:
            raise ConfigError(f"unknown [run] key {key!r}")
    if parser.has_section("initial"):
        kwargs["initial_params"] = section("initial")
        kwargs["initial"] = kwargs["initial_params"].pop("name", SolverConfig.initial)
    if parser.has_section("forcing"):
        kwargs["forcing_params"] = section("forcing")
        if "name" in kwargs["forcing_params"]:
            kwargs["forcing"] = kwargs["forcing_params"].pop("name")
    if parser.has_section("circulation"):
        kwargs["circulation_curve"] = section("circulation")  # named_curve rejects other keys
    for key, raw in parser.items("output") if parser.has_section("output") else ():
        if key not in _OUTPUT_KEYS:
            raise ConfigError(f"unknown [output] key {key!r}")
        # dir stays text, so a comma in a path is not split
        kwargs[_OUTPUT_KEYS[key]] = raw if key == "dir" else _parse_value(raw)

    _compare_section(parser)  # read by compare_gates; checked here so every subcommand rejects it
    return SolverConfig(**kwargs)


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
            gate = _parse_value(raw)
            # `worst > nan` never fails
            if type(gate) not in (int, float) or not np.isfinite(gate):
                raise ConfigError(f"[compare] {key} must be finite (a number), got {raw!r}")
            gates[key] = float(gate)
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
