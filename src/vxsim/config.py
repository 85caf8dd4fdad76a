"""Flat key = value run configuration.

One scalar per line, dotted section prefixes (``grid.nx = 128``), ``#``
comments, no nesting.  Unknown keys, duplicates, type mismatches and
invariant violations are hard errors carrying the line number.  Parsing and
serialization round-trip exactly (floats are emitted with repr).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import get_type_hints

from .errors import ConfigError
from .outcoupling import OutcouplingParams

__all__ = [
    "BeamConfig",
    "GridConfig",
    "PhysicsConfig",
    "RunConfig",
    "SimConfig",
    "parse_config",
    "serialize_config",
    "default_config",
]

MODES = ("full", "effective", "compare", "outcouple")
TRAP_MODES = ("engineered", "none")


@dataclass(frozen=True)
class GridConfig:
    nx: int
    ny: int
    lx: float
    ly: float


@dataclass(frozen=True)
class BeamConfig:
    peak: float
    waist: float
    l: int
    kx: float
    ky: float


@dataclass(frozen=True)
class PhysicsConfig:
    u: float
    rho0: float
    tf_radius: float
    rim: float
    traps: str


@dataclass(frozen=True)
class RunConfig:
    mode: str
    dt: float
    n_steps: int
    ramp_time: float
    snapshot_every: int
    out_dir: str
    seed: int


@dataclass(frozen=True)
class SimConfig:
    grid: GridConfig
    p1: BeamConfig
    p2: BeamConfig
    c1: BeamConfig
    c2: BeamConfig
    eps12: float
    eps13: float
    eps14: float
    eps15: float
    physics: PhysicsConfig
    run: RunConfig
    outcouple: OutcouplingParams


_SECTION_TYPES = get_type_hints(SimConfig)

# key -> (type, default); order here is the canonical serialization order
_SCHEMA: dict[str, tuple[type, object]] = {
    "grid.nx": (int, 128),
    "grid.ny": (int, 128),
    "grid.lx": (float, 16.0),
    "grid.ly": (float, 16.0),
    "beam.p1.peak": (float, 1.0),
    "beam.p1.waist": (float, 2.0),
    "beam.p1.l": (int, 1),
    "beam.p1.kx": (float, 0.0),
    "beam.p1.ky": (float, 0.0),
    "beam.p2.peak": (float, 1.0),
    "beam.p2.waist": (float, 2.0),
    "beam.p2.l": (int, -1),
    "beam.p2.kx": (float, 0.0),
    "beam.p2.ky": (float, 0.0),
    "beam.c1.peak": (float, 10.0),
    "beam.c1.waist": (float, 6.0),
    "beam.c1.l": (int, 0),
    "beam.c1.kx": (float, 0.0),
    "beam.c1.ky": (float, 0.0),
    "beam.c2.peak": (float, 10.0),
    "beam.c2.waist": (float, 6.0),
    "beam.c2.l": (int, 0),
    "beam.c2.kx": (float, 0.0),
    "beam.c2.ky": (float, 0.0),
    "beams.eps12": (float, 0.0),
    "beams.eps13": (float, 0.0),
    "beams.eps14": (float, 0.0),
    "beams.eps15": (float, 0.0),
    "physics.u": (float, 0.4),
    "physics.rho0": (float, 1.0),
    "physics.tf_radius": (float, 5.0),
    "physics.rim": (float, 0.05),
    "physics.traps": (str, "engineered"),
    "run.mode": (str, "compare"),
    "run.dt": (float, 0.004),
    "run.n_steps": (int, 2000),
    "run.ramp_time": (float, 6.0),
    "run.snapshot_every": (int, 0),
    "run.out_dir": (str, "out"),
    "run.seed": (int, 0),
    "outcouple.g1": (float, 1.0),
    "outcouple.g2": (float, 1.0),
    "outcouple.omega0_1": (float, 10.0),
    "outcouple.omega0_2": (float, 10.0),
    "outcouple.n": (float, 1.0),
    "outcouple.v0": (float, 0.1),
    "outcouple.c": (float, 1.0),
    "outcouple.length": (float, 1.0),
}


def _convert(key: str, raw: str, line: int):
    typ = _SCHEMA[key][0]
    if typ is str:
        return raw
    try:
        val = typ(raw)
    except ValueError:
        raise ConfigError(f"{key} expects {typ.__name__}, got {raw!r}", line) from None
    if typ is float and not math.isfinite(val):
        raise ConfigError(f"{key} = {raw}: must be finite", line)
    return val


def _power_of_two(n: int) -> bool:
    return n >= 4 and (n & (n - 1)) == 0


def _validate(v: dict, where: dict[str, int | None]):
    def fail(key, message):
        raise ConfigError(f"{key} = {v[key]!r}: {message}", where.get(key))

    for key in ("grid.nx", "grid.ny"):
        if not _power_of_two(v[key]):
            fail(key, "must be a power of two >= 4")
    for key in ("grid.lx", "grid.ly", "run.dt", "physics.tf_radius", "physics.rim",
                "outcouple.length", "outcouple.c", "outcouple.v0",
                "outcouple.omega0_1", "outcouple.omega0_2"):
        if v[key] <= 0:
            fail(key, "must be positive")
    for beam in ("p1", "p2", "c1", "c2"):
        if v[f"beam.{beam}.waist"] <= 0:
            fail(f"beam.{beam}.waist", "must be positive")
        if v[f"beam.{beam}.peak"] < 0:
            fail(f"beam.{beam}.peak", "must be non-negative")
    for beam in ("c1", "c2"):
        if v[f"beam.{beam}.l"] != 0:
            fail(f"beam.{beam}.l", "controls carry no orbital angular momentum")
    if v["physics.rho0"] < 0:
        fail("physics.rho0", "must be non-negative")
    if v["physics.u"] < 0:
        fail("physics.u", "must be non-negative")
    if v["physics.traps"] not in TRAP_MODES:
        fail("physics.traps", f"unknown trap mode; choose from {TRAP_MODES}")
    if v["run.mode"] not in MODES:
        fail("run.mode", f"unknown mode; choose from {MODES}")
    if v["run.n_steps"] < 1:
        fail("run.n_steps", "must be at least 1")
    if v["run.ramp_time"] < 0:
        fail("run.ramp_time", "must be non-negative")
    if v["run.snapshot_every"] < 0:
        fail("run.snapshot_every", "must be non-negative")
    for key in ("outcouple.g1", "outcouple.g2", "outcouple.n"):
        if v[key] < 0:
            fail(key, "must be non-negative")
    if not v["outcouple.v0"] < v["outcouple.c"]:
        fail("outcouple.v0", "atomic beam must be slower than light (v0 < c)")


def _path(key: str) -> list[str]:
    """Attribute path of ``key`` on :class:`SimConfig`: the key without a
    leading ``beam``/``beams`` (``beam.p1.peak`` -> ``p1.peak``)."""
    parts = key.split(".")
    return parts[1:] if parts[0] in ("beam", "beams") else parts


def _build(v: dict) -> SimConfig:
    top: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {}
    for key in _SCHEMA:
        *head, attr = _path(key)
        target = sections.setdefault(head[0], {}) if head else top
        target[attr] = v[key]
    for name, fields in sections.items():
        top[name] = _SECTION_TYPES[name](**fields)
    return SimConfig(**top)


def parse_config(text: str) -> SimConfig:
    """Parse and fully validate a configuration; missing keys take defaults."""
    values: dict[str, object] = {}
    where: dict[str, int | None] = {}
    for lineno, rawline in enumerate(text.splitlines(), 1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not raw:
            raise ConfigError(f"empty value for {key}", lineno)
        values[key] = _convert(key, raw, lineno)
        where[key] = lineno
    for key, (_, default) in _SCHEMA.items():
        values.setdefault(key, default)
        where.setdefault(key, None)
    _validate(values, where)
    return _build(values)


def _lookup(cfg: SimConfig, key: str):
    return reduce(getattr, _path(key), cfg)


def serialize_config(cfg: SimConfig) -> str:
    """Canonical text form; ``parse_config(serialize_config(c)) == c``."""
    lines = []
    for key, (typ, _) in _SCHEMA.items():
        val = _lookup(cfg, key)
        lines.append(f"{key} = {val!r}" if typ is float else f"{key} = {val}")
    return "\n".join(lines) + "\n"


def default_config() -> SimConfig:
    return parse_config("")
