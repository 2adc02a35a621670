"""Experiment configuration: a flat key-value JSON document.

One experiment per invocation.  Every field is checked against its
declared type (an integer field rejects bools and floats; a float field
accepts integers but rejects bools and non-finite values), then every
numeric field against the module preconditions, before any computation
starts.  The fully resolved configuration (defaults filled in) is echoed
next to the outputs of every run.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

__all__ = ["ConfigError", "ExperimentConfig", "EXPERIMENTS"]

EXPERIMENTS = (
    "ito-verify",
    "riemann-converge",
    "metrics",
    "integrator-probe",
    "simulate",
)


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field."""


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


# field annotation -> (message, check); annotations are strings here
_TYPE_CHECKS = {
    "int": ("must be an integer", _is_int),
    "float": ("must be a finite number", _is_finite),
    "str": ("must be a string", lambda v: isinstance(v, str)),
    "list": ("must be a list", lambda v: isinstance(v, list)),
    "dict": ("must be a map", lambda v: isinstance(v, dict)),
}


@dataclass
class ExperimentConfig:
    experiment: str = ""
    # model
    z0: float = 0.0
    mu: float = 0.0
    sigma: float = 1.0
    jump_intensity: float = 0.0
    jump_mean: float = 0.0
    jump_sd: float = 1.0
    horizon: float = 1.0
    # basis
    truncation: int = 64
    quad_order: int = 160
    # partition
    partition_kind: str = "jump-refined"
    level: int = 8
    levels: list = field(default_factory=lambda: [4, 5, 6, 7, 8, 9, 10])
    hitting_levels: list = field(default_factory=lambda: [1.0, 2.0, 3.0])
    # monte carlo
    replicas: int = 100
    seed: int = 12345
    n_max: int = 1
    output_dir: str = "out"
    tolerances: dict = field(default_factory=dict)

    _NUMERIC_CHECKS = {
        "sigma": ("sigma must be nonnegative", lambda v: v >= 0),
        "jump_intensity": ("jump_intensity must be nonnegative", lambda v: v >= 0),
        "jump_sd": ("jump_sd must be nonnegative", lambda v: v >= 0),
        "horizon": ("horizon must be positive", lambda v: v > 0),
        "truncation": ("truncation must be >= 1", lambda v: v >= 1),
        "replicas": ("replicas must be >= 1", lambda v: v >= 1),
        "level": ("level must be >= 0", lambda v: v >= 0),
        "n_max": ("n_max must be >= 1", lambda v: v >= 1),
    }

    def validate(self) -> None:
        for f in fields(self):
            msg, ok = _TYPE_CHECKS[f.type]
            value = getattr(self, f.name)
            if not ok(value):
                raise ConfigError(f"field {f.name!r}: {msg}, got {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"field 'experiment': unknown name {self.experiment!r}; "
                f"expected one of {', '.join(EXPERIMENTS)}"
            )
        for name, (msg, ok) in self._NUMERIC_CHECKS.items():
            if not ok(getattr(self, name)):
                raise ConfigError(f"field {name!r}: {msg}")
        if self.quad_order < 2 * self.truncation:
            raise ConfigError(
                "field 'quad_order': must be at least 2 * truncation"
            )
        if self.partition_kind not in ("dyadic", "jump-refined", "hitting"):
            raise ConfigError(
                f"field 'partition_kind': unknown kind {self.partition_kind!r}"
            )
        if not self.levels or any(not _is_int(v) or v < 0 for v in self.levels):
            raise ConfigError("field 'levels': must be nonnegative integers")
        if not self.hitting_levels or any(
            not _is_finite(v) or v <= 0 for v in self.hitting_levels
        ):
            raise ConfigError(
                "field 'hitting_levels': must be positive finite numbers"
            )

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config is not valid JSON (line {exc.lineno}): {exc.msg}"
            ) from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object of key-value pairs")
        known = {f for f in cls.__dataclass_fields__ if not f.startswith("_")}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown field(s): {', '.join(sorted(unknown))}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def resolved(self) -> dict:
        return asdict(self)

    def tolerance(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))
