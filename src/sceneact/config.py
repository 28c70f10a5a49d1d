"""Run configuration: one JSON document covering every subsystem.

Loading is strict: unknown keys anywhere in the document are rejected
(silent typos are the dominant config failure mode). ``decode_section``
is the one decoder for config files, dataset manifests and checkpoint
metadata: each value must have its default's type (an int may stand for
a float and is stored as one, a bool is neither, a JSON list becomes a
tuple), floats must be finite, and each section checks its own bounds; a
refusal names its source and ``section.key``. A section overrides only the
keys it names; the rest keep ``RunConfig()``'s values, so a partial model
section edits the desk model. Every command logs the fully resolved
configuration it ran with, plus a stable hash of it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .longterm import WindowingConfig
from .matching import LossConfig
from .model import ModelConfig
from .synthdata import ScenarioConfig
from .training import OptimizerConfig

# Desk-scale model: small enough to train on a CPU in minutes. The
# ModelConfig class defaults stay at the published architecture table;
# state all of its sizes in the model section to reproduce it.
DESK_MODEL = ModelConfig(embed_dim=64, layers=2, heads=4, ffn_dim=128)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 7
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    model: ModelConfig = field(default_factory=lambda: DESK_MODEL)
    loss: LossConfig = field(default_factory=LossConfig)
    windowing: WindowingConfig = field(default_factory=WindowingConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if self.model.num_classes != self.scenario.num_classes:
            raise ConfigError(f"model.num_classes {self.model.num_classes} differs from "
                              f"scenario.num_classes {self.scenario.num_classes}")
        for name in ("train_clips", "eval_clips"):  # a run trains, then evaluates
            if getattr(self.scenario, name) < 1:
                raise ConfigError(f"scenario.{name} must be at least 1, "
                                  f"got {getattr(self.scenario, name)}")


_SECTIONS = {
    "scenario": ScenarioConfig,
    "model": ModelConfig,
    "loss": LossConfig,
    "windowing": WindowingConfig,
    "optimizer": OptimizerConfig,
}


def decode_section(default, data, source: str, prefix: str = ""):
    """``default`` with the values ``data`` gives for some of its fields.

    Each value must have its default's type: an int may stand for a float
    and becomes one, a bool counts as neither, a JSON list becomes a tuple
    and an object decodes into a nested section. Floats must be finite. The
    class then checks its own bounds; its errors start with the field they
    refuse, so every refusal reads ``source: section.key ...``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: {prefix.rstrip('.')}: expected an object")
    values = {}
    for key, value in data.items():
        want = getattr(default, key)
        if dataclasses.is_dataclass(want):
            value = decode_section(want, value, source, f"{prefix}{key}.")
        elif isinstance(value, list):
            value = tuple(value)
        if type(want) is float and type(value) is int:  # stored as a float: one value, one hash
            value = float(value) if abs(value) <= sys.float_info.max else math.inf
        if type(value) is not type(want):
            raise ConfigError(f"{source}: {prefix}{key} is {value!r}, "
                              f"expected {type(want).__name__}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{source}: {prefix}{key} must be finite, got {value}")
        values[key] = value
    try:
        return dataclasses.replace(default, **values)
    except ValueError as exc:
        raise ConfigError(f"{source}: {prefix}{exc}") from exc


def config_from_dict(data: dict, source: str = "config") -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: configuration root must be an object")
    unknown = sorted(set(data) - (set(_SECTIONS) | {"seed"}))
    found = [f"unknown top-level keys {unknown}"] if unknown else []
    for name, cls in _SECTIONS.items():
        section = data.get(name)
        if isinstance(section, dict):
            keys = sorted(set(section) - {f.name for f in dataclasses.fields(cls)})
            if keys:
                found.append(f"{name}: unknown keys {keys}")
    if found:
        raise ConfigError(f"{source}: " + "; ".join(found))
    if isinstance(data.get("scenario"), dict) and "seed" in data["scenario"]:
        raise ConfigError(f"{source}: scenario.seed is derived from the top-level seed; "
                          "set that instead")
    cfg = decode_section(RunConfig(), data, source)
    return dataclasses.replace(cfg, scenario=decode_section(cfg.scenario, {"seed": cfg.seed},
                                                            source))


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON: {exc}") from exc
    return config_from_dict(data, str(p))


def config_to_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    del out["scenario"]["seed"]  # derived from the top-level seed
    return out


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def dump_config(cfg: RunConfig, path):
    Path(path).write_text(json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n")
