"""Run configuration: one JSON document covering every subsystem.

Loading is strict: unknown keys anywhere in the document are rejected
(silent typos are the dominant config failure mode), so are NaN and
infinite numbers, and each section checks its own bounds. A section
overrides only the keys it names; the rest keep ``RunConfig()``'s values,
so a partial model section edits the desk model. Every command
logs the fully resolved configuration it ran with, plus a stable hash of
it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
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


def _coerce(value, path: str):
    # json gives lists; tuple-typed fields take tuples
    if isinstance(value, list):
        return tuple(_coerce(v, f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path} must be finite, got {value}")
    if isinstance(value, (int, float, str)):
        return value
    raise ConfigError(f"{path}: unsupported value {value!r}")


def _build_section(default, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    kwargs = {k: _coerce(v, f"{path}.{k}") for k, v in data.items()}
    try:
        return dataclasses.replace(default, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    unknown = sorted(set(data) - (set(_SECTIONS) | {"seed"}))
    found = [f"unknown top-level keys {unknown}"] if unknown else []
    for name, cls in _SECTIONS.items():
        section = data.get(name)
        if isinstance(section, dict):
            keys = sorted(set(section) - {f.name for f in dataclasses.fields(cls)})
            if keys:
                found.append(f"{name}: unknown keys {keys}")
    if found:
        raise ConfigError("; ".join(found))
    seed = data.get("seed", RunConfig().seed)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if isinstance(data.get("scenario"), dict) and "seed" in data["scenario"]:
        raise ConfigError("scenario.seed is derived from the top-level seed; set that instead")
    kwargs = {"seed": seed}
    defaults = RunConfig()
    for name in _SECTIONS:
        kwargs[name] = getattr(defaults, name)
        if name in data:
            kwargs[name] = _build_section(kwargs[name], data[name], name)
    kwargs["scenario"] = dataclasses.replace(kwargs["scenario"], seed=seed)
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON: {exc}") from exc
    return config_from_dict(data)


def config_to_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    del out["scenario"]["seed"]  # derived from the top-level seed
    return out


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def dump_config(cfg: RunConfig, path):
    Path(path).write_text(json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n")
