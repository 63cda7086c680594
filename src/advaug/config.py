"""Run configuration: flat INI files with sections mirroring the modules.

Every key is typed; unknown sections or keys are rejected so config typos
cannot silently change an experiment.  The [model], [loss] and [training]
keys, casts and defaults come from the fields of the trainer's
`TrainerConfig`, whose construction checks their values; only the schedule
defaults are the file's own.  `_validate` holds the [data] rules that no
generator checks; the others are checked when the datasets are built.
`write_resolved` materializes all defaults, producing a file that
reproduces the run exactly.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .training import TrainerConfig

SCENARIOS = ("longtail", "noise", "subpop", "custom-csv")


class ConfigError(ValueError):
    pass


_REQUIRED = object()


def _cast_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _cast_hidden(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _cast_std(text: str) -> float | tuple[float, ...]:
    # Scalar shared by all classes, or a comma list with one std per class.
    parts = [part for part in text.split(",") if part.strip()]
    if len(parts) <= 1:
        return float(text)
    return tuple(float(part) for part in parts)


_RUN_SCHEMA = {
    "scenario": (str, _REQUIRED),
    "seed": (int, 0),
    "output_dir": (str, ""),
}

_BLOB_KEYS = {
    "num_classes": (int, 5),
    "dim": (int, 5),
    "radius": (float, 2.2),
    "blob_std": (_cast_std, 1.0),
    "nuisance_std": (float, 1.0),
    "meta_per_class": (int, 10),
    "test_per_class": (int, 250),
}

_DATA_SCHEMA = {
    "longtail": {
        **_BLOB_KEYS,
        "n_max": (int, 2000),
        "imbalance_ratio": (float, 100.0),
    },
    "noise": {
        **_BLOB_KEYS,
        "per_class": (int, 400),
        "noise_kind": (str, "flip"),
        "noise_rate": (float, 0.4),
    },
    "subpop": {
        "core_sep": (float, 2.0),
        "spurious_sep": (float, 4.0),
        "train_majority": (float, 0.45),
        "test_majority": (float, 0.25),
        "n_train": (int, 2000),
        "n_test": (int, 2000),
        "core_dim": (int, 2),
        "spurious_dim": (int, 2),
        "meta_size": (int, 40),
    },
    "custom-csv": {
        "train_csv": (str, _REQUIRED),
        "meta_csv": (str, _REQUIRED),
        "test_csv": (str, _REQUIRED),
    },
}

# The schedule has no trainer default; t1 = -1, and only -1, resolves to
# 30% of t2.
_SCHEDULE_DEFAULTS = {"t1": -1, "t2": 1500}
_SECTIONS = {"hidden": "model", "feat_dim": "model", "perturb_hidden": "model",
             "alpha": "loss", "beta": "loss"}  # the rest are [training]
_CASTS = {int: int, float: float, bool: _cast_bool,
          tuple[int, ...]: _cast_hidden}


def _trainer_schema() -> dict[str, dict]:
    """The [model], [loss] and [training] keys: the fields of TrainerConfig
    but the seed, each cast by its annotation, with its default."""
    hints = get_type_hints(TrainerConfig)
    schema = {"model": {}, "loss": {}, "training": {}}
    for f in fields(TrainerConfig):
        if f.name != "seed":  # a [run] key
            schema[_SECTIONS.get(f.name, "training")][f.name] = (
                _CASTS[hints[f.name]], _SCHEDULE_DEFAULTS.get(f.name, f.default))
    return schema


_TRAINER_SCHEMA = _trainer_schema()


@dataclass
class RunConfig:
    """Fully resolved run description (all defaults materialized)."""

    scenario: str
    seed: int
    output_dir: str
    data: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    loss: dict = field(default_factory=dict)
    training: dict = field(default_factory=dict)


def _resolve_section(name: str, schema: dict, given: dict[str, str]) -> dict:
    out = {}
    for key, (cast, default) in schema.items():
        if key in given:
            try:
                out[key] = cast(given[key])
            except ValueError as exc:
                raise ConfigError(f"[{name}] {key}: {exc}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"[{name}] missing required key '{key}'")
        else:
            out[key] = default
    unknown = set(given) - set(schema)
    if unknown:
        raise ConfigError(f"[{name}] unknown keys: {sorted(unknown)}")
    return out


def parse_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    if parser.defaults():
        raise ConfigError("top-level keys outside any section are not allowed")

    run_raw = sections.pop("run", None)
    if run_raw is None:
        raise ConfigError("missing [run] section")
    scenario = run_raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"[run] scenario must be one of {SCENARIOS}, got {scenario!r}")

    run = _resolve_section("run", _RUN_SCHEMA, run_raw)
    schema = {"data": _DATA_SCHEMA[scenario], **_TRAINER_SCHEMA}
    resolved = {name: _resolve_section(name, table, sections.pop(name, {}))
                for name, table in schema.items()}
    if sections:
        raise ConfigError(f"unknown sections: {sorted(sections)}")

    cfg = RunConfig(scenario=scenario, seed=run["seed"],
                    output_dir=run["output_dir"], **resolved)
    _validate(cfg)
    if cfg.training["t1"] == -1:
        cfg.training["t1"] = int(round(0.3 * cfg.training["t2"]))
    try:
        trainer_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not cfg.output_dir:
        cfg.output_dir = f"{cfg.scenario}_seed{cfg.seed}"
    return cfg


def _validate(cfg: RunConfig) -> None:
    """The [data] rules that no generator checks."""
    if cfg.scenario in ("longtail", "noise"):
        std = cfg.data["blob_std"]
        stds = std if isinstance(std, tuple) else (std,)
        if any(s <= 0 for s in stds):
            raise ConfigError("[data] blob_std must be positive")
    if cfg.scenario == "subpop":
        for key in ("train_majority", "test_majority"):
            if not 0.0 < cfg.data[key] < 0.5:
                raise ConfigError(f"[data] {key} must be in (0, 0.5)")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_resolved(cfg: RunConfig, path: str) -> None:
    """Write a fully explicit config that reproduces this run."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["run"] = {
        "scenario": cfg.scenario,
        "seed": str(cfg.seed),
        "output_dir": cfg.output_dir,
    }
    for name in ("data", "model", "loss", "training"):
        parser[name] = {k: _format_value(v)
                        for k, v in getattr(cfg, name).items()}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def trainer_config(cfg: RunConfig) -> TrainerConfig:
    """The trainer's hyperparameter set; raises ValueError on a bad value."""
    return TrainerConfig(**cfg.model, **cfg.loss, **cfg.training,
                         seed=cfg.seed)
