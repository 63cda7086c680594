"""Run configuration: flat INI files with sections mirroring the modules.

Every key is typed; unknown sections or keys are rejected so config typos
cannot silently change an experiment.  `config` knows only the types and
the defaults.  The [model], [loss] and [training] keys, casts and defaults
come from the fields of the trainer's `TrainerConfig`, which `parse_config`
constructs once and `RunConfig` holds; its construction checks their values.
Only the schedule defaults are the file's own.  The [data] values are
checked by the data layer, when the datasets are built.  `write_resolved`
materializes all defaults, producing a file that reproduces the run exactly.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
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
    output_dir: str
    data: dict
    trainer: TrainerConfig

    @property
    def seed(self) -> int:
        """The one seed of the run: the trainer's, and the data draws'."""
        return self.trainer.seed


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
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
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
    data = _resolve_section("data", _DATA_SCHEMA[scenario],
                            sections.pop("data", {}))
    hyper = {}
    for name, table in _TRAINER_SCHEMA.items():
        hyper.update(_resolve_section(name, table, sections.pop(name, {})))
    if sections:
        raise ConfigError(f"unknown sections: {sorted(sections)}")

    if hyper["t1"] == -1:
        hyper["t1"] = int(round(0.3 * hyper["t2"]))
    try:
        trainer = TrainerConfig(**hyper, seed=run["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    output_dir = run["output_dir"] or f"{scenario}_seed{trainer.seed}"
    return RunConfig(scenario, output_dir, data, trainer)


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
    parser["data"] = {k: _format_value(v) for k, v in cfg.data.items()}
    for name, table in _TRAINER_SCHEMA.items():
        parser[name] = {k: _format_value(getattr(cfg.trainer, k))
                        for k in table}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)

