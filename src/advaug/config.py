"""Run configuration: flat INI files with sections mirroring the modules.

Every key is typed; unknown sections or keys are rejected so config typos
cannot silently change an experiment.  `config` knows only the types and
the defaults, and `_schema` reads both from a dataclass's fields.  The
[model], [loss] and [training] keys come from the trainer's
`TrainerConfig`, which `parse_config` constructs once and `RunConfig`
holds; its construction checks their values.  Only the schedule defaults
are the file's own.  The [data] keys come from the scenario's class in
`scenarios.SCENARIOS`, whose instance `RunConfig` holds; the data layer
checks their values when the datasets are built.  `write_resolved`
materializes all defaults, producing a file that reproduces the run exactly.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, asdict, dataclass, fields
from typing import get_type_hints

from .scenarios import SCENARIOS
from .training import TrainerConfig


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

# The schedule has no trainer default; t1 = -1, and only -1, resolves to
# 30% of t2.
_SCHEDULE_DEFAULTS = {"t1": -1, "t2": 1500}
_SECTIONS = {"hidden": "model", "feat_dim": "model", "perturb_hidden": "model",
             "alpha": "loss", "beta": "loss"}  # the rest are [training]
_CASTS = {int: int, float: float, str: str, bool: _cast_bool,
          tuple[int, ...]: _cast_hidden, float | tuple[float, ...]: _cast_std}


def _schema(cls) -> dict[str, tuple]:
    """The fields of dataclass `cls`: (cast by annotation, default or _REQUIRED)."""
    hints = get_type_hints(cls)
    return {f.name: (_CASTS[hints[f.name]],
                     _REQUIRED if f.default is MISSING else f.default)
            for f in fields(cls)}


def _trainer_schema() -> dict[str, dict]:
    """The [model], [loss] and [training] keys: TrainerConfig's but the seed."""
    schema = {"model": {}, "loss": {}, "training": {}}
    for key, (cast, default) in _schema(TrainerConfig).items():
        if key != "seed":  # a [run] key
            schema[_SECTIONS.get(key, "training")][key] = (
                cast, _SCHEDULE_DEFAULTS.get(key, default))
    return schema


_TRAINER_SCHEMA = _trainer_schema()
_SCENARIO_SCHEMA = {name: _schema(cls) for name, cls in SCENARIOS.items()}


@dataclass
class RunConfig:
    """Fully resolved run description (all defaults materialized)."""

    scenario: str
    output_dir: str
    data: object  # an instance of the class SCENARIOS[scenario]
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
        raise ConfigError(f"[run] scenario must be one of "
                          f"{tuple(SCENARIOS)}, got {scenario!r}")

    run = _resolve_section("run", _RUN_SCHEMA, run_raw)
    data = SCENARIOS[scenario](**_resolve_section(
        "data", _SCENARIO_SCHEMA[scenario], sections.pop("data", {})))
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
    return str(value)


def write_resolved(cfg: RunConfig, path: str) -> None:
    """Write a fully explicit config that reproduces this run."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["run"] = {
        "scenario": cfg.scenario,
        "seed": str(cfg.seed),
        "output_dir": cfg.output_dir,
    }
    parser["data"] = {k: _format_value(v) for k, v in asdict(cfg.data).items()}
    for name, table in _TRAINER_SCHEMA.items():
        parser[name] = {k: _format_value(getattr(cfg.trainer, k))
                        for k in table}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)

