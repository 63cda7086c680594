"""Config parsing, validation, and resolved-file round trips."""

import configparser
import importlib.util
import re
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from advaug.cli import main
from advaug.config import ConfigError, parse_config, write_resolved
from advaug.data import DataError
from advaug.scenarios import SCENARIOS, build_scenario
from advaug.training import TrainerConfig

ROOT = Path(__file__).resolve().parent.parent


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def assert_exits_2_writing_nothing(tmp_path, path):
    for verb in ("run", "sweep", "gen-data"):
        out = tmp_path / verb
        assert main([verb, "--config", path, "--output", str(out)]) == 2
        assert not out.exists()


def assert_refused_at_parse(tmp_path, text, match):
    """The file is refused with ConfigError, and `run`, `sweep` and
    `gen-data` exit 2 before writing anything."""
    path = write_ini(tmp_path, text)
    with pytest.raises(ConfigError, match=match):
        parse_config(path)
    assert_exits_2_writing_nothing(tmp_path, path)


def assert_refused_at_build(tmp_path, text, match):
    """The file parses, its datasets are refused with DataError, and `run`,
    `sweep` and `gen-data` exit 2 before writing anything."""
    path = write_ini(tmp_path, text)
    with pytest.raises(DataError, match=match):
        build_scenario(parse_config(path))
    assert_exits_2_writing_nothing(tmp_path, path)


def resolved_sections(tmp_path, cfg) -> configparser.ConfigParser:
    """The sections `write_resolved` writes for cfg."""
    path = tmp_path / "resolved.ini"
    write_resolved(cfg, str(path))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path)
    return parser


MINIMAL = "[run]\nscenario = longtail\n"


class TestParsing:
    def test_defaults_fill_in(self, tmp_path):
        cfg = parse_config(write_ini(tmp_path, MINIMAL))
        assert cfg.scenario == "longtail"
        assert cfg.seed == 0
        assert cfg.data.num_classes == 5
        assert cfg.data.imbalance_ratio == 100.0
        assert cfg.trainer.hidden == (32,)
        assert cfg.trainer.alpha == 0.25
        assert cfg.trainer.t2 == 1500

    def test_t1_auto_resolves_to_30_percent(self, tmp_path):
        cfg = parse_config(write_ini(tmp_path, MINIMAL))
        assert cfg.trainer.t1 == 450
        explicit = MINIMAL + "[training]\nt1 = 200\nt2 = 1000\n"
        cfg2 = parse_config(write_ini(tmp_path, explicit, "b.ini"))
        assert cfg2.trainer.t1 == 200

    def test_output_dir_default_names_scenario_and_seed(self, tmp_path):
        cfg = parse_config(write_ini(tmp_path, "[run]\nscenario = noise\nseed = 7\n"))
        assert cfg.output_dir == "noise_seed7"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "nope.ini"))

    def test_missing_run_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"missing \[run\]"):
            parse_config(write_ini(tmp_path, "[data]\nnum_classes = 5\n"))

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario must be one of"):
            parse_config(write_ini(tmp_path, "[run]\nscenario = cifar\n"))

    def test_unknown_key_rejected(self, tmp_path):
        # detach_rho and oracle_suite were keys once: they must not be
        # accepted and ignored
        for n, (section, key) in enumerate([("training", "learning_rate"),
                                            ("run", "oracle_suite"),
                                            ("training", "detach_rho")]):
            text = (MINIMAL + f"{key} = false\n" if section == "run"
                    else MINIMAL + f"[{section}]\n{key} = false\n")
            with pytest.raises(ConfigError,
                               match=rf"\[{section}\] unknown keys.*{key}"):
                parse_config(write_ini(tmp_path, text, f"{n}.ini"))

    def test_unknown_section_rejected(self, tmp_path):
        text = MINIMAL + "[optimizer]\nmomentum = 0.9\n"
        with pytest.raises(ConfigError, match="unknown sections.*optimizer"):
            parse_config(write_ini(tmp_path, text))

    def test_bad_cast_names_section_and_key(self, tmp_path):
        text = MINIMAL + "[training]\nt2 = soon\n"
        with pytest.raises(ConfigError, match=r"\[training\] t2"):
            parse_config(write_ini(tmp_path, text))

    def test_bool_cast(self, tmp_path):
        text = MINIMAL + "[training]\nfreeze_eps = yes\n"
        cfg = parse_config(write_ini(tmp_path, text))
        assert cfg.trainer.freeze_eps is True
        bad = MINIMAL + "[training]\nfreeze_eps = maybe\n"
        with pytest.raises(ConfigError, match="freeze_eps"):
            parse_config(write_ini(tmp_path, bad, "b.ini"))

    def test_hidden_cast(self, tmp_path):
        text = MINIMAL + "[model]\nhidden = 32\n"
        assert parse_config(write_ini(tmp_path, text)).trainer.hidden == (32,)
        text = MINIMAL + "[model]\nhidden =\n"
        assert parse_config(write_ini(tmp_path, text, "b.ini")).trainer.hidden == ()
        text = MINIMAL + "[model]\nhidden = 64,32\n"
        assert parse_config(write_ini(tmp_path, text, "c.ini")).trainer.hidden == (64, 32)

    def test_key_before_any_section_exits_2(self, tmp_path):
        assert_refused_at_parse(tmp_path, "seed = 1\n" + MINIMAL,
                                "no section headers")

    def test_repeated_section_exits_2(self, tmp_path):
        assert_refused_at_parse(tmp_path, MINIMAL + "[run]\nseed = 1\n",
                                "section 'run' already exists")

    def test_repeated_key_exits_2(self, tmp_path):
        text = MINIMAL + "[loss]\nalpha = 0.1\nalpha = 0.2\n"
        assert_refused_at_parse(tmp_path, text,
                                "option 'alpha' in section 'loss' already")

    def test_custom_csv_requires_paths(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required key 'train_csv'"):
            parse_config(write_ini(tmp_path, "[run]\nscenario = custom-csv\n"))


class TestBlobStd:
    def test_scalar(self, tmp_path):
        text = MINIMAL + "[data]\nblob_std = 1.3\n"
        assert parse_config(write_ini(tmp_path, text)).data.blob_std == 1.3

    def test_per_class_list(self, tmp_path):
        text = MINIMAL + "[data]\nblob_std = 0.8,0.9,1.1,1.3,1.5\n"
        cfg = parse_config(write_ini(tmp_path, text))
        assert cfg.data.blob_std == (0.8, 0.9, 1.1, 1.3, 1.5)

    def test_wrong_length_rejected(self, tmp_path):
        # checked by the scenario's draw, when the datasets are built
        text = MINIMAL + "[data]\nblob_std = 1.0,2.0\n"
        assert_refused_at_build(tmp_path, text, "2 entries for 5 classes")
        noise = "[run]\nscenario = noise\n[data]\nblob_std = 1,2,3,4,5,6\n"
        assert_refused_at_build(tmp_path, noise, "6 entries for 5 classes")

    def test_non_positive_rejected(self, tmp_path):
        # checked by the scenario's draw, when the datasets are built
        text = MINIMAL + "[data]\nblob_std = 0\n"
        assert_refused_at_build(tmp_path, text, "must be positive")


class TestValidation:
    def test_t1_beyond_t2(self, tmp_path):
        text = MINIMAL + "[training]\nt1 = 20\nt2 = 10\n"
        with pytest.raises(ConfigError, match="t1 must not exceed"):
            parse_config(write_ini(tmp_path, text))

    def test_only_minus_one_means_auto_t1(self, tmp_path):
        text = MINIMAL + "[training]\nt1 = -5\n"
        with pytest.raises(ConfigError, match="t1 must be >= 0"):
            parse_config(write_ini(tmp_path, text))

    def test_zero_width_layer_rejected(self, tmp_path):
        for n, model in enumerate(["hidden = 0", "feat_dim = 0"]):
            text = MINIMAL + f"[model]\n{model}\n"
            with pytest.raises(ConfigError, match="widths must be >= 1"):
                parse_config(write_ini(tmp_path, text, f"{n}.ini"))

    def test_negative_alpha(self, tmp_path):
        text = MINIMAL + "[loss]\nalpha = -0.5\n"
        with pytest.raises(ConfigError, match="alpha and beta"):
            parse_config(write_ini(tmp_path, text))

    def test_bad_noise_kind(self, tmp_path):
        # checked by inject_label_noise, when the datasets are built
        for kind in ("salt", "Flip"):
            text = f"[run]\nscenario = noise\n[data]\nnoise_kind = {kind}\n"
            assert_refused_at_build(tmp_path, text, "unknown noise kind")

    def test_noise_rate_range(self, tmp_path):
        # checked by inject_label_noise, when the datasets are built
        for rate in ("1.0", "-0.1", "nan"):
            text = f"[run]\nscenario = noise\n[data]\nnoise_rate = {rate}\n"
            assert_refused_at_build(tmp_path, text, "noise rate")

    @pytest.mark.parametrize("key, value", [
        ("core_dim", 0), ("core_dim", -2), ("spurious_dim", 0),
        ("spurious_dim", -1)])
    def test_subpop_block_dims_at_least_one(self, tmp_path, key, value):
        # checked by the scenario's draw, when the datasets are built
        text = f"[run]\nscenario = subpop\n[data]\n{key} = {value}\n"
        assert_refused_at_build(tmp_path, text,
                                f"{key} must be >= 1, got {value}")

    def test_negative_seed(self, tmp_path):
        custom = ("[run]\nscenario = custom-csv\nseed = -1\n[data]\n"
                  "train_csv = a.csv\nmeta_csv = b.csv\ntest_csv = c.csv\n")
        for text in (MINIMAL + "seed = -1\n", custom):
            assert_refused_at_parse(tmp_path, text, "seed must be >= 0")

    def test_majority_range(self, tmp_path):
        # refused by the scenario's group size check, when the datasets
        # are built
        text = "[run]\nscenario = subpop\n[data]\ntrain_majority = 0.5\n"
        assert_refused_at_build(tmp_path, text, "degenerate balance")


class TestNonFinite:
    """A non-finite number exits 2 before any output: a hyperparameter when
    the file is parsed (`TrainerConfig`), a [data] value when the datasets
    are built (the scenario's `build`)."""

    def test_nan_alpha_on_the_longtail_preset(self, tmp_path):
        text = (ROOT / "configs" / "longtail.ini").read_text(encoding="utf-8")
        text += "\n[loss]\nalpha = nan\n"
        assert_refused_at_parse(tmp_path, text, "alpha must be finite")

    def test_infinite_eta1(self, tmp_path):
        text = MINIMAL + "[training]\nt1 = 5\nt2 = 40\neta1 = inf\n"
        assert_refused_at_parse(tmp_path, text, "eta1 must be finite")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_every_trainer_float(self, tmp_path, value):
        hints = get_type_hints(TrainerConfig)
        parser = resolved_sections(tmp_path,
                                   parse_config(write_ini(tmp_path, MINIMAL)))
        checked = []
        for section in ("model", "loss", "training"):
            for key in parser[section]:
                if hints[key] is float:
                    text = MINIMAL + f"[{section}]\n{key} = {value}\n"
                    with pytest.raises(ConfigError,
                                       match=f"{key} must be finite"):
                        parse_config(write_ini(tmp_path, text))
                    checked.append(key)
        assert checked == ["alpha", "beta", "eta1", "eta2", "momentum",
                           "weight_decay"]

    @pytest.mark.parametrize("scenario, data, match", [
        ("longtail", "blob_std = nan", "must be finite"),
        ("subpop", "core_sep = nan", "must be finite"),
        ("longtail", "radius = inf", "must be finite"),
        ("longtail", "nuisance_std = nan", "must be finite"),
        ("longtail", "blob_std = 1,1,nan,1,1", "must be finite"),
        ("longtail", "imbalance_ratio = inf", "imbalance_ratio must be finite"),
        ("noise", "radius = -inf", "must be finite"),
        ("subpop", "spurious_sep = -inf", "must be finite"),
        ("subpop", "test_majority = nan", "must be a distribution")])
    def test_non_finite_data_value(self, tmp_path, scenario, data, match):
        text = f"[run]\nscenario = {scenario}\n[data]\n{data}\n"
        assert_refused_at_build(tmp_path, text, match)


class TestResolvedRoundTrip:
    def test_write_then_parse_is_identity(self, tmp_path):
        text = ("[run]\nscenario = longtail\nseed = 3\n"
                "[data]\nblob_std = 0.8,0.9,1.1,1.3,1.5\nradius = 2.6\n"
                "[model]\nhidden = 32\n"
                "[loss]\nalpha = 0.25\nbeta = 0.5\n"
                "[training]\neta1 = 0.03\ndiagonal_sigma = true\n")
        cfg = parse_config(write_ini(tmp_path, text))
        out = tmp_path / "resolved.ini"
        write_resolved(cfg, str(out))
        again = parse_config(str(out))
        assert again == cfg

    @pytest.mark.parametrize("text, head", [
        (MINIMAL,
         b"[run]\nscenario = longtail\nseed = 0\n"
         b"output_dir = longtail_seed0\n\n"
         b"[data]\nnum_classes = 5\ndim = 5\nradius = 2.2\n"
         b"blob_std = 1.0\nnuisance_std = 1.0\nmeta_per_class = 10\n"
         b"test_per_class = 250\nn_max = 2000\n"
         b"imbalance_ratio = 100.0\n\n"),
        ("[run]\nscenario = noise\n",
         b"[run]\nscenario = noise\nseed = 0\noutput_dir = noise_seed0\n\n"
         b"[data]\nnum_classes = 5\ndim = 5\nradius = 2.2\n"
         b"blob_std = 1.0\nnuisance_std = 1.0\nmeta_per_class = 10\n"
         b"test_per_class = 250\nper_class = 400\nnoise_kind = flip\n"
         b"noise_rate = 0.4\n\n"),
        ("[run]\nscenario = subpop\n",
         b"[run]\nscenario = subpop\nseed = 0\noutput_dir = subpop_seed0\n\n"
         b"[data]\ncore_sep = 2.0\nspurious_sep = 4.0\n"
         b"train_majority = 0.45\ntest_majority = 0.25\nn_train = 2000\n"
         b"n_test = 2000\ncore_dim = 2\nspurious_dim = 2\nmeta_size = 40\n\n"),
        ("[run]\nscenario = custom-csv\n[data]\ntrain_csv = train.csv\n"
         "meta_csv = meta.csv\ntest_csv = test.csv\n",
         b"[run]\nscenario = custom-csv\nseed = 0\n"
         b"output_dir = custom-csv_seed0\n\n"
         b"[data]\ntrain_csv = train.csv\nmeta_csv = meta.csv\n"
         b"test_csv = test.csv\n\n"),
    ], ids=["longtail", "noise", "subpop", "custom-csv"])
    def test_minimal_file_resolves_to_pinned_bytes(self, tmp_path, text, head):
        # every default written out, in schema order
        out = tmp_path / "resolved.ini"
        write_resolved(parse_config(write_ini(tmp_path, text)), str(out))
        assert out.read_bytes() == head + (
            b"[model]\nhidden = 32\nfeat_dim = 16\nperturb_hidden = 100\n\n"
            b"[loss]\nalpha = 0.25\nbeta = 0.5\n\n"
            b"[training]\nt1 = 450\nt2 = 1500\neta1 = 0.03\neta2 = 0.001\n"
            b"batch_train = 64\nbatch_meta = 32\nmomentum = 0.9\n"
            b"weight_decay = 0.0005\nfreeze_eps = false\n"
            b"diagonal_sigma = false\n\n")

    def test_shipped_presets_parse(self):
        for name in ("longtail", "noise", "subpop"):
            cfg = parse_config(str(ROOT / "configs" / f"{name}.ini"))
            assert cfg.scenario == name
            assert cfg.trainer.t1 == 450


class TestBenchmarkInputs:
    """The benchmark builds each workload's INI from its shipped preset by
    rewriting `key = value` lines, so the presets must keep those lines."""

    @pytest.fixture
    def bench(self, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", ROOT / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while they are built
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_workload_is_its_preset_at_the_seed(self, tmp_path, bench,
                                                      seed):
        for name, workload in bench.WORKLOADS.items():
            preset = ROOT / "configs" / f"{workload.preset}.ini"
            text = bench.workload_ini(workload, preset.read_text(), seed)
            cfg = parse_config(write_ini(tmp_path, text))
            expected = parse_config(str(preset))
            trainer = replace(expected.trainer, seed=seed)
            if workload.plain_ce:
                trainer = replace(trainer, t1=trainer.t2)
            assert (cfg.scenario, cfg.data) == (expected.scenario,
                                                expected.data), name
            assert cfg.trainer == trainer, name


class TestTrainerConfig:
    def test_field_mapping(self, tmp_path):
        text = (MINIMAL + "[training]\nfreeze_eps = true\n"
                "[model]\nhidden = 16,8\nfeat_dim = 4\n")
        cfg = parse_config(write_ini(tmp_path, text))
        with pytest.raises(AttributeError):
            cfg.seed = 9  # the seed is stored once, in the trainer
        cfg = replace(cfg, trainer=replace(cfg.trainer, seed=9))
        tc = cfg.trainer
        assert tc.freeze_eps is True
        assert tc.hidden == (16, 8)
        assert tc.feat_dim == 4
        assert tc.seed == 9
        assert cfg.seed == 9

    def test_every_field_but_the_seed_is_a_key(self, tmp_path):
        # the csv paths are read when the datasets are built, not parsed
        paths = "[data]\ntrain_csv = a\nmeta_csv = b\ntest_csv = c\n"
        for name, cls in SCENARIOS.items():
            text = f"[run]\nscenario = {name}\n" + paths * (name == "custom-csv")
            parser = resolved_sections(tmp_path,
                                       parse_config(write_ini(tmp_path, text)))
            keys = {key for section in ("model", "loss", "training")
                    for key in parser[section]}
            assert {f.name for f in fields(TrainerConfig)} - {"seed"} == keys
            assert list(parser["data"]) == [f.name for f in fields(cls)], name

    def test_readme_lists_the_trainer_keys(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Configuration", 1)[1]
        block = block.split("```ini\n", 1)[1].split("```", 1)[0]
        listed, section = {}, None
        for line in block.splitlines():
            header = re.match(r"\[(\w+)\]", line)
            if header:
                section = header.group(1)
                listed[section] = []
            elif "=" in line:
                listed[section].append(line.split("=", 1)[0].strip())
        parser = resolved_sections(tmp_path,
                                   parse_config(write_ini(tmp_path, MINIMAL)))
        for name in ("model", "loss", "training"):
            assert listed[name] == list(parser[name]), name

    def test_readme_lists_the_data_keys(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("`[data]` keys per scenario", 1)[1]
        block = block.split("\n## ", 1)[0]
        bullets = {}
        for bullet in block.split("\n- ")[1:]:
            name, text = bullet.split(":", 1)
            bullets[name.strip("`")] = set(re.findall(r"`(\w+)`", text))
        assert list(bullets) == list(SCENARIOS)
        for name, cls in SCENARIOS.items():
            missing = {f.name for f in fields(cls)} - bullets[name]
            assert not missing, (name, missing)


NON_FINITE = ("nan", "inf", "-inf")
WORDS = ("soon", "none", "yes", "1e", "0x10")
SECTION_NAMES = ("run", "data", "model", "loss", "training", "optimizer")


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


class TestFuzz:
    """Seeded mutations of the three presets, shortened to t2 = 20.

    Every numeric value is set to nan, inf and -inf, every value to empty
    and to a word, every section is repeated and renamed, and every section
    but [training] is dropped (without it the schedule is the 1500-iteration
    default); then random pairs and triples of value mutations.  No case
    may raise or exit 1, an exit 2 writes nothing, and an exit 3 only
    happens with finite values.
    """

    def sections(self, tmp_path, preset):
        cfg = parse_config(str(ROOT / "configs" / f"{preset}.ini"))
        cfg = replace(cfg, trainer=replace(cfg.trainer, t1=6, t2=20))
        parser = resolved_sections(tmp_path, cfg)
        return [(name, list(parser[name].items()))
                for name in parser.sections()]

    def cases(self, sections, rng):
        values = {}  # (section index, key index) -> the values to try
        for s, (_, keys) in enumerate(sections):
            for k, (_, value) in enumerate(keys):
                values[s, k] = (["", str(rng.choice(WORDS))]
                                + list(NON_FINITE) * is_number(value))
        for (s, k), tries in values.items():
            for value in tries:
                yield {(s, k): value}, sections
        for s, (name, keys) in enumerate(sections):
            if name != "training":
                yield {}, sections[:s] + sections[s + 1:]
            yield {}, sections[:s + 1] + sections[s:]
            renamed = (str(rng.choice(SECTION_NAMES)) + "x" * (s % 2), keys)
            yield {}, sections[:s] + [renamed] + sections[s + 1:]
        slots = list(values)
        for _ in range(20):
            picks = rng.choice(len(slots), size=rng.integers(2, 4),
                               replace=False)
            yield ({slots[i]: str(rng.choice(values[slots[i]]))
                    for i in picks}, sections)

    @pytest.mark.parametrize("preset", ["longtail", "noise", "subpop"])
    def test_mutated_presets_exit_0_2_or_3(self, tmp_path, capsys, preset):
        rng = np.random.default_rng(["longtail", "noise", "subpop"]
                                    .index(preset))
        base = self.sections(tmp_path, preset)
        for n, (edits, sections) in enumerate(self.cases(base, rng)):
            text = "".join(
                f"[{name}]\n" + "".join(
                    f"{key} = {edits.get((s, k), value)}\n"
                    for k, (key, value) in enumerate(keys)) + "\n"
                for s, (name, keys) in enumerate(sections))
            out = tmp_path / f"out{n}"
            code = main(["run", "--config", write_ini(tmp_path, text),
                         "--output", str(out)])
            assert code in (0, 2, 3), text
            if code == 2:
                assert not out.exists(), text
            if code == 3:
                assert not set(edits.values()) & set(NON_FINITE), text
        capsys.readouterr()
