"""Config parsing, validation, and resolved-file round trips."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from advaug.cli import main
from advaug.config import (ConfigError, parse_config, trainer_config,
                           write_resolved)
from advaug.data import DataError
from advaug.scenarios import build_scenario
from advaug.training import TrainerConfig

ROOT = Path(__file__).resolve().parent.parent


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def assert_refused_at_build(tmp_path, text, match):
    """The file parses, its datasets are refused with DataError, and `run`,
    `sweep` and `gen-data` exit 2 before writing anything."""
    path = write_ini(tmp_path, text)
    with pytest.raises(DataError, match=match):
        build_scenario(parse_config(path))
    for verb in ("run", "sweep", "gen-data"):
        out = tmp_path / verb
        assert main([verb, "--config", path, "--output", str(out)]) == 2
        assert not out.exists()


MINIMAL = "[run]\nscenario = longtail\n"


class TestParsing:
    def test_defaults_fill_in(self, tmp_path):
        cfg = parse_config(write_ini(tmp_path, MINIMAL))
        assert cfg.scenario == "longtail"
        assert cfg.seed == 0
        assert cfg.data["num_classes"] == 5
        assert cfg.data["imbalance_ratio"] == 100.0
        assert cfg.model["hidden"] == (64, 64)
        assert cfg.loss["alpha"] == 0.5
        assert cfg.training["t2"] == 1500

    def test_t1_auto_resolves_to_30_percent(self, tmp_path):
        cfg = parse_config(write_ini(tmp_path, MINIMAL))
        assert cfg.training["t1"] == 450
        explicit = MINIMAL + "[training]\nt1 = 200\nt2 = 1000\n"
        cfg2 = parse_config(write_ini(tmp_path, explicit, "b.ini"))
        assert cfg2.training["t1"] == 200

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
        assert cfg.training["freeze_eps"] is True
        bad = MINIMAL + "[training]\nfreeze_eps = maybe\n"
        with pytest.raises(ConfigError, match="freeze_eps"):
            parse_config(write_ini(tmp_path, bad, "b.ini"))

    def test_hidden_cast(self, tmp_path):
        text = MINIMAL + "[model]\nhidden = 32\n"
        assert parse_config(write_ini(tmp_path, text)).model["hidden"] == (32,)
        text = MINIMAL + "[model]\nhidden =\n"
        assert parse_config(write_ini(tmp_path, text, "b.ini")).model["hidden"] == ()
        text = MINIMAL + "[model]\nhidden = 64,32\n"
        assert parse_config(write_ini(tmp_path, text, "c.ini")).model["hidden"] == (64, 32)

    def test_custom_csv_requires_paths(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required key 'train_csv'"):
            parse_config(write_ini(tmp_path, "[run]\nscenario = custom-csv\n"))


class TestBlobStd:
    def test_scalar(self, tmp_path):
        text = MINIMAL + "[data]\nblob_std = 1.3\n"
        assert parse_config(write_ini(tmp_path, text)).data["blob_std"] == 1.3

    def test_per_class_list(self, tmp_path):
        text = MINIMAL + "[data]\nblob_std = 0.8,0.9,1.1,1.3,1.5\n"
        cfg = parse_config(write_ini(tmp_path, text))
        assert cfg.data["blob_std"] == (0.8, 0.9, 1.1, 1.3, 1.5)

    def test_wrong_length_rejected(self, tmp_path):
        # checked by the generator, when the datasets are built
        text = MINIMAL + "[data]\nblob_std = 1.0,2.0\n"
        assert_refused_at_build(tmp_path, text, "2 entries for 5 classes")
        noise = "[run]\nscenario = noise\n[data]\nblob_std = 1,2,3,4,5,6\n"
        assert_refused_at_build(tmp_path, noise, "6 entries for 5 classes")

    def test_non_positive_rejected(self, tmp_path):
        text = MINIMAL + "[data]\nblob_std = 0\n"
        with pytest.raises(ConfigError, match="must be positive"):
            parse_config(write_ini(tmp_path, text))


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
        # checked by the generator, when the datasets are built
        for kind in ("salt", "Flip"):
            text = f"[run]\nscenario = noise\n[data]\nnoise_kind = {kind}\n"
            assert_refused_at_build(tmp_path, text, "unknown noise kind")

    def test_noise_rate_range(self, tmp_path):
        # checked by the generator, when the datasets are built
        for rate in ("1.0", "-0.1", "nan"):
            text = f"[run]\nscenario = noise\n[data]\nnoise_rate = {rate}\n"
            assert_refused_at_build(tmp_path, text, "noise rate")

    def test_majority_range(self, tmp_path):
        text = "[run]\nscenario = subpop\n[data]\ntrain_majority = 0.5\n"
        with pytest.raises(ConfigError, match="train_majority"):
            parse_config(write_ini(tmp_path, text))


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

    def test_minimal_longtail_resolves_to_pinned_bytes(self, tmp_path):
        # every default written out, in schema order
        out = tmp_path / "resolved.ini"
        write_resolved(parse_config(write_ini(tmp_path, MINIMAL)), str(out))
        assert out.read_bytes() == (
            b"[run]\nscenario = longtail\nseed = 0\n"
            b"output_dir = longtail_seed0\n\n"
            b"[data]\nnum_classes = 5\ndim = 5\nradius = 2.2\n"
            b"blob_std = 1.0\nnuisance_std = 1.0\nmeta_per_class = 10\n"
            b"test_per_class = 250\nn_max = 2000\n"
            b"imbalance_ratio = 100.0\n\n"
            b"[model]\nhidden = 64,64\nfeat_dim = 16\nperturb_hidden = 100\n\n"
            b"[loss]\nalpha = 0.5\nbeta = 1.0\n\n"
            b"[training]\nt1 = 450\nt2 = 1500\neta1 = 0.05\neta2 = 0.001\n"
            b"batch_train = 64\nbatch_meta = 32\nmomentum = 0.9\n"
            b"weight_decay = 0.0005\nfreeze_eps = false\n"
            b"diagonal_sigma = false\n\n")

    def test_shipped_presets_parse(self):
        for name in ("longtail", "noise", "subpop"):
            cfg = parse_config(str(ROOT / "configs" / f"{name}.ini"))
            assert cfg.scenario == name
            assert cfg.training["t1"] == 450


class TestTrainerConfig:
    def test_field_mapping(self, tmp_path):
        text = (MINIMAL + "[training]\nfreeze_eps = true\n"
                "[model]\nhidden = 16,8\nfeat_dim = 4\n")
        cfg = parse_config(write_ini(tmp_path, text))
        cfg.seed = 9
        tc = trainer_config(cfg)
        assert tc.freeze_eps is True
        assert tc.hidden == (16, 8)
        assert tc.feat_dim == 4
        assert tc.seed == 9

    def test_every_field_but_the_seed_is_a_key(self, tmp_path):
        cfg = parse_config(write_ini(tmp_path, MINIMAL))
        keys = set(cfg.model) | set(cfg.loss) | set(cfg.training)
        assert {f.name for f in fields(TrainerConfig)} - {"seed"} == keys

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
        cfg = parse_config(write_ini(tmp_path, MINIMAL))
        for name in ("model", "loss", "training"):
            assert listed[name] == list(getattr(cfg, name)), name
