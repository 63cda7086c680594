"""Config parsing, validation, and resolved-file round trips."""

from dataclasses import fields
from pathlib import Path

import pytest

from advaug.config import (ConfigError, parse_config, trainer_config,
                           write_resolved)
from advaug.training import TrainerConfig


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


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
        text = MINIMAL + "[data]\nblob_std = 1.0,2.0\n"
        with pytest.raises(ConfigError, match="one value per class"):
            parse_config(write_ini(tmp_path, text))

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
        text = "[run]\nscenario = noise\n[data]\nnoise_kind = salt\n"
        with pytest.raises(ConfigError, match="noise_kind"):
            parse_config(write_ini(tmp_path, text))

    def test_noise_rate_range(self, tmp_path):
        text = "[run]\nscenario = noise\n[data]\nnoise_rate = 1.0\n"
        with pytest.raises(ConfigError, match="noise_rate"):
            parse_config(write_ini(tmp_path, text))

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

    def test_shipped_presets_parse(self):
        root = Path(__file__).resolve().parent.parent / "configs"
        for name in ("longtail", "noise", "subpop"):
            cfg = parse_config(str(root / f"{name}.ini"))
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
