"""Short preset runs and the self-checks keep the same bits as before.

Each case trains a shipped preset for 100 iterations (50 warm-up, 50 meta,
so epoch rows fall in both phases, or 100 warm-up for a `t1 = t2` case)
and pins the sha256 of its `metrics.csv` and of the final classifier and
perturbation-net vectors; a `custom-csv` run on the CSVs that `gen-data`
writes for the longtail preset is pinned the same way, and so is the
output of `advaug verify --seed 0`.  A change that moves any of them must
say which bits moved and why, and update the digest.
"""

import configparser
import hashlib
from pathlib import Path

import numpy as np
import pytest

from advaug.cli import main
from advaug.config import parse_config
from advaug.scenarios import build_scenario
from advaug.training import train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def short_run(tmp_path, ini: configparser.ConfigParser):
    """The phases of the epoch rows of a run of `ini`, and the digests of its
    `metrics.csv` and of its final classifier and perturbation-net vectors."""
    with open(tmp_path / "run.ini", "w") as fh:
        ini.write(fh)
    cfg = parse_config(str(tmp_path / "run.ini"))
    data = build_scenario(cfg)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state, log = train(cfg.trainer, data.train, data.meta,
                           eval_data=data.test)
    log.write_csv(str(tmp_path / "metrics.csv"))
    return ({row["phase"] for row in log.rows},
            (digest((tmp_path / "metrics.csv").read_bytes()),
             digest(state.params.vector.tobytes()),
             digest(state.perturb.vector.tobytes())))


BOTH_PHASES = {"warmup", "meta"}
LONGTAIL = ("c8889ff5d397ff72", "99bfc7c8de9343d1", "026403a668f053e7")


@pytest.mark.parametrize("preset, overrides, phases, pinned", [
    ("longtail", {}, BOTH_PHASES, LONGTAIL),
    ("longtail", {"training": {"diagonal_sigma": "false"}}, BOTH_PHASES, (
        "38858945d6e652e3", "e00897e8578a6f91", "94dcd91457465830")),
    ("longtail", {"loss": {"alpha": "0"}}, BOTH_PHASES, (
        "14ced90527ca67b4", "233691df18698c85", "89c1b2487e494ab3")),
    ("longtail", {"training": {"t1": "100"}}, {"warmup"}, (
        "444d3c7533a05c83", "491d0b34c458d1ad", "e350fed5aec5ee94")),
    ("subpop", {}, BOTH_PHASES, (
        "a86574cd8c410b5d", "72e9512616f25a6e", "0619382288f1a68f")),
    ("noise", {"training": {"freeze_eps": "true"}}, BOTH_PHASES, (
        "67c1ae43ef39eee7", "51140fd9ff610c0d", "e350fed5aec5ee94")),
    ("noise", {"training": {"freeze_eps": "false"}}, BOTH_PHASES, (
        "0b44ff7698d184f9", "8b6db96a2f7fcd68", "cdf71f602658f79a")),
], ids=["longtail-diagonal", "longtail-full", "longtail-alpha-zero",
        "longtail-ce", "subpop", "noise-frozen", "noise"])
def test_short_run_keeps_its_bits(tmp_path, preset, overrides, phases,
                                  pinned):
    ini = configparser.ConfigParser(interpolation=None)
    ini.read(CONFIGS / f"{preset}.ini")
    ini["training"].update(t1="50", t2="100")
    ini.read_dict(overrides)
    assert short_run(tmp_path, ini) == (phases, pinned)


def test_custom_csv_run_keeps_its_bits(tmp_path):
    data = tmp_path / "data"
    assert main(["gen-data", "--config", str(CONFIGS / "longtail.ini"),
                 "--output", str(data)]) == 0
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_dict({
        "run": {"scenario": "custom-csv", "seed": "0"},
        "data": {f"{part}_csv": str(data / f"{part}.csv")
                 for part in ("train", "meta", "test")},
        "training": {"t1": "50", "t2": "100", "diagonal_sigma": "true"}})
    # The CSVs hold the preset's draw, so the run is the preset's run.
    assert short_run(tmp_path, ini) == (BOTH_PHASES, LONGTAIL)


def test_verify_output_keeps_its_bits(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    assert digest(capsys.readouterr().out.encode()) == "892b0ef0ba39e701"
