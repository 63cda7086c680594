"""Short preset runs train the same bits as before.

Each case trains a shipped preset for 100 iterations (50 warm-up, 50 meta,
so epoch rows fall in both phases) and pins the sha256 of its `metrics.csv`
and of the final classifier and perturbation-net vectors.  A change that
moves any of them must say which bits moved and why, and update the digest.
"""

import configparser
import hashlib
from pathlib import Path

import numpy as np
import pytest

from advaug.config import parse_config
from advaug.scenarios import build_scenario
from advaug.training import train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("preset, overrides, pinned", [
    ("longtail", {}, (
        "c8889ff5d397ff72", "99bfc7c8de9343d1", "026403a668f053e7")),
    ("longtail", {"training": {"diagonal_sigma": "false"}}, (
        "38858945d6e652e3", "e00897e8578a6f91", "94dcd91457465830")),
    ("longtail", {"loss": {"alpha": "0"}}, (
        "14ced90527ca67b4", "233691df18698c85", "89c1b2487e494ab3")),
    ("subpop", {}, (
        "a86574cd8c410b5d", "72e9512616f25a6e", "0619382288f1a68f")),
    ("noise", {"training": {"freeze_eps": "true"}}, (
        "67c1ae43ef39eee7", "51140fd9ff610c0d", "e350fed5aec5ee94")),
    ("noise", {"training": {"freeze_eps": "false"}}, (
        "0b44ff7698d184f9", "8b6db96a2f7fcd68", "cdf71f602658f79a")),
], ids=["longtail-diagonal", "longtail-full", "longtail-alpha-zero",
        "subpop", "noise-frozen", "noise"])
def test_short_run_keeps_its_bits(tmp_path, preset, overrides, pinned):
    ini = configparser.ConfigParser(interpolation=None)
    ini.read(CONFIGS / f"{preset}.ini")
    ini["training"].update(t1="50", t2="100")
    ini.read_dict(overrides)
    with open(tmp_path / "run.ini", "w") as fh:
        ini.write(fh)
    cfg = parse_config(str(tmp_path / "run.ini"))
    data = build_scenario(cfg)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state, log = train(cfg.trainer, data.train, data.meta,
                           eval_data=data.test)
    assert {row["phase"] for row in log.rows} == {"warmup", "meta"}
    log.write_csv(str(tmp_path / "metrics.csv"))
    got = (digest((tmp_path / "metrics.csv").read_bytes()),
           digest(state.params.vector.tobytes()),
           digest(state.perturb.vector.tobytes()))
    assert got == pinned
