"""The verification suites fail on a NaN in what they check, and distinct
`advaug verify` seeds draw from distinct Monte Carlo seeds."""

import inspect

import numpy as np
import pytest

from advaug import kernels, oracles, verification
from advaug.stats import ClassStats


def nan_pass(out):
    return out._replace(value=np.nan, grads=[g * np.nan for g in out.grads])


# suite: its arguments, where the NaN is planted, how, and its worst figure
PLANTS = {
    "reduction": ({"instances": 5}, kernels, "surrogate", nan_pass, "kernel"),
    "jensen": ({"instances": 3, "draws": 100}, kernels, "surrogate",
               nan_pass, "worst"),
    "mgf": ({"count": 1000}, verification, "mgf_check",
            lambda pair: (np.nan, pair[1]), "worst"),
    "convergence": ({"runs": 2, "limit_count": 1000}, oracles,
                    "_ce_rows", lambda rows: rows * np.nan, "slope"),
    "gradient": ({"instances": 1}, kernels, "surrogate", nan_pass, "worst"),
    "hypergradient": ({}, kernels, "hypergradient",
                      lambda pair: (pair[0], pair[1] * np.nan), "worst"),
    "covariance": ({"partitions": 2}, ClassStats, "covariances",
                   lambda sigma: sigma * np.nan, "worst"),
}


@pytest.mark.parametrize("suite", PLANTS)
def test_a_nan_fails_the_suite(monkeypatch, suite):
    kwargs, owner, attr, spoil, key = PLANTS[suite]
    real = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *a, **k: spoil(real(*a, **k)))
    record = getattr(verification, f"{suite}_suite")(**kwargs)
    assert not record["passed"]
    assert np.isnan(record[key])


def recorder(seeds, oracle, result):
    """A cheap stand-in for `oracle` that keeps the seed it is given."""
    signature = inspect.signature(getattr(verification, oracle))

    def recording(*args, **kwargs):
        seeds.append((oracle,
                      signature.bind(*args, **kwargs).arguments["seed"]))
        return result

    return recording


def test_distinct_seeds_share_no_monte_carlo_seed(monkeypatch):
    seeds = []
    for oracle, result in (("mgf_check", (1.0, 1.0)),
                           ("mc_expected_ce", (0.0, 1.0)),
                           ("finite_loss_convergence", [1.0, 0.3, 0.1])):
        monkeypatch.setattr(verification, oracle,
                            recorder(seeds, oracle, result))
    drawn = []
    for seed in (0, 1):
        verification.run_all(seed)
        drawn.append(set(seeds))
        seeds.clear()
    # jensen's 200 instances, the 27 MGF cells and 50 convergence runs
    assert len(drawn[0]) == 200 + len(verification.MGF_CELLS) + 50
    assert not drawn[0] & drawn[1]
