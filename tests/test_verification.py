"""The verification suites fail on a NaN in what they check."""

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
