"""The registry's draws: the momentum rejection step and per-check streams.

Each check owns the generator ``default_rng([seed, crc32(test_id)])``, which
``run_all`` builds from the same uint32 words, and draws its inputs as whole
arrays, so a ``run_all`` entry depends only on the configuration and the
check's ID: run alone, or with the registry in another order, a check must
give its entry bit for bit.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bispinor.harness import checks
from bispinor.harness.checks import REGISTRY, _momenta, run_all, worst_term
from bispinor.harness.config import ConfigError, SuiteConfig

CFG = SuiteConfig(gamma_values=(0.0, 0.45, -0.8), beta_values=(0.7, 1.9),
                  samples=24, seed=5)


@pytest.fixture(scope="module")
def report():
    return run_all(CFG)


@pytest.mark.parametrize("box", [(-3.0, 3.0), (-0.011, 0.011)])
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_momenta_stay_in_box_and_off_the_origin(box, seed):
    cfg = SuiteConfig(p1_range=box, p2_range=box)
    p = _momenta(cfg, np.random.default_rng(seed), 200)
    assert p.shape == (200, 2)
    assert np.all((box[0] <= p) & (p < box[1]))
    assert np.all(np.hypot(p[:, 0], p[:, 1]) > 1e-2)
    # only the rows of the first draw that fell inside the disc are redrawn
    first = np.random.default_rng(seed).uniform(box[0], box[1], size=(200, 2))
    kept = np.hypot(first[:, 0], first[:, 1]) > 1e-2
    assert np.array_equal(p[kept], first[kept])
    if box == (-0.011, 0.011):
        assert not kept.all()       # this box forces redraws


@pytest.mark.parametrize("box", [(-0.005, 0.005), (0.0, 0.007)])
def test_box_inside_the_small_disc_is_rejected(box):
    cfg = SuiteConfig(p1_range=box, p2_range=box)
    with pytest.raises(ConfigError, match="inside"):
        _momenta(cfg, np.random.default_rng(0), 5)


@pytest.mark.parametrize("entry", REGISTRY, ids=[entry[0] for entry in REGISTRY])
def test_check_alone_matches_its_run_all_entry(entry, report):
    test_id, _, check, _ = entry
    rng = np.random.default_rng([CFG.seed, zlib.crc32(test_id.encode())])
    terms, samples = check(CFG, rng)
    residual, _ = worst_term(terms)
    (want,) = [e for e in report.entries if e.test_id == test_id]
    assert float(residual).hex() == want.max_residual.hex()
    assert samples == want.samples


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
def test_run_all_streams_match_the_documented_generator(seed):
    # run_all hands default_rng the uint32 words SeedSequence makes of
    # [seed, crc32(test_id)]: the seed's 32-bit words, lowest first, and one
    # word for 0.  These seeds sit at the word boundaries, where a slip in
    # splitting the seed changes every sampled check's stream.
    cfg = SuiteConfig(gamma_values=(0.0, 0.45), beta_values=(0.7,), samples=3, seed=seed)
    entries = run_all(cfg).entries
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for (test_id, _, check, _), want in zip(REGISTRY, entries, strict=True):
            rng = np.random.default_rng([seed, zlib.crc32(test_id.encode())])
            terms, samples = check(cfg, rng)
            residual, _ = worst_term(terms)
            assert float(residual).hex() == want.max_residual.hex(), test_id
            assert samples == want.samples, test_id


def test_registry_order_does_not_change_entries(report, monkeypatch):
    monkeypatch.setattr(checks, "REGISTRY", REGISTRY[::-1])
    entries = run_all(CFG).entries
    assert [e.test_id for e in entries] == [entry[0] for entry in REGISTRY[::-1]]
    assert sorted(entries, key=lambda e: e.test_id) == sorted(report.entries,
                                                              key=lambda e: e.test_id)
