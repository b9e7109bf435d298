"""The value types of the harness: SuiteConfig and the conformance report are
immutable tuples compared and hashed by value, and no way of making a
SuiteConfig skips its validation.  The configuration's field checks and the
report's bytes are tested in test_cli.py and test_verify_parity.py."""

import copy
import math
import pickle

import pytest

from bispinor.harness import ConfigError, ConformanceReport, ReportEntry, SuiteConfig

DEFAULT_REPR = (
    "SuiteConfig(gamma_values=(0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9), "
    "beta_values=(0.5, 1.0, 2.0), p1_range=(-3.0, 3.0), p2_range=(-3.0, 3.0), "
    "grid_points=12, samples=50, seed=7, tolerance=1e-10)"
)
FIELDS = ("gamma_values", "beta_values", "p1_range", "p2_range",
          "grid_points", "samples", "seed", "tolerance")


def test_keyword_and_positional_construction_agree():
    values = ((0.2, -0.4), (1.5,), (-1.0, 2.0), (-2.0, 1.0), 5, 9, 3, 1e-9)
    by_position = SuiteConfig(*values)
    assert by_position == SuiteConfig(**dict(zip(FIELDS, values)))
    assert SuiteConfig((0.2, -0.4), samples=9) == SuiteConfig(gamma_values=(0.2, -0.4), samples=9)
    assert tuple(getattr(by_position, name) for name in FIELDS) == values
    with pytest.raises(TypeError):
        SuiteConfig(*values, 1)
    with pytest.raises(TypeError):
        SuiteConfig(gammas=(0.1,))


def test_equal_values_are_equal_with_equal_hashes():
    a = SuiteConfig(gamma_values=[0, 0.5], beta_values=(1,), seed=3)
    b = SuiteConfig(gamma_values=(0.0, 0.5), beta_values=[1.0], seed=3)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != SuiteConfig(gamma_values=(0.0, 0.5), beta_values=(1.0,), seed=4)
    assert SuiteConfig() == SuiteConfig() and hash(SuiteConfig()) == hash(SuiteConfig())


def test_fields_cannot_be_assigned():
    cfg = SuiteConfig()
    with pytest.raises(AttributeError):
        cfg.samples = 3
    with pytest.raises(AttributeError):
        cfg.extra = 1
    assert cfg.samples == 50


def test_repr_and_defaults():
    assert repr(SuiteConfig()) == DEFAULT_REPR
    assert SuiteConfig(beta_values=(0.0, -1.5, 2.0)).nonzero_betas() == (-1.5, 2.0)


@pytest.mark.parametrize("make", [
    lambda cfg: cfg._replace(gamma_values=(2.0,)),
    lambda cfg: SuiteConfig._make(((2.0,), *cfg[1:])),
    lambda cfg: type(cfg)(*((2.0,), *cfg[1:])),
], ids=["_replace", "_make", "positional"])
def test_every_way_of_making_one_validates(make):
    with pytest.raises(ConfigError, match=r"gamma=2\.0 outside the open unit interval"):
        make(SuiteConfig())


def test_copies_are_validated_and_coerced():
    cfg = SuiteConfig(p1_range=[-1, 2])
    for twin in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg)),
                 cfg._replace(), SuiteConfig._make(cfg)):
        assert type(twin) is SuiteConfig and twin == cfg
    replaced = cfg._replace(p2_range=[0, 1], seed=4)
    assert replaced.p2_range == (0.0, 1.0) and type(replaced.p2_range[0]) is float
    with pytest.raises(ConfigError, match="samples must be an integer"):
        cfg._replace(samples=0)
    with pytest.raises(ValueError, match="unexpected field names"):
        cfg._replace(gammas=(0.1,))


def test_report_entries_and_report():
    entry = ReportEntry("a.b", "3", "fail", math.inf, 0, error="ValueError: x")
    assert entry == ReportEntry(test_id="a.b", paper_ref="3", status="fail",
                                max_residual=math.inf, samples=0, term=None,
                                error="ValueError: x")
    assert hash(entry) == hash(ReportEntry(*entry))
    passing = ReportEntry("c.d", "4", "pass", 1e-12, 10)
    assert (passing.term, passing.error) == (None, None)
    report = ConformanceReport(entries=(entry, passing), tolerance=1e-10, seed=7)
    assert (report.passed, report.failed, report.all_passed) == (1, 1, False)
    assert [e["test_id"] for e in report.to_dict()["entries"]] == ["a.b", "c.d"]
    assert report.to_dict()["entries"][0] == {
        "test_id": "a.b", "paper_ref": "3", "status": "fail", "max_residual": None,
        "samples": 0, "error": "ValueError: x"}
    for value in (entry, report):
        with pytest.raises(AttributeError):
            value.seed = 1
    # a tracer wraps the text rendering on the class
    assert callable(vars(ConformanceReport)["to_text"])
