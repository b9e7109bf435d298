"""The exporters' row contract: row counts per configuration, ``render``
consuming a one-shot iterable exactly like a list, and ``render`` against
the plain ``json``/``format`` encoders it replaced, which live here only
as oracles."""

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bispinor.harness import tables
from bispinor.harness.config import SuiteConfig

CONFIGS = [
    SuiteConfig(gamma_values=(0.0, 0.5), beta_values=(1.0,), grid_points=4),
    # origin on the grid (n odd) and a zero beta, which is skipped
    SuiteConfig(gamma_values=(0.0, 0.8, -0.3), beta_values=(1.0, 0.0, 2.5),
                p1_range=(-2.0, 2.0), p2_range=(-2.0, 2.0), grid_points=5),
]
TABLES = [(tables.SPECTRUM_HEADER, tables.spectrum_rows),
          (tables.TEXTURE_HEADER, tables.texture_rows)]


def grid_size(cfg):
    """Grid points off the origin, counted one point at a time."""
    p1s = np.linspace(*cfg.p1_range, cfg.grid_points)
    p2s = np.linspace(*cfg.p2_range, cfg.grid_points)
    return sum(1 for p1 in p1s for p2 in p2s if np.hypot(p1, p2) > 1e-9)


@pytest.mark.parametrize("cfg", CONFIGS)
def test_row_counts(cfg):
    n = grid_size(cfg)
    g = len(cfg.gamma_values)
    b = sum(1 for beta in cfg.beta_values if beta != 0.0)
    assert len(tables.spectrum_rows(cfg)) == g * b * n
    assert len(tables.texture_rows(cfg)) == 2 * g * n


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("header, make_rows", TABLES)
def test_render_consumes_a_generator(header, make_rows, fmt):
    rows = make_rows(CONFIGS[1])
    seen = []

    def one_shot():
        for row in rows:
            seen.append(row)
            yield row

    assert tables.render(header, one_shot(), fmt) == tables.render(header, rows, fmt)
    assert len(seen) == len(rows)


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        tables.render(tables.SPECTRUM_HEADER, [], "xml")


def oracle(header, rows, fmt):
    """The encoders ``render`` replaced: one dict per row through
    ``json.dumps``, and ``format(c, ".17g")`` per CSV cell."""
    if fmt == "json":
        return json.dumps([dict(zip(header, r)) for r in rows], indent=2, sort_keys=True) + "\n"
    lines = [",".join([c if isinstance(c, str) else format(c, ".17g") for c in r]) for r in rows]
    return "\n".join([",".join(header), *lines, ""])


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 1.7976931348623157e308,
               -1.7976931348623157e308, 2.0, -3.0, 0.1]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.integers(-2**60, 2**60).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))
WORDS = st.one_of(st.sampled_from(["plus", "minus"]), st.text(max_size=6))


@st.composite
def drawn_tables(draw):
    """A header of distinct names (any text, so seldom sorted) and rows of
    floats and words, one kind per column."""
    header = draw(st.lists(st.text(max_size=6), min_size=1, max_size=6, unique=True))
    kinds = draw(st.lists(st.sampled_from([FLOATS, WORDS]),
                          min_size=len(header), max_size=len(header)))
    return tuple(header), draw(st.lists(st.tuples(*kinds).map(list), max_size=6))


@given(drawn_tables())
@example((tables.SPECTRUM_HEADER, []))
@example((tables.TEXTURE_HEADER, [["minus", *EDGE_FLOATS[:6]], ["plus", *EDGE_FLOATS[6:]]]))
@example((("z%s", "a%%", "m\u00e9"), [[1.0, 'x%s "\u00e9\\', -0.0]]))
def test_render_matches_the_plain_encoders(table):
    header, rows = table
    for fmt in ("json", "csv"):
        assert tables.render(header, (r for r in rows), fmt) == oracle(header, rows, fmt)


def test_render_of_no_rows():
    assert tables.render(tables.TEXTURE_HEADER, iter([]), "json") == "[]\n"
    assert tables.render(tables.TEXTURE_HEADER, iter([]), "csv") == \
        "branch,gamma,p1,p2,v1,v2,v3\n"
