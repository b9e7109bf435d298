"""The exporters' row contract: row counts per configuration, ``render``
consuming a one-shot iterable exactly like a list, and ``cells`` plus
``render`` against the plain ``json``/``format`` encoders they replaced,
which live here only as oracles."""

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
TABLES = [(tables.SPECTRUM_HEADER, tables.spectrum_columns),
          (tables.TEXTURE_HEADER, tables.texture_columns)]


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
    assert len(list(tables.cells("spectrum", tables.spectrum_columns(cfg), "csv"))) == g * b * n
    assert len(list(tables.cells("texture", tables.texture_columns(cfg), "json"))) == 2 * g * n


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("header, make_columns", TABLES)
def test_render_consumes_a_generator(header, make_columns, fmt):
    rows = list(tables.cells("table", make_columns(CONFIGS[1]), fmt))
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


def columns_of(header, rows):
    """The drawn rows as columns: float64 arrays, and object arrays for
    words (a numpy string array would drop trailing NULs)."""
    kinds = [isinstance(c, str) for c in rows[0]] if rows else [False] * len(header)
    return [np.array([r[i] for r in rows], dtype=object if word else float)
            for i, word in enumerate(kinds)]


@given(drawn_tables())
@example((tables.SPECTRUM_HEADER, []))
@example((tables.TEXTURE_HEADER, [["minus", *EDGE_FLOATS[:6]], ["plus", *EDGE_FLOATS[6:]]]))
# signed zeros and signed subnormals: equal or near as floats, apart as bits
@example((("zero", "tiny"), [[0.0, 5e-324], [-0.0, -5e-324], [0.0, 5e-324]]))
# one value repeated across rows, in a float and in a word column
@example((("x", "w"), [[0.1, "plus"], [0.1, "plus"], [2.0, "minus"], [0.1, "plus"]]))
@example((("z%s", "a%%", "m\u00e9"), [[1.0, 'x%s "\u00e9\\', -0.0]]))
def test_render_matches_the_plain_encoders(table):
    header, rows = table
    for fmt in ("json", "csv"):
        cells = tables.cells("drawn", columns_of(header, rows), fmt)
        assert tables.render(header, cells, fmt) == oracle(header, rows, fmt)


def test_cells_rejects_non_finite_values():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="^drawn export has non-finite values"):
            tables.cells("drawn", [np.array(["plus"], dtype=object), np.array([1.0, bad])], "csv")


def test_render_of_no_rows():
    assert tables.render(tables.TEXTURE_HEADER, iter([]), "json") == "[]\n"
    assert tables.render(tables.TEXTURE_HEADER, iter([]), "csv") == \
        "branch,gamma,p1,p2,v1,v2,v3\n"
