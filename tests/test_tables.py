"""The exporters' row contract: row counts per configuration, and
``render`` consuming a one-shot iterable exactly like a list."""

import numpy as np
import pytest

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
