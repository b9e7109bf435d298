"""Tabular exporters: spectrum sweeps and spin-texture fields.

Each export evaluates its closed forms once over the stacked (gamma, beta,
grid) arrays; rows are plain floats ordered gamma, beta, p1, p2, branch.
``_table`` is the single finiteness guard: an export with a NaN or inf
raises there, before any row is written.

``render`` writes every row through one %-template built once per table.
CSV floats are written with 17 significant digits, which round-trips
doubles.  JSON is byte-identical to ``json.dumps(rows_as_dicts, indent=2,
sort_keys=True)``: the sorted, encoded keys and the indentation are literal
text in the template, floats go through ``float.__repr__`` and words
through ``json``'s own string encoder, as ``json`` itself does.  So
``render`` takes finite floats and words only, one kind per column.
"""

from __future__ import annotations

from itertools import chain, cycle
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter

import numpy as np

from .. import spectrum
from .config import SuiteConfig

SPECTRUM_HEADER = ("gamma", "beta", "p1", "p2",
                   "lambda_plus", "lambda_minus", "phi_plus", "phi_minus")
TEXTURE_HEADER = ("branch", "gamma", "p1", "p2", "v1", "v2", "v3")


def _grid(cfg: SuiteConfig) -> np.ndarray:
    """Momentum grid over the configured ranges as (N, 2), p1 outer,
    skipping the origin."""
    p1s = np.linspace(*cfg.p1_range, cfg.grid_points)
    p2s = np.linspace(*cfg.p2_range, cfg.grid_points)
    pts = np.stack(np.meshgrid(p1s, p2s, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-9]


def _table(name: str, *columns) -> list[list[float]]:
    """One row per element of the broadcast columns; ValueError if any
    value is not finite."""
    cols = np.stack(np.broadcast_arrays(*columns), axis=-1)
    if not np.isfinite(cols).all():
        raise ValueError(f"{name} export has non-finite values "
                         "(momenta or beta too large for double precision)")
    return cols.reshape(-1, len(columns)).tolist()


def spectrum_rows(cfg: SuiteConfig) -> list[list[float]]:
    gammas = np.array(cfg.gamma_values)[:, None, None]
    betas = np.array(cfg.nonzero_betas())[None, :, None]
    pts = _grid(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        return _table("spectrum", gammas, betas, pts[:, 0], pts[:, 1],
                      *spectrum.eigenvalues(betas, pts), *spectrum.phi_angles(gammas, pts))


def texture_rows(cfg: SuiteConfig) -> list[list]:
    cfg.nonzero_betas()    # the texture needs a split spectrum, not beta itself
    gammas = np.array(cfg.gamma_values)[:, None]
    pts = _grid(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        amps = spectrum.eigen_amplitudes(*spectrum.phi_angles(gammas, pts))
        spins = spectrum.spin_expectations(amps[..., :2, :])    # (G, N, 2, 3)
        rows = _table("texture", gammas[..., None], pts[:, :1], pts[:, 1:],
                      spins[..., 0], spins[..., 1], spins[..., 2])
    return [[branch, *row] for branch, row in zip(cycle(("plus", "minus")), rows)]


def render(header, rows, fmt: str) -> str:
    """Rows (any iterable of sequences of finite floats and words, one kind
    per column, as the first row shows) as CSV or JSON."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format: {fmt!r}")
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return ",".join(header) + "\n" if fmt == "csv" else "[]\n"
    rows = chain((first,), rows)
    words = [isinstance(c, str) for c in first]
    if fmt == "csv":
        template = ",".join(["%s" if w else "%.17g" for w in words])
        return "\n".join([",".join(header), *[template % tuple(r) for r in rows], ""])
    order = sorted(range(len(header)), key=header.__getitem__)
    template = "  {\n%s\n  }" % ",\n".join([
        "    %s: %s" % (_json_str(header[i]).replace("%", "%%"), "%s" if words[i] else "%r")
        for i in order])
    pick = itemgetter(*order)
    encoded = [i for i in order if words[i]]

    def encode_words(row):
        row = list(row)
        for i in encoded:
            row[i] = _json_str(row[i])
        return pick(row)
    cells = encode_words if encoded else pick
    return "[\n%s\n]\n" % ",\n".join([template % cells(r) for r in rows])
