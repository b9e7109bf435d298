"""Tabular exporters: spectrum sweeps and spin-texture fields.

Each export evaluates its closed forms once over the stacked (gamma, beta,
grid) arrays and returns the table's columns, which broadcast to one row
per element in the order gamma, beta, p1, p2, branch.  ``cells`` turns the
columns into rows of text.  It is the single finiteness guard: an export
with a NaN or inf raises there, before any row is written.  It formats each
distinct value of a column once, telling values apart by their bits so that
0.0 and -0.0 stay apart: CSV floats with 17 significant digits, which
round-trips doubles; JSON floats through ``float.__repr__`` and words
through ``json``'s own string encoder, as ``json`` itself does.

``render`` only lays the text out, through one %-template built once per
table.  Its JSON is byte-identical to ``json.dumps(rows_as_dicts, indent=2,
sort_keys=True)``: the sorted, encoded keys and the indentation are literal
text in the template.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter

import numpy as np

from .. import spectrum
from .config import SuiteConfig

SPECTRUM_HEADER = ("gamma", "beta", "p1", "p2",
                   "lambda_plus", "lambda_minus", "phi_plus", "phi_minus")
TEXTURE_HEADER = ("branch", "gamma", "p1", "p2", "v1", "v2", "v3")
BRANCHES = np.array(["plus", "minus"])


def _grid(cfg: SuiteConfig) -> np.ndarray:
    """Momentum grid over the configured ranges as (N, 2), p1 outer,
    skipping the origin."""
    p1s = np.linspace(*cfg.p1_range, cfg.grid_points)
    p2s = np.linspace(*cfg.p2_range, cfg.grid_points)
    pts = np.stack(np.meshgrid(p1s, p2s, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-9]


def spectrum_columns(cfg: SuiteConfig) -> tuple[np.ndarray, ...]:
    gammas = np.array(cfg.gamma_values)[:, None, None]
    betas = np.array(cfg.nonzero_betas())[None, :, None]
    pts = _grid(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        return (gammas, betas, pts[:, 0], pts[:, 1],
                *spectrum.eigenvalues(betas, pts), *spectrum.phi_angles(gammas, pts))


def texture_columns(cfg: SuiteConfig) -> tuple[np.ndarray, ...]:
    gammas = np.array(cfg.gamma_values)[:, None]
    pts = _grid(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        amps = spectrum.eigen_amplitudes(*spectrum.phi_angles(gammas, pts))
        spins = spectrum.spin_expectations(amps[..., :2, :])    # (G, N, 2, 3)
    return (BRANCHES, gammas[..., None], pts[:, :1], pts[:, 1:], *np.moveaxis(spins, -1, 0))


def cells(name: str, columns, fmt: str):
    """Rows of text, one per element of the broadcast columns (float64 or
    word arrays), for ``render`` in format ``fmt``; ValueError if any float
    is not finite."""
    columns = [np.asarray(c) for c in columns]
    if not all(np.isfinite(c).all() for c in columns if c.dtype.kind == "f"):
        raise ValueError(f"{name} export has non-finite values "
                         "(momenta or beta too large for double precision)")
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    number, word = (float.__repr__, _json_str) if fmt == "json" else ("%.17g".__mod__, str)
    text = []
    for c in columns:
        floats = c.dtype.kind == "f"
        keys, inverse = np.unique((c.view(np.int64) if floats else c).ravel(),
                                  return_inverse=True)
        keys = (keys.view(np.float64) if floats else keys).tolist()
        strings = np.array(list(map(number if floats else word, keys)), dtype=object)
        text.append(strings[np.broadcast_to(inverse.reshape(c.shape), shape)].ravel().tolist())
    return zip(*text)


def render(header, rows, fmt: str) -> str:
    """Rows of text cells (any iterable, read once) laid out as CSV or JSON."""
    if fmt == "csv":
        return "\n".join([",".join(header), *map(",".join, rows), ""])
    if fmt != "json":
        raise ValueError(f"unknown format: {fmt!r}")
    order = sorted(range(len(header)), key=header.__getitem__)
    template = "  {\n%s\n  }" % ",\n".join(
        ["    %s: %%s" % _json_str(header[i]).replace("%", "%%") for i in order])
    pick = itemgetter(*order)
    body = ",\n".join([template % pick(r) for r in rows])
    return "[\n%s\n]\n" % body if body else "[]\n"
