"""Tabular exporters: spectrum sweeps and spin-texture fields.

Each export evaluates its closed forms once over the stacked (gamma, beta,
grid) arrays; rows are plain floats ordered gamma, beta, p1, p2, branch.
Floats are written with 17 significant digits, which round-trips doubles.
"""

from __future__ import annotations

import json

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
    for i, row in enumerate(rows):
        row.insert(0, ("plus", "minus")[i % 2])
    return rows


def render(header, rows, fmt: str) -> str:
    """Rows (any iterable of float and plain-word sequences) as CSV or JSON."""
    if fmt == "csv":
        lines = [",".join([c if isinstance(c, str) else format(c, ".17g") for c in row])
                 for row in rows]
        return "\n".join([",".join(header), *lines, ""])
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown format: {fmt!r}")
