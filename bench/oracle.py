"""Output checks for the benchmark workloads.

Each check recomputes what it can independently of the library: registry
sample counts from the configuration, the closed-form eigenvalues
lambda_pm = (p^2 + beta^2)/2 +- beta|p| vectorized over the exported grid,
and the grid itself.  Every check returns the problems it found; an empty
result means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

SPECTRUM_HEADER = ("gamma", "beta", "p1", "p2",
                   "lambda_plus", "lambda_minus", "phi_plus", "phi_minus")
TEXTURE_HEADER = ("branch", "gamma", "p1", "p2", "v1", "v2", "v3")

# Sample count each registry check reports, as the check loops are written:
# S = samples, G = number of gamma values, G0 = nonzero gammas among them,
# B = nonzero betas.
EXPECTED_SAMPLES = {
    "clifford.matrix_homomorphism": lambda S, G, G0, B: S,
    "clifford.involutions": lambda S, G, G0, B: S,
    "clifford.deformed_relations": lambda S, G, G0, B: G,
    "clifford.even_subalgebra": lambda S, G, G0, B: G,
    "clifford.reversed_generators": lambda S, G, G0, B: G,
    "biortho.gram_identity": lambda S, G, G0, B: S,
    "biortho.generator_synthesis": lambda S, G, G0, B: G,
    "momenta.linearization_relations": lambda S, G, G0, B: 1,
    "momenta.factorization": lambda S, G, G0, B: S,
    "momenta.rashba_product_form": lambda S, G, G0, B: S,
    "momenta.isospectrality": lambda S, G, G0, B: S,
    "momenta.levy_leblond_system": lambda S, G, G0, B: 2 * G * B,
    "momenta.magnetic_consistency": lambda S, G, G0, B: S,
    "momenta.magnetic_trs_convention": lambda S, G, G0, B: 2 * max(S // 4, 5),
    "spectrum.eigen_identity": lambda S, G, G0, B: S,
    "spectrum.eigenvalue_oracle": lambda S, G, G0, B: S,
    "spectrum.biorthogonality": lambda S, G, G0, B: S,
    "spectrum.projectors": lambda S, G, G0, B: S,
    "spectrum.flip_relations": lambda S, G, G0, B: S,
    "spectrum.diagonal_momentum_angles": lambda S, G, G0, B: 2 * G,
    "spectrum.isospectral_pairs_generic": lambda S, G, G0, B: S,
    "spectrum.spin_vector_planar": lambda S, G, G0, B: S,
    "spectrum.associated_expectation": lambda S, G, G0, B: S,
    "spectrum.continuity": lambda S, G, G0, B: 2,
    "spectrum.gamma_zero_limit": lambda S, G, G0, B: B,
    "timereversal.antiunitarity": lambda S, G, G0, B: S,
    "timereversal.anti_involution": lambda S, G, G0, B: S,
    "timereversal.pseudo_hermiticity": lambda S, G, G0, B: S,
    "timereversal.kramers_analogue": lambda S, G, G0, B: S,
    "timereversal.noncommutation_witness": lambda S, G, G0, B: G0 * B + B,
    "timereversal.reversed_schrodinger": lambda S, G, G0, B: min(G, 3) * min(B, 2),
    "ideal.basis_reproduction": lambda S, G, G0, B: G + 10,
    "ideal.left_ideal_closure": lambda S, G, G0, B: S,
    "ideal.flip_consistency": lambda S, G, G0, B: S,
    "ideal.inner_products": lambda S, G, G0, B: S,
    "ideal.invariance_groups": lambda S, G, G0, B: S,
    "susy.algebra": lambda S, G, G0, B: S,
    "susy.pseudo_susy": lambda S, G, G0, B: S,
    "susy.sector_pairing": lambda S, G, G0, B: S // 2 + 1,
}
CHECK_IDS = tuple(EXPECTED_SAMPLES)


def expected_samples(inputs: dict) -> dict[str, int]:
    gammas = inputs["gamma_values"]
    betas = [b for b in inputs["beta_values"] if b != 0.0]
    args = (inputs["samples"], len(gammas), sum(1 for g in gammas if g != 0.0), len(betas))
    return {tid: fn(*args) for tid, fn in EXPECTED_SAMPLES.items()}


def check_entries(entries, inputs: dict) -> dict[str, list[str]]:
    """Problems per check id, for registry entries given as (test_id,
    status, max_residual, samples) tuples.  A non-finite residual fails
    whatever the status says; a missing or unknown id is a problem too."""
    want = expected_samples(inputs)
    problems: dict[str, list[str]] = {}
    for test_id, status, residual, samples in entries:
        found = []
        if status != "pass":
            found.append(f"status {status}")
        if not math.isfinite(residual):
            found.append(f"non-finite residual {residual}")
        if test_id not in want:
            found.append("unknown check id")
        elif samples != want[test_id]:
            found.append(f"{samples} samples, expected {want[test_id]}")
        if found:
            problems[test_id] = found
    seen = {e[0] for e in entries}
    for test_id in CHECK_IDS:
        if test_id not in seen:
            problems[test_id] = ["missing from the report"]
    return problems


def check_summary_line(text: str) -> list[str]:
    n = len(CHECK_IDS)
    if any(line.startswith(f"{n}/{n} checks passed") for line in text.splitlines()):
        return []
    return [f"no '{n}/{n} checks passed' line"]


def grid_points(inputs: dict) -> np.ndarray:
    """The momentum grid of the exporters, origin excluded, as (N, 2)."""
    n = inputs["grid_points"]
    p1 = np.linspace(*inputs["p1_range"], n)
    p2 = np.linspace(*inputs["p2_range"], n)
    pts = np.stack(np.meshgrid(p1, p2, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-9]


def expected_rows(inputs: dict) -> dict[str, int]:
    npts = len(grid_points(inputs))
    nb = sum(1 for b in inputs["beta_values"] if b != 0.0)
    ng = len(inputs["gamma_values"])
    return {"spectrum": ng * nb * npts, "texture": 2 * ng * npts}


def _parse(text: str, fmt: str, header) -> tuple[tuple, list[tuple]]:
    """(header, rows) of one export; raises ValueError if it does not parse."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise ValueError("empty CSV")
        return tuple(rows[0]), [tuple(r) for r in rows[1:]]
    payload = json.loads(text)
    if not isinstance(payload, list) or any(
            not isinstance(r, dict) or set(r) != set(header) for r in payload):
        raise ValueError("JSON export is not a list of rows keyed by the header")
    return header, [tuple(r[k] for k in header) for r in payload]


def _lambda_problems(cols: np.ndarray) -> list[str]:
    beta, p1, p2, lp, lm = cols[:, 1], cols[:, 2], cols[:, 3], cols[:, 4], cols[:, 5]
    p_abs = np.hypot(p1, p2)
    base = 0.5 * (p_abs ** 2 + beta ** 2)
    want_p, want_m = base + beta * p_abs, base - beta * p_abs
    tol = 1e-12 * (1.0 + np.abs(base) + np.abs(beta * p_abs))
    worst = max(float(np.max(np.abs(lp - want_p) / tol, initial=0.0)),
                float(np.max(np.abs(lm - want_m) / tol, initial=0.0)))
    if not np.all(np.isfinite(cols)) or not worst <= 1.0:
        return [f"lambda_pm differ from (p^2+beta^2)/2 +- beta|p| "
                f"({worst:.3g} x tolerance)"]
    return []


def check_export(table: str, fmt: str, text: str, inputs: dict) -> list[str]:
    """Parse one exported table and check its rows against the inputs."""
    header = SPECTRUM_HEADER if table == "spectrum" else TEXTURE_HEADER
    try:
        got_header, rows = _parse(text, fmt, header)
    except ValueError as exc:
        return [f"{table}.{fmt}: does not parse ({exc})"]
    if got_header != header:
        return [f"{table}.{fmt}: header {got_header}"]
    want = expected_rows(inputs)[table]
    if len(rows) != want:
        return [f"{table}.{fmt}: {len(rows)} rows, expected {want}"]
    try:
        return [f"{table}.{fmt}: {p}" for p in _row_problems(table, rows, inputs)]
    except ValueError as exc:
        return [f"{table}.{fmt}: non-numeric cell ({exc})"]


def _row_problems(table: str, rows: list[tuple], inputs: dict) -> list[str]:
    problems = []
    pts = grid_points(inputs)
    if table == "spectrum":
        cols = np.array(rows, dtype=float)
        combos = [(g, b) for g in inputs["gamma_values"]
                  for b in inputs["beta_values"] if b != 0.0]
        want_gb = np.repeat(np.array(combos), len(pts), axis=0)
        want_p = np.tile(pts, (len(combos), 1))
        if not (np.array_equal(cols[:, :2], want_gb) and np.array_equal(cols[:, 2:4], want_p)):
            problems.append("(gamma, beta, p) columns do not match the grid")
        problems += _lambda_problems(cols)
    else:
        branches = [r[0] for r in rows]
        if branches != ["plus", "minus"] * (len(rows) // 2):
            problems.append("branch column is not plus/minus pairs")
        cols = np.array([r[1:] for r in rows], dtype=float)
        want_p = np.repeat(np.tile(pts, (len(inputs["gamma_values"]), 1)), 2, axis=0)
        if not np.array_equal(cols[:, 1:3], want_p):
            problems.append("momentum columns do not match the grid")
        if not np.all(np.isfinite(cols)):
            problems.append("non-finite spin vector")
    return problems
