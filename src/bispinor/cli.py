"""Command line front-end.

Subcommands:
  verify    run the full check registry, print one line per check
  report    run the checks and write the machine-readable report
  spectrum  export the eigenvalue sweep as CSV/JSON
  texture   export the spin-texture field as CSV/JSON

Exit codes: 0 success, 1 at least one check failed, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys

from .harness.checks import run_all
from .harness.config import ConfigError, SuiteConfig
from .harness import tables


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"not a comma-separated float list: {text!r}") from None


def _parse_grid(text: str):
    """Grid spec 'lo:hi:n' shared by both momentum axes, or
    'lo:hi:n,lo:hi:n' for separate ranges with the same point count."""
    axes = text.split(",")
    if len(axes) == 1:
        axes = [axes[0], axes[0]]
    if len(axes) != 2:
        raise ConfigError(f"bad grid spec: {text!r}")
    out = []
    points = []
    for axis in axes:
        parts = axis.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad grid axis (need lo:hi:n): {axis!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"bad grid axis: {axis!r}") from None
        out.append((lo, hi))
        points.append(n)
    if points[0] != points[1]:
        raise ConfigError(f"grid axes need the same point count: {text!r}")
    return out[0], out[1], points[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bispinor",
        description="Verification harness for the deformed Clifford/Rashba model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "report", "spectrum", "texture"):
        p = sub.add_parser(name)
        p.add_argument("--gamma", default=None,
                       help="comma-separated deformation values in (-1, 1)")
        p.add_argument("--beta", default=None,
                       help="comma-separated Rashba coefficients")
        p.add_argument("--grid", default=None,
                       help="momentum grid 'lo:hi:n' or 'lo:hi:n,lo:hi:n'")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default=None)
    return parser


def config_from_args(args) -> SuiteConfig:
    kwargs = {}
    if args.gamma is not None:
        kwargs["gamma_values"] = _parse_floats(args.gamma)
    if args.beta is not None:
        kwargs["beta_values"] = _parse_floats(args.beta)
    if args.grid is not None:
        p1r, p2r, n = _parse_grid(args.grid)
        kwargs["p1_range"] = p1r
        kwargs["p2_range"] = p2r
        kwargs["grid_points"] = n
    if args.samples is not None:
        kwargs["samples"] = args.samples
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.tol is not None:
        kwargs["tolerance"] = args.tol
    if args.out is not None:
        kwargs["output_path"] = args.out
    if args.fmt is not None:
        kwargs["fmt"] = args.fmt
    return SuiteConfig(**kwargs)


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command in ("verify", "report"):
            report = run_all(cfg)
            sys.stdout.write(report.to_text())
            if cfg.output_path:
                report.write(cfg.output_path)
            return 0 if report.all_passed else 1
        if args.command == "spectrum":
            text = tables.render(tables.SPECTRUM_HEADER,
                                 tables.spectrum_rows(cfg), cfg.fmt)
            _write_or_print(text, cfg.output_path)
            return 0
        if args.command == "texture":
            text = tables.render(tables.TEXTURE_HEADER,
                                 tables.texture_rows(cfg), cfg.fmt)
            _write_or_print(text, cfg.output_path)
            return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
