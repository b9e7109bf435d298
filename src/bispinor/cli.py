"""Command line front-end.

Subcommands:
  verify    run the full check registry, print one line per check; with
            --out also write the machine-readable JSON report
  spectrum  export the eigenvalue sweep as CSV/JSON (--format)
  texture   export the spin-texture field as CSV/JSON (--format)

Exit codes: 0 success, 1 at least one check failed, 2 usage/config error
(an export too large to allocate included).
"""

from __future__ import annotations

import argparse
import sys

from .harness.config import ConfigError, SuiteConfig


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
    for name in ("verify", "spectrum", "texture"):
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
        if name in ("spectrum", "texture"):
            p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                           default="csv")
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
        if args.command == "verify":
            from .harness.checks import run_all     # the registry loads only here
            report = run_all(cfg)
            sys.stdout.write(report.to_text())
            if args.out:
                _write_or_print(report.to_json(), args.out)
            return 0 if report.all_passed else 1
        from .harness import tables                 # numpy loads only for valid work
        header, columns = {"spectrum": (tables.SPECTRUM_HEADER, tables.spectrum_columns),
                           "texture": (tables.TEXTURE_HEADER, tables.texture_columns)}[args.command]
        rows = tables.cells(args.command, columns(cfg), args.fmt)
        _write_or_print(tables.render(header, rows, args.fmt), args.out)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
