"""Command-line front end: sweeps, searches, density grids, verification.

Four subcommands share a small flag grammar:

* ``sweep``    — vary one family parameter over a range, tabulate moments.
* ``search``   — multi-start L-BFGS-B search for the largest F = R - n over a
  family's box.
* ``density``  — sample the energy density on a spacetime grid and report the
  refined minimum.
* ``verify``   — randomized closed-form-vs-oracle comparison plus the fixed
  matrix-element identity checks.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 numeric
failure (an array too large to allocate among them); an output that cannot
be written (a closed pipe, a full disk, a bad ``--out`` path) is a usage
error, its path or stream chosen like a flag.
Output is CSV (default) or a single JSON document; identical flags and seeds
give byte-identical output on one numpy build and SIMD dispatch target.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import shutil
import stat
import sys
import tempfile
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import energy_density as ed
from . import state_families as sf
from . import verification
from .optimizer import GRAD_TOL, MAX_ITERS, multi_start

__all__ = ["main", "parse_real", "FAMILY_NAMES", "SEARCH_FAMILY_NAMES"]


class UsageError(Exception):
    """Bad flag values detected after argparse (unknown key, bad range...)."""


def parse_real(text: str) -> float:
    """Parse a finite real number, allowing a trailing ``pi`` (``0.99pi``, ``-pi``)."""
    s, factor = text.strip(), 1.0
    if s.lower().endswith("pi"):
        s, factor = s[:-2].strip(), math.pi
        s = {"": "1", "+": "1", "-": "-1"}.get(s, s)
    try:
        value = float(s) * factor
    except ValueError:
        raise UsageError(f"cannot parse number {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"number must be finite, got {text!r}")
    return value


FAMILY_NAMES: tuple[str, ...] = tuple(sf.REGISTRY)
SEARCH_FAMILY_NAMES: tuple[str, ...] = tuple(sf.SEARCHES)


# --------------------------------------------------------------------------
# Flag parsing helpers
# --------------------------------------------------------------------------


def _check_domain(family: sf.Family, key: str, values: Sequence[float]) -> None:
    low, values = family.domain.get(key), np.asarray(values)
    if low is not None and not np.all(values >= low):
        raise UsageError(f"parameter {key} must be >= {low:g}, got {values[~(values >= low)][0]:g}")


def _check_key(family: sf.Family, key: str, what: str) -> str:
    key = key.strip()
    if key not in family.defaults:
        raise UsageError(f"unknown {what} {key!r}; valid keys: {', '.join(family.defaults) or '(none)'}")
    return key


def _parse_assignments(family: sf.Family, pairs: Sequence[str]) -> dict[str, float]:
    params = dict(family.defaults)
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key = _check_key(family, key, "parameter")
        params[key] = parse_real(value)
        _check_domain(family, key, [params[key]])
    return params


def _parse_sweep(family: sf.Family, text: str) -> tuple[str, np.ndarray]:
    key, sep, rng = text.partition("=")
    if not sep:
        raise UsageError(f"--sweep expects key=lo:hi:steps, got {text!r}")
    key = _check_key(family, key, "sweep parameter")
    parts = rng.split(":")
    if len(parts) != 3:
        raise UsageError(f"--sweep range must be lo:hi:steps, got {rng!r}")
    lo, hi = parse_real(parts[0]), parse_real(parts[1])
    try:
        steps = int(parts[2])
    except ValueError:
        raise UsageError(f"sweep steps must be an integer, got {parts[2]!r}") from None
    if steps < 1:
        raise UsageError("sweep steps must be >= 1")
    values = np.linspace(lo, hi, steps + 1)
    _check_domain(family, key, values)
    return key, values


def _parse_geometry(text: str) -> ed.ModeGeometry:
    parts = text.split(":")
    if len(parts) != 4:
        raise UsageError(f"--geometry expects kind:omega1:omega2:cosangle, got {text!r}")
    try:
        return ed.ModeGeometry(parts[0].strip(), *map(parse_real, parts[1:]))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------


def _fmt(value: object) -> str:
    """Cell formatting: floats at 9 significant digits, bools lowercase."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _finite_or_null(value: object) -> object:
    """``value`` with every non-finite float inside it replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


#: Rows per sweep block: one closed-form batch, finiteness check and "%"
#: format each.  Smaller blocks hold less memory, but each batch has a fixed
#: cost (up to ~0.15 ms) that blocks of 1,024 rows already make visible.
SWEEP_BLOCK = 2048


#: How a streamed row writes a number, a text cell and an empty cell (one
#: that consumes its value), and what goes between two rows, per format.  A
#: JSON row is in ``json.dumps(..., indent=2)`` layout, where a finite float
#: prints as its repr.
_CELLS = {"csv": ("%.9g", "%s", "%.0s", ""), "json": ("%r", '"%s"', "null%.0s", ",\n")}


@contextlib.contextmanager
def _sink(path: str | None) -> Iterator[IO[str]]:
    """The file a command writes to, whose text reaches stdout or ``--out`` once complete.

    A new or regular ``--out`` file (the one a symlink names) is written to a
    temporary file beside it that replaces it, with its permission bits, once
    complete.  Stdout, or a device or pipe given as ``--out``, is sent the
    text of an anonymous temporary file once complete.  A command that fails
    midway, or a failed write, thus leaves no partial output and no file.
    """
    mode = os.stat(path).st_mode if path is not None and os.path.exists(path) else None
    if path is None or (mode is not None and not stat.S_ISREG(mode)):
        with contextlib.ExitStack() as stack:
            out = sys.stdout if path is None else stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
            spool = stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            yield spool
            spool.seek(0)
            try:
                shutil.copyfileobj(spool, out)
                out.flush()
            except OSError:
                if path is None:  # point the dead stdout at os.devnull, so the final flush raises nothing
                    with contextlib.suppress(AttributeError, ValueError, OSError), open(os.devnull, "wb") as null:
                        os.dup2(null.fileno(), sys.stdout.fileno())  # raises if stdout has no descriptor to point
                raise
        return
    real = os.path.realpath(path)
    tmp = f"{real}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, real)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write(args: argparse.Namespace, header: Sequence[str], rows: Iterable[Sequence[object]],
           seed: int | None, config: Mapping[str, object], blocks: Callable[..., Iterable[str]] | None = None,
           **body: object) -> None:
    """Emit CSV, or one JSON document (``body`` defaults to the rows).

    Output is written to :func:`_sink` as it is formatted.  A streaming
    command gives ``blocks(line, number, text, empty, sep)``: runs of rows,
    each row ``line`` (one "%s" per column of ``header``) filled with the
    format's cells from :data:`_CELLS` and its values, rows and runs joined by
    ``sep``; JSON puts them in the "rows" array after the command, seed and
    config.  Else CSV is ``rows`` cell by cell through :func:`_fmt`, and JSON
    the whole document through ``json.dumps``.  JSON writes a non-finite
    number (a NaN deviation of a failed check, say) as null; CSV prints it as
    ``nan``.  ``blocks`` may compute as they go: one that raises (a sweep's
    non-finite row) leaves no output, as a failed write does.
    """
    with _sink(args.out) as fh:
        if args.format == "json":
            if blocks is None and not body:
                body = {"rows": [dict(zip(header, row)) for row in rows]}
            doc = json.dumps(_finite_or_null({"command": args.command, "seed": seed, "config": config, **body}),
                             indent=2)
            if blocks is None:
                fh.write(doc + "\n")
                return
            fh.write(doc[: -len("\n}")] + ',\n  "rows": [\n')
            line, end = "    {\n" + ",\n".join(f'      "{key}": %s' for key in header) + "\n    }", "\n  ]\n}\n"
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            if blocks is None:
                writer.writerows([_fmt(cell) for cell in row] for row in rows)
                return
            line, end = ",".join(["%s"] * len(header)) + "\n", ""
        number, text, empty, sep = _CELLS[args.format]
        for i, block in enumerate(blocks(line, number, text, empty, sep)):
            if i:
                fh.write(sep)
            fh.write(block)
        fh.write(end)


# --------------------------------------------------------------------------
# Subcommand implementations
# --------------------------------------------------------------------------


def _cmd_sweep(args: argparse.Namespace) -> int:
    family = sf.REGISTRY[args.family]
    params = _parse_assignments(family, args.set or [])
    key, values = _parse_sweep(family, args.sweep)
    if any(item.partition("=")[0].strip() == key for item in args.set or []):
        raise UsageError(f"parameter {key} is both --set and swept")
    header = [key, *family.layout.columns]

    def blocks(line: str, number: str, text: str, empty: str, sep: str):
        # The parameter values are the sweep's only full-length array.  Each
        # block of rows is one closed-form batch (a row's moments do not depend
        # on the batch), checked finite; a scalar f has no degenerate rows.  A
        # degenerate row prints its parameter value only.
        full, bare = line % ((number,) * len(header)), line % (number, *[empty] * (len(header) - 1))
        for start in range(0, len(values), SWEEP_BLOCK):
            block = values[start : start + SWEEP_BLOCK]
            m = family.moments(family.record({**params, key: block}))
            with np.errstate(all="ignore"):  # a cell derived from overflowing moments is caught below
                table = np.column_stack(np.broadcast_arrays(block, *family.layout.cells(m)))
            degenerate = np.broadcast_to(getattr(m, "degenerate", False), block.shape)
            overflow = ~degenerate & ~np.isfinite(table[:, 1:]).all(axis=1)
            if overflow.any():
                raise FloatingPointError(f"non-finite result at {key}={block[overflow.argmax()]:.9g}")
            yield sep.join([bare if flag else full for flag in degenerate.tolist()]) % tuple(table.ravel().tolist())

    sweep = {"key": key, "lo": float(values[0]), "hi": float(values[-1]), "steps": len(values) - 1}
    _write(args, header, (), None, {"family": args.family, "sweep": sweep, "params": params}, blocks)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.starts < 1:
        raise UsageError("--starts must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    _, view = sf.SEARCHES[args.family]
    report = multi_start(view, args.starts, args.seed)

    columns = ["members", "iterations", "converged", "grad_norm", "F", "n", "R", "gamma"]
    header = ["rank", *columns, *view.names]
    ranked = list(enumerate(report.extrema, start=1))
    rows = [[rank, *(getattr(ext, c) for c in columns), *ext.params] for rank, ext in ranked]
    config = {"family": args.family, "starts": args.starts, "grad_tol": GRAD_TOL, "max_iters": MAX_ITERS}
    json_keys = ("F", "n", "R", "gamma", "grad_norm", "iterations", "converged", "members")
    extrema = [
        {"rank": rank, "params": dict(zip(view.names, ext.params)), **{k: getattr(ext, k) for k in json_keys}}
        for rank, ext in ranked
    ]
    _write(args, header, rows, args.seed, config, extrema=extrema, failed_starts=report.failed_starts)
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    family = sf.REGISTRY[args.family]
    params = _parse_assignments(family, args.set or [])
    geometry = _parse_geometry(args.geometry)
    if args.grid_n < 16:
        raise UsageError("--grid-n must be at least 16")
    if not 0 < args.window < math.inf:
        raise UsageError("--window must be positive and finite")

    if family.layout is sf.SCALAR:
        raise UsageError("this family has no spatial density (scalar figure-of-merit only)")
    moments = sf.regular(family.moments(family.record(params)))
    profile = ed.density_profile(moments, geometry, args.window, args.grid_n)

    header = ["kind", "x1", "x2", "x3", "t", "rho"]
    pmin, vmin = profile.min_found

    def blocks(line: str, number: str, text: str, empty: str, sep: str):
        # One block of row text per t, then the min row.  Every t block
        # repeats the spatial points: their cells are formatted once, "\0"
        # standing for t.
        sample = line % (text % "sample", number, number, number, "\0", "%" + number)
        spatial = sep.join([sample] * len(profile.space)) % tuple(profile.space.ravel().tolist())
        for t, rho in zip(profile.t.tolist(), profile.slabs()):
            yield spatial.replace("\0", number % t) % tuple(rho.tolist())
        yield line % (text % "min", *[number] * 5) % (*pmin.x, pmin.t, vmin)

    geo = {"kind": geometry.kind, "omega1": geometry.omega1, "omega2": geometry.omega2,
           "cosangle": geometry.cosangle + 0.0}  # + 0.0 prints -0 as 0
    config = {"family": args.family, "params": params, "geometry": geo,
              "window": args.window, "grid_n": args.grid_n}
    _write(args, header, (), None, config, blocks)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.draws < 0 or args.seed < 0:
        raise UsageError("--draws and --seed must be >= 0")
    if args.cutoff < 1:
        raise UsageError("--cutoff must be >= 1")
    # a repeated --family is verified once, where it first appears
    families = tuple(dict.fromkeys(args.family)) if args.family else verification.FAMILIES
    reports = [verification.verify_family(f, args.draws, args.seed, args.cutoff) for f in families]
    identities = verification.appendix_identity_report(cutoff_cap=args.cutoff) if args.draws > 0 else []

    header = ["kind", "name", "detail", "deviation", "tolerance", "tail_bound", "passed", "note"]
    rows: list[list[object]] = []
    failed = False
    for rep in reports:
        worst = "; ".join(f"{k}={v:.9g}" for k, v in rep.worst_params.items())
        rows.append(["family", rep.family, f"draws={rep.draws}", rep.max_abs_deviation, rep.tolerance,
                     rep.tail_bound, rep.passed, worst])
        failed = failed or not rep.passed
    for row in identities:
        rows.append(["identity", row.name, f"r={row.r:g}", row.deviation, row.tolerance, None, row.passed, row.note])
        failed = failed or (row.required and not row.passed)

    _write(args, header, rows, args.seed, {"families": list(families), "draws": args.draws, "cutoff": args.cutoff})
    return 2 if failed else 0


# --------------------------------------------------------------------------
# Parser assembly
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser variant whose usage errors exit with status 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process: parsing leaves no state in it."""
    parser = _Parser(
        prog="subvacuum",
        description="Energy-density bounds of one- and two-mode scalar field states.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_sweep = sub.add_parser(
        "sweep",
        help="tabulate moments while one parameter varies",
        description="Vary one family parameter over lo..hi and tabulate n, R and F = R - n "
        "(two-mode families: occupations and all four channels, F = R1 - n1).",
    )
    p_sweep.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE", help="fix a parameter (repeatable)")
    p_sweep.add_argument("--sweep", required=True, metavar="KEY=LO:HI:STEPS", help="parameter to vary")
    _add_io_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_search = sub.add_parser(
        "search",
        help="multi-start search for the largest F = R - n",
        description="Run a seeded multi-start L-BFGS-B search for the largest F and list the clustered extrema.",
    )
    p_search.add_argument("--family", required=True, choices=SEARCH_FAMILY_NAMES)
    p_search.add_argument("--starts", type=int, default=64)
    p_search.add_argument("--seed", type=int, default=0)
    _add_io_flags(p_search)
    p_search.set_defaults(func=_cmd_search)

    p_density = sub.add_parser(
        "density",
        help="energy density on a spacetime grid",
        description="Sample the density over t and the wave-vector span, then refine and append "
        "the minimum found.  One-mode families occupy mode 1; mode 2 stays empty.",
    )
    p_density.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p_density.add_argument("--set", action="append", metavar="KEY=VALUE", help="fix a parameter (repeatable)")
    p_density.add_argument(
        "--geometry",
        default="traveling:1:1:1",
        metavar="KIND:W1:W2:COSANGLE",
        help="mode kind, frequencies and propagation angle (default traveling:1:1:1)",
    )
    p_density.add_argument("--window", type=float, default=8.0, help="scan window in t and space")
    p_density.add_argument("--grid-n", type=int, default=64, dest="grid_n", help="grid points per axis")
    _add_io_flags(p_density)
    p_density.set_defaults(func=_cmd_density)

    p_verify = sub.add_parser(
        "verify",
        help="closed forms vs the truncated number-basis oracle",
        description="Randomized moment comparison per family plus fixed matrix-element identity "
        "checks; exits 2 if any required row fails.",
    )
    p_verify.add_argument(
        "--family", action="append", choices=verification.FAMILIES, help="restrict to a family (repeatable)"
    )
    p_verify.add_argument("--draws", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--cutoff", type=int, default=verification.CUTOFF_CAP,
                          help="hard cap on the oracle truncation")
    _add_io_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"subvacuum {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, MemoryError) as exc:
        # ValueError covers truncation refusals and degenerate states;
        # ArithmeticError covers overflow, division by zero and non-finite rows;
        # MemoryError an array too large to allocate.
        print(f"subvacuum {args.command}: numeric failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except OSError as exc:  # writing the output is the only I/O a command does
        print(f"subvacuum {args.command}: cannot write {args.out or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
