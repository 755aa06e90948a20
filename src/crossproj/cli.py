"""Command-line front end.

Subcommands: ``project`` (one projection, JSON/CSV/plain output),
``family`` (enumerate the set-valued degenerate family as CSV), ``check``
(invariant battery over seeded random inputs), and ``solve``
(feasibility solver runs with CSV traces).

Exit codes are stable contracts:

* 0 -- success (all checks passed / solver converged)
* 1 -- an invariant failed in ``check``
* 2 -- parse error: a bad flag or ``CROSSPROJ_SEED``, an integer flag among
  them (``--count``, ``--max-iter``, a ``--dims`` item or ``--generate``'s
  DIM below 1, ``--trials``, ``--seed`` or ``--generate``'s SEED below 0,
  or any value that is not an optional sign and ASCII digits, each read
  by the library's one integer rule and reported as "expected an integer
  >= k"), an empty item in a comma-separated list (``1,,2``), a
  coordinate or a real flag's value (``--tol``, ``--tol-orth``,
  ``--tol-deg``, reported as "expected a number") that is not one number
  or has a digit separator (``1_0``), a file that is not UTF-8
  JSON, or a point file (``--input``) that breaks the field rule; also an
  output file (``--output``, ``--trace``, ``--summary``) that cannot be
  written
* 3 -- numeric-domain error raised while computing (non-finite inline
  coordinates, mismatched inline dimensions, a ``--start`` of the wrong
  dimension, a ``--tol`` that is not finite and > 0, an instance file
  (``--instance``) that breaks the field rule or its constraint's rules,
  a solver iterate that became non-finite, ...)
* 4 -- ``family`` invoked on an input that is not degenerate
* 5 -- solver exhausted max_iter without converging
* 141 -- the reader of stdout closed it early (``crossproj check | head -1``):
  the run ends quietly, as one ended by SIGPIPE would

All numbers in JSON and CSV output render with 17 significant digits, so
parsing them back reproduces the exact binary values; JSON writes a
non-finite number (an overflowed squared distance, say) as ``null``.
``CROSSPROJ_SEED`` provides the default seed wherever ``--seed`` is
accepted.  The field rule of both file kinds: ``dim`` is an integer >= 1,
an instance's ``seed`` an integer >= 0, both by the one integer rule, and
each vector a list of ``dim`` finite JSON numbers (not strings or bools).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .errors import CaseError, DimensionMismatch, DivergenceError, DomainError
from .errors import NotUnitNorm, SingularSystem
from .linalg import Pair, _int_at_least
from .oracle import MEMBERSHIP_TOL, check
from .projection import (
    DEFAULT_TOLS,
    SingletonProjection,
    Tolerances,
    _objective,
    family_samples,
    project,
)
from .solvers import _field, _numbers
from .solvers import (
    alternating_projections,
    default_start,
    douglas_rachford,
    generate_instance,
    instance_from_dict,
)


class PointFileError(Exception):
    """Malformed input document or unwritable output file; reported with its path (exit 2)."""


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _json_dumps(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits (lossless round-trip);
    a non-finite float, which JSON cannot hold, is written as ``null``."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(k))}: {_json_dumps(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float, str, bool, type(None))) for v in seq):
            return "[" + ", ".join(_json_dumps(v) for v in seq) + "]"
        rows = [f"{pad}  {_json_dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj) if math.isfinite(obj) else "null"
    return json.dumps(str(obj))


def _parse_coords(text: str) -> np.ndarray:
    try:
        if "_" in text:  # float() would read 1_0 as 10.0
            raise ValueError("'_' is not a digit")
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse coordinates {text!r}: {exc}")


def _parse_real(text: str) -> float:
    """The parser of a real flag value: one number by :func:`_parse_coords`' rule."""
    try:
        (value,) = _parse_coords(text)
    except (argparse.ArgumentTypeError, ValueError):  # not a number, or more than one
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    return float(value)


def _at_least(least: int):
    """The parser of an integer flag value: :func:`_int_at_least` on ``int(text)``,
    the rule of every integer argument and document field, for text that is an
    optional sign and ASCII digits (``int`` also takes blanks, ``_`` and other
    scripts' digits); anything else exits 2."""
    def parse(text: str) -> int:
        try:
            if not re.fullmatch(r"[+-]?[0-9]+", text):
                raise ValueError(text)
            return _int_at_least(int(text), "value", least)
        except (ValueError, DomainError):
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}") from None
    return parse


def _parse_dims(text: str) -> list[int]:
    return [_at_least(1)(tok) for tok in text.split(",")]


def _read_json(path: str):
    """The JSON value in the file at ``path``; failing to read or decode it is a parse error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise PointFileError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, over-long int, deep nesting
        raise PointFileError(f"cannot read {path}: {exc}")


def load_point_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a point document {dim, x0, y0} by the instance files' field rule (exit 2)."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise PointFileError(f"{path}: top-level value must be an object")
    try:
        dim = _int_at_least(_field(doc, "dim"), "field 'dim'")
        return _numbers(_field(doc, "x0"), "x0", dim), _numbers(_field(doc, "y0"), "y0", dim)
    except DomainError as exc:
        raise PointFileError(f"{path}: {exc}") from None


def _resolve_point(args) -> tuple[np.ndarray, np.ndarray]:
    inline = args.x0 is not None or args.y0 is not None
    if args.input is not None and inline:
        raise PointFileError("specify either --input or --x0/--y0, not both")
    if args.input is not None:
        return load_point_file(args.input)
    if args.x0 is None or args.y0 is None:
        raise PointFileError("provide --input FILE or both --x0 and --y0")
    return args.x0, args.y0


def _tols(args) -> Tolerances:
    return Tolerances(orth=args.tol_orth, deg=args.tol_deg)


def _emit(text: str, path: str | None = None) -> None:
    """``text`` as whole lines on stdout, or in the file at ``path``; every file the CLI writes."""
    text = text if text.endswith("\n") else text + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PointFileError(f"cannot write {path}: {exc}")


def result_document(res, x0, y0, tols: Tolerances) -> dict:
    singleton = isinstance(res, SingletonProjection)
    labels = ("unique",) if singleton else ("base", "alternate")
    points = [dict(selection=s, x=list(p.x), y=list(p.y)) for s, p in zip(labels, res.selections())]
    return {
        "schema": "crossproj/result/v1",
        "version": __version__,
        "case": res.tag.value,
        "set_valued": not singleton,
        "lambda": res.lam if singleton else None,
        "half_dist_sq": res.half_dist_sq,
        "dist_sq": 2.0 * res.half_dist_sq,
        "dist": res.dist,
        "tolerances": {"orth": tols.orth, "deg": tols.deg, "membership": MEMBERSHIP_TOL},
        "input": {"dim": int(len(x0)), "x0": list(x0), "y0": list(y0)},
        "points": points,
    }


def _result_csv(doc: dict) -> str:
    n = doc["input"]["dim"]
    head = ["case", "selection", "lambda", "half_dist_sq", "dist"]
    head += [f"x_{i}" for i in range(n)] + [f"y_{i}" for i in range(n)]
    lines = [",".join(head)]
    lam = "" if doc["lambda"] is None else _fmt(doc["lambda"])
    for p in doc["points"]:
        row = [doc["case"], p["selection"], lam, _fmt(doc["half_dist_sq"]), _fmt(doc["dist"])]
        row += [_fmt(v) for v in p["x"]] + [_fmt(v) for v in p["y"]]
        lines.append(",".join(row))
    return "\n".join(lines)


def _result_plain(doc: dict) -> str:
    lines = [
        f"case: {doc['case']}",
        f"lambda: {'-' if doc['lambda'] is None else _fmt(doc['lambda'])}",
        f"half_dist_sq: {_fmt(doc['half_dist_sq'])}",
        f"dist: {_fmt(doc['dist'])}",
    ]
    for p in doc["points"]:
        lines.append(
            f"point[{p['selection']}]: x = ({', '.join(_fmt(v) for v in p['x'])}); "
            f"y = ({', '.join(_fmt(v) for v in p['y'])})"
        )
    return "\n".join(lines)


def cmd_project(args) -> int:
    x0, y0 = _resolve_point(args)
    tols = _tols(args)
    res = project(x0, y0, tols)
    doc = result_document(res, x0, y0, tols)
    if args.format == "json":
        _emit(_json_dumps(doc), args.output)
    elif args.format == "csv":
        _emit(_result_csv(doc), args.output)
    else:
        _emit(_result_plain(doc), args.output)
    return 0


def cmd_family(args) -> int:
    x0, y0 = _resolve_point(args)
    tols = _tols(args)
    try:
        samples = family_samples(x0, y0, args.count, tols)
    except CaseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    n = len(x0)
    head = [f"u_{i}" for i in range(n)] + [f"x_{i}" for i in range(n)]
    head += [f"y_{i}" for i in range(n)] + ["objective"]
    lines = [",".join(head)]
    for u, point in samples:
        row = [_fmt(v) for v in u] + [_fmt(v) for v in point.x] + [_fmt(v) for v in point.y]
        with np.errstate(over="ignore"):  # an overflowed objective is written as inf
            row.append(_fmt(_objective(point, x0, y0)))
        lines.append(",".join(row))
    _emit("\n".join(lines), args.output)
    return 0


_CRAFTED_EPS = (1e-6, 1e-8, 1e-10)


def _crafted_inputs(rng: np.random.Generator, dim: int):
    """Edge-case battery: origin, orthogonal, both degenerate rays, near-degenerate."""
    zero = np.zeros(dim)
    yield zero, zero
    e1 = np.zeros(dim)
    e1[0] = 1.0
    if dim >= 2:
        e2 = np.zeros(dim)
        e2[1] = 1.0
        yield e1, e2
    else:
        yield e1, zero
    v = rng.uniform(0.5, 1.5, dim)
    yield v, v.copy()
    yield v, -v
    for eps in _CRAFTED_EPS:
        y = rng.uniform(-1.0, 1.0, dim)
        w = rng.standard_normal(dim)
        w /= np.linalg.norm(w)
        yield y + eps * w, y


def cmd_check(args) -> int:
    stats: dict[str, list] = {}
    failures = []
    total_inputs = 0
    for dim in args.dims:
        rng = np.random.default_rng([args.seed, dim])
        inputs = list(_crafted_inputs(rng, dim))
        inputs += [
            (rng.uniform(-1.0, 1.0, dim), rng.uniform(-1.0, 1.0, dim))
            for _ in range(args.trials)
        ]
        for trial, (x0, y0) in enumerate(inputs):
            total_inputs += 1
            rep = check(x0, y0, seed=int(rng.integers(0, 2**63)))
            for name, item in rep.items.items():
                entry = stats.setdefault(name, [0, 0, 0.0, item.tol])
                entry[1] += 1
                entry[2] = max(entry[2], item.residual)
                entry[3] = max(entry[3], item.tol)
                if item.passed:
                    entry[0] += 1
                else:
                    failures.append((dim, trial, name, x0, y0, item))
    width = max(len(name) for name in stats)
    print(f"checked {total_inputs} inputs over dims {args.dims} (seed {args.seed})")
    for name in sorted(stats):
        passed, total, worst, tol = stats[name]
        status = "ok " if passed == total else "FAIL"
        print(
            f"  [{status}] {name:<{width}}  {passed}/{total} pass"
            f"  max residual {worst:.3e}  (tol {tol:.1e})"
        )
    if failures:
        print(f"{len(failures)} failing input(s):")
        for dim, trial, name, x0, y0, item in failures[:20]:
            print(
                f"  dim={dim} trial={trial} check={name} "
                f"residual={item.residual:.6e} tol={item.tol:.1e}"
            )
            print(f"    x0 = [{', '.join(_fmt(v) for v in x0)}]")
            print(f"    y0 = [{', '.join(_fmt(v) for v in y0)}]")
        return 1
    return 0


def _parse_generate(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected KIND,DIM,SEED, e.g. orthant,2,0")
    return parts[0].strip(), _at_least(1)(parts[1]), _at_least(0)(parts[2])


def _parse_start(text: str) -> Pair:
    halves = text.split(";")
    if len(halves) != 2:
        raise argparse.ArgumentTypeError("expected --start 'x1,..,xn;y1,..,yn'")
    return Pair(_parse_coords(halves[0]), _parse_coords(halves[1]))


def cmd_solve(args) -> int:
    if (args.generate is None) == (args.instance is None):
        raise PointFileError("provide exactly one of --generate or --instance")
    if args.generate is not None:
        kind, dim, seed = args.generate
        problem, _ = generate_instance(kind, dim, seed)
    else:
        doc = _read_json(args.instance)
        problem, _ = instance_from_dict(doc)
        seed = _int_at_least(_field(doc, "seed"), "field 'seed'", 0) if "seed" in doc else args.seed

    start = args.start if args.start is not None else default_start(problem.kind, problem.dim, seed)

    runner = alternating_projections if args.method == "ap" else douglas_rachford
    # a non-finite iterate raises DivergenceError, so its overflow is not warned
    with np.errstate(over="ignore", invalid="ignore"):
        trace = runner(problem, start, max_iter=args.max_iter, tol=args.tol)

    if args.trace is not None:
        csv = io.StringIO()
        trace.write_csv(csv)
        _emit(csv.getvalue(), args.trace)

    summary = trace.summary()
    summary["schema"] = "crossproj/solve-summary/v2"
    summary["version"] = __version__
    summary["instance"] = {
        "kind": problem.kind,
        "dim": problem.dim,
        "seed": seed,
    }
    text = _json_dumps(summary)
    if args.summary is not None:
        _emit(text, args.summary)
    _emit(text)
    return 0 if trace.converged else 5


def _add_point_arguments(sub) -> None:
    sub.add_argument("--input", metavar="FILE", help="point document {dim, x0, y0}")
    sub.add_argument("--x0", type=_parse_coords, metavar="A,B,...", help="inline x0")
    sub.add_argument("--y0", type=_parse_coords, metavar="C,D,...", help="inline y0")
    sub.add_argument("--tol-orth", type=_parse_real, default=DEFAULT_TOLS.orth, dest="tol_orth")
    sub.add_argument("--tol-deg", type=_parse_real, default=DEFAULT_TOLS.deg, dest="tol_deg")
    sub.add_argument("--output", metavar="FILE", help="write result here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossproj",
        description="Exact projection onto the cross {(x, y) : <x, y> = 0}.",
    )
    parser.add_argument("--version", action="version", version=f"crossproj {__version__}")
    seed = os.environ.get("CROSSPROJ_SEED", "0")  # parsed like --seed when that is absent
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("project", help="project one point onto the cross")
    _add_point_arguments(p)
    p.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    p.set_defaults(func=cmd_project)

    p = subs.add_parser("family", help="enumerate the degenerate projection family")
    _add_point_arguments(p)
    p.add_argument("--count", type=_at_least(1), default=8)
    p.set_defaults(func=cmd_family)

    p = subs.add_parser("check", help="run the invariant battery on seeded inputs")
    p.add_argument("--dims", type=_parse_dims, default=[1, 2, 3, 4])
    p.add_argument("--trials", type=_at_least(0), default=100)
    p.add_argument("--seed", type=_at_least(0), default=seed)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("solve", help="run a feasibility solver on an instance")
    p.add_argument("--generate", type=_parse_generate, metavar="KIND,DIM,SEED")
    p.add_argument("--instance", metavar="FILE")
    p.add_argument("--method", choices=("ap", "dr"), default="ap")
    p.add_argument("--max-iter", type=_at_least(1), default=5000, dest="max_iter")
    p.add_argument("--tol", type=_parse_real, default=1e-8)
    p.add_argument("--start", type=_parse_start, metavar="X;Y")
    p.add_argument("--seed", type=_at_least(0), default=seed)
    p.add_argument("--trace", metavar="FILE", help="write the iterate trace CSV here")
    p.add_argument("--summary", metavar="FILE", help="also write the JSON summary here")
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PointFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (DomainError, DimensionMismatch, NotUnitNorm, SingularSystem, DivergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def app() -> None:
    try:
        status = main()
        sys.stdout.flush()  # so a closed reader shows here, not at exit
    except BrokenPipeError:
        # the reader closed stdout early: what is left goes to devnull, so the
        # flush at exit is quiet, and the run ends as SIGPIPE would end it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    app()
