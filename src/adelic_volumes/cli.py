"""Command line front end.

Subcommands mirror the library: avol, derivative, diskant, oracle, okounkov,
suite.  Scenes are JSON files (see scenes.py).  Output is JSON, except the
oracle table, which is CSV unless ``--format json``; checking subcommands
exit nonzero when a check fails, so they can sit in shell pipelines.  The
JSON is strict: a display float that does not fit a float (a volume past
the float range, say) is null, never NaN or Infinity.

Each subcommand imports only the modules it runs, as the package loads its
public names on first use: ``scenes`` is imported by the subcommands that
read a scene file and ``sections`` by ``oracle`` and ``okounkov`` alone, so
a cold ``avol``, ``derivative``, ``diskant`` or ``suite`` run never
compiles the counting oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .errors import AdelicVolumesError
from .exactnum import ExactNumber, scalar_float
from .harness import check_differentiability, diskant_report, run_suite, suite_names
from .positivity import avol


def _scalar_json(x) -> dict:
    return {"exact": x, "float": scalar_float(x)}


def _strict(value):
    """The payload with every non-finite float as None and every exact
    value (a Fraction or an ExactNumber) as its string."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (Fraction, ExactNumber)):
        return str(value)
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _emit(payload: dict) -> None:
    """Print the payload as strict JSON.  An exact value may hold integers
    of more than the 4,300 digits Python converts to str by default, so the
    limit is lifted while the payload is formatted, and only then: scene
    files are parsed under it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(_strict(payload), indent=2, allow_nan=False)
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)


def _load_scenes(*paths) -> list:
    """The scenes at the given paths, each distinct path loaded (and its
    base labels checked) once."""
    from .scenes import load_scene

    loaded = {}
    for path in paths:
        if path not in loaded:
            loaded[path] = load_scene(path)
    return [loaded[path] for path in paths]


def _cmd_avol(args) -> int:
    pair, = _load_scenes(args.scene)
    value = avol(pair)
    _emit({"avol": _scalar_json(value)})
    return 0


def _cmd_derivative(args) -> int:
    pair, direction = _load_scenes(args.scene, args.direction)
    if not direction.base.is_zero:
        raise ValueError(
            f"{args.direction}: a direction is a divisor; drop its \"base\""
        )
    report = check_differentiability(pair, direction)
    table = []
    for row in report.table:
        table.append({
            "h": row.h,
            "forward": _scalar_json(row.forward),
            "backward": _scalar_json(row.backward),
            "central": _scalar_json(row.central),
        })
    _emit({
        "analytic": _scalar_json(report.analytic),
        "derivative": None if report.derivative is None else _scalar_json(report.derivative),
        "exact_right": _scalar_json(report.exact_right),
        "exact_left": _scalar_json(report.exact_left),
        "deviation": _scalar_json(report.deviation),
        "curvature_jump": report.curvature_jump,
        "table": table,
    })
    return 0


def _cmd_diskant(args) -> int:
    p1, p2 = _load_scenes(args.scene1, args.scene2)
    report = diskant_report(p1, p2)
    _emit({
        "s": [report.s0, report.s1, report.s2],
        "s_float": [scalar_float(report.s0), scalar_float(report.s1),
                    scalar_float(report.s2)],
        "r": report.r.value,
        "R": report.R.value,
        "r_bracket": [report.r.lo, report.r.hi],
        "R_bracket": [report.R.lo, report.R.hi],
        "slacks": {c.name: _scalar_json(c.slack) for c in report.cases},
        "pass": report.all_pass,
    })
    return 0 if report.all_pass else 1


def _multiples(text: str) -> list:
    """The grid scales of ``--m``: comma-separated integers."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(
            f"--m takes comma-separated integers, got {text!r}") from None


_ORACLE_COLUMNS = ("m", "log_count", "estimate", "analytic_avol", "error")


def _cmd_oracle(args) -> int:
    from .sections import _estimate, section_box

    ms = _multiples(args.m)
    pair, = _load_scenes(args.scene)
    analytic = avol(pair)
    fa = scalar_float(analytic)
    rows = []
    for m in ms:
        value = section_box(pair, m).log_count()
        est = float(_estimate(value, m))
        rows.append((m, float(value), est, fa, abs(est - fa)))
    if args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(_ORACLE_COLUMNS)
        writer.writerows(rows)
    else:
        _emit({"rows": [dict(zip(_ORACLE_COLUMNS, row)) for row in rows]})
    return 0


def _cmd_okounkov(args) -> int:
    from .pa import _eval_on_grid
    from .sections import analytic_okounkov, okounkov_sample

    pair, = _load_scenes(args.scene)
    data = analytic_okounkov(pair)
    sample = okounkov_sample(pair, args.m)
    gaps = []
    entries = []
    # the sample's w increase, so the transform is read in one joint scan
    values = _eval_on_grid(data.transform.points, [w for w, _ in sample.entries])
    for (w, t), value in zip(sample.entries, values):
        analytic = scalar_float(value)
        empirical = scalar_float(t)
        gaps.append(abs(empirical - analytic))
        entries.append({"w": w, "empirical": empirical, "analytic": analytic})
    _emit({
        "domain": [data.domain.lo, data.domain.hi],
        "body_volume": _scalar_json(data.body_volume),
        "avol": _scalar_json(data.avol),
        "m": args.m,
        "max_gap": max(gaps) if gaps else None,
        "samples": entries,
    })
    return 0


def _cmd_suite(args) -> int:
    result = run_suite(args.name, count=args.count, seed=args.seed)
    _emit(result.to_payload())
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a mistyped or removed option is an error (exit 2),
    # never a silent match of a longer one such as --help
    parser = argparse.ArgumentParser(
        prog="adelic-volumes",
        allow_abbrev=False,
        description="Exact arithmetic volumes of divisor pairs on the "
                    "projective line over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(fn=fn)
        return p

    p = add("avol", _cmd_avol, "arithmetic volume of a scene")
    p.add_argument("scene")

    p = add("derivative", _cmd_derivative,
            "finite-difference table and exact derivative along a direction")
    p.add_argument("scene")
    p.add_argument("--direction", required=True,
                   help="scene file for the direction divisor")

    p = add("diskant", _cmd_diskant,
            "isoperimetric inequality chain for two scenes")
    p.add_argument("scene1")
    p.add_argument("scene2")

    p = add("oracle", _cmd_oracle, "brute-force section counts vs the volume")
    p.add_argument("scene")
    p.add_argument("--m", default="1,2,4,8,16",
                   help="comma-separated grid scales")
    p.add_argument("--format", choices=["json", "csv"], default="csv")

    p = add("okounkov", _cmd_okounkov,
            "convex body data and empirical filtration values")
    p.add_argument("scene")
    p.add_argument("--m", type=int, default=64)

    p = add("suite", _cmd_suite, "run a named property suite")
    p.add_argument("name", choices=list(suite_names()))
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    return parser


# the parser is read-only once built, so one instance serves every call
# to main in a process
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (AdelicVolumesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
