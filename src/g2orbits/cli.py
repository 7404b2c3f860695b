"""Command line surface: verify-algebra, orbit, scan, classify, tables.

Each subcommand returns ``meta``, CSV columns and a list of dict rows, and
:func:`render` prints them as text (a block of key / value lines per row),
CSV (comma separated and quoted where needed by the ``csv`` module, header
row, dot decimal separator, LF endings, floats at 17 significant digits so
parsed values round-trip exactly) or JSON (one top-level object with
``meta`` and ``rows``).  Exit status is 0 only when
every check the subcommand performs passes; input the engine cannot
evaluate gives a one-line ``error:`` message and exit status 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from operator import itemgetter

import numpy as np

from . import __version__, verify
from .classify import (
    EXPECTED_MULTIPLICITIES,
    REFERENCE_AUSTERE,
    classify_type,
    closed_form_spectrum,
    principal_interval,
    spectrum_deviation,
)
from .orbits import ACTION_TYPES, action_spec, spectrum_report

SPECTRUM_TOLERANCE = 1e-8
PARAMETER_TOLERANCE = 1e-8


def _cell(value, sep: str = ";") -> str:
    """One value as text: floats at 17 significant digits, lists joined by
    ``sep``, and the [value, multiplicity] pairs inside them by " x "."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, list):
        return sep.join(_cell(item, " x ") for item in value)
    return str(value)


def render(fmt: str, meta: dict, columns, rows: list[dict]) -> str:
    """A report in ``fmt`` (text, csv or json).

    ``columns`` is the CSV view of a row, a list of (header, function of the
    row) pairs; text and JSON show every key of every row.
    """
    if fmt == "json":
        return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header for header, _ in columns)
        writer.writerows([_cell(get(row)) for _, get in columns] for row in rows)
        return out.getvalue()
    lines = [" ".join(f"{key}={value}" for key, value in meta.items())]
    for row in rows:
        lines += [""] + [f"  {key:<26}{_cell(value, ', ')}" for key, value in row.items()]
    return "\n".join(lines) + "\n"


def _columns(*keys: str):
    return [(key, itemgetter(key)) for key in keys]


def _meta(command: str, **extra) -> dict:
    return {"tool": "g2orbits", "version": __version__, "command": command, **extra}


def _resolve_t(args, spec) -> float:
    if (args.t is None) == (args.s is None):
        raise SystemExit("exactly one of --t / --s is required")
    t = float(args.t) if args.t is not None else float(args.s) * spec.section_ratio
    lo, hi = spec.t_range
    if not lo <= t <= hi:  # also rejects nan
        raise ValueError(
            f"t={t} is outside the parameter range [{lo}, {hi}] of type {spec.action_type}"
        )
    return t


def _cluster_tol(args) -> float:
    if not 0.0 < args.cluster_tol < np.inf:  # also rejects nan
        raise ValueError(f"--cluster-tol must be finite and positive, got {args.cluster_tol}")
    return args.cluster_tol


def cmd_verify_algebra(args):
    rows = [
        {"check": r.name, "passed": r.passed, "detail": r.detail}
        for r in verify.run_all(seed=args.seed)
    ]
    return _meta("verify-algebra", seed=args.seed), _columns("check", "passed", "detail"), rows


def _report_row(report) -> dict:
    return {
        "t": report.t,
        "s": report.s,
        "dim": report.orbit_dim,
        "mean_curvature": report.mean_curvature,
        "norm_sq": report.norm_sq,
        "austere": report.austere,
        "cluster_ambiguous": report.cluster_ambiguous,
        "curvatures": [[v, m] for v, m in report.curvatures],
    }


def _spectra(args, spec, ts, **extra):
    """One row per spectrum report at the parameters ``ts``; the CSV columns
    pcNN hold the principal curvatures, each repeated by its multiplicity."""
    tol = _cluster_tol(args)
    reports = [spectrum_report(spec, float(t), cluster_tol=tol) for t in ts]
    columns = _columns("t", "s", "dim", "mean_curvature", "norm_sq") + [
        (f"pc{i + 1:02d}", lambda row, i=i: [v for v, m in row["curvatures"] for _ in range(m)][i])
        for i in range(reports[0].orbit_dim)
    ]
    meta = _meta(args.command, action_type=args.type, **extra)
    return meta, columns, [_report_row(r) for r in reports]


def cmd_orbit(args):
    spec = action_spec(args.type)
    return _spectra(args, spec, [_resolve_t(args, spec)])


def cmd_scan(args):
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    spec = action_spec(args.type)
    lo, hi = principal_interval(spec)
    return _spectra(args, spec, np.linspace(lo, hi, args.samples), samples=args.samples)


def cmd_classify(args):
    rows = []
    for ty in [args.type] if args.type else ACTION_TYPES:
        res = classify_type(ty)
        dev_min = abs(res.minimal_t - res.closed_form_minimal_t)
        pairs = zip(res.biharmonic_t, res.closed_form_biharmonic_t)
        dev_bi = max((abs(a - b) for a, b in pairs), default=0.0)
        rows.append(
            {
                "action_type": ty,
                "minimal_t": res.minimal_t,
                "minimal_s": res.minimal_s,
                "closed_form_minimal_t": res.closed_form_minimal_t,
                "minimal_deviation": dev_min,
                "minimal_austere": res.minimal_austere,
                "closed_form_austere": REFERENCE_AUSTERE[ty],
                "biharmonic_t": list(res.biharmonic_t),
                "biharmonic_s": list(res.biharmonic_s),
                "closed_form_biharmonic_t": list(res.closed_form_biharmonic_t),
                "biharmonic_deviation": dev_bi,
                "singular_dims": list(res.singular_dims),
                "closed_form": f"type {ty} principal-curvature closed forms",
                "notes": list(res.discrepancy_notes),
                "passed": len(res.biharmonic_t) == len(res.closed_form_biharmonic_t)
                and max(dev_min, dev_bi) <= PARAMETER_TOLERANCE
                and res.minimal_austere == REFERENCE_AUSTERE[ty],
            }
        )
    columns = _columns(
        "action_type", "minimal_t", "minimal_s", "closed_form_minimal_t",
        "minimal_deviation", "minimal_austere", "closed_form_austere", "biharmonic_t",
        "closed_form_biharmonic_t", "biharmonic_deviation",
    ) + [
        ("singular_dim_lo", lambda row: row["singular_dims"][0]),
        ("singular_dim_hi", lambda row: row["singular_dims"][1]),
    ] + _columns("passed")
    return _meta("classify"), columns, rows


def cmd_tables(args):
    tol = _cluster_tol(args)
    rows = []
    for ty in [args.type] if args.type else ACTION_TYPES:
        spec = action_spec(ty)
        lo, hi = principal_interval(spec)
        for frac in (0.25, 0.5, 0.75):
            t = lo + frac * (hi - lo)
            report = spectrum_report(spec, t, cluster_tol=tol)
            reference = closed_form_spectrum(ty, t)
            # spectrum_deviation raises on a multiplicity mismatch.
            deviation = spectrum_deviation(ty, t, report.curvatures, reference)
            rows.append(
                {
                    "action_type": ty,
                    "t": t,
                    "s": t / spec.section_ratio,
                    "closed_form": f"type {ty} principal-curvature closed forms",
                    "expected_multiplicities": list(EXPECTED_MULTIPLICITIES[ty]),
                    "computed": [[v, m] for v, m in report.curvatures],
                    "reference": [[v, m] for v, m in reference],
                    "max_deviation": deviation,
                    "passed": bool(deviation <= SPECTRUM_TOLERANCE),
                }
            )
    columns = _columns("action_type", "t", "s", "max_deviation", "passed")
    return _meta("tables"), columns, rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2orbits",
        description="Orbit geometry of the cohomogeneity-one actions on G2 and SO(7)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, type_required=None, cluster_tol=True):
        p = sub.add_parser(name, help=help)
        if type_required is not None:
            p.add_argument("--type", choices=ACTION_TYPES, required=type_required,
                           help="action type")
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--output", default=None, help="write the report to a file")
        if cluster_tol:
            p.add_argument("--cluster-tol", type=float, default=1e-6,
                           help="eigenvalue clustering tolerance")
        p.set_defaults(func=func)
        return p

    p = command("verify-algebra", cmd_verify_algebra, "run the algebra identity suites",
                cluster_tol=False)
    p.add_argument("--seed", type=int, default=0)

    p = command("orbit", cmd_orbit, "report one principal orbit", type_required=True)
    p.add_argument("--t", type=float, default=None, help="geodesic parameter")
    p.add_argument("--s", type=float, default=None,
                   help="section parameter (t = section_ratio * s)")

    p = command("scan", cmd_scan, "sweep the principal parameter range", type_required=True)
    p.add_argument("--samples", type=int, default=200)

    command("classify", cmd_classify, "minimal / austere / biharmonic summary",
            type_required=False, cluster_tol=False)
    command("tables", cmd_tables, "closed-form vs computed spectra", type_required=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        meta, columns, rows = args.func(args)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render(args.format, meta, columns, rows)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if all(row.get("passed", True) for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
