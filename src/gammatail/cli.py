"""Command-line interface: evaluation, scans, certification, medians, means.

Every command except verify-all runs the fast path alone; the slow
validation oracle is reached only through the acceptance criteria that
verify-all runs.

Output discipline: CSV is the default for row streams (fixed headers, floats
printed with their shortest round-trip representation), JSON behind --json;
certification verdicts and verify-all reports are structured and printed as
JSON regardless.  Identical flags produce byte-identical output.

Each command imports only the layers it runs, inside its handler: eval and
median --a need the scalar kernels alone and never load numpy, and neither
does building the parser (--help included).

Exit codes: 0 success / certified as predicted; 1 certified violation of a
claim this package certifies, and nothing else; 2 usage or domain error; 3
inconclusive (a certification that could not be decided at the fixed
margin in double precision, or a numerical routine that ran out of its
budget before it met its target); 4 internal error (an error that no other
code names, reported on stderr with its traceback).
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (CertificationError, ConvergenceError, DomainError,
                     QuadratureError, WitnessSearchError)
from .specfun import ONE_THIRD, STRICT_MARGIN

if TYPE_CHECKING:
    from .certify import MonotoneVerdict
    from .tailprob import ScanSpec

_EXIT_OK = 0
_EXIT_VIOLATION = 1
_EXIT_USAGE = 2
_EXIT_INCONCLUSIVE = 3
_EXIT_INTERNAL = 4

# The ids of acceptance.CRITERIA, for the verify-all help text; the parser
# does not import the acceptance layer.
_CRITERIA_IDS = ("C01", "C02", "C03", "C04", "C05", "C06", "C07", "C08",
                 "C09", "C10", "C11", "C12", "C13")


def _fmt(value: object) -> str:
    """Deterministic cell formatting: shortest round-trip floats, lowercase
    booleans, empty string for missing values."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(rows: Sequence[Sequence[object]], header: Sequence[str]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _plain(record: object) -> object:
    """A record as plain data: a dict of its fields in field order, each
    field that is a record a dict too; anything else as it is."""
    if hasattr(record, "_fields"):
        return {name: _plain(v) for name, v in zip(record._fields, record)}
    return record


def _json_text(obj: object) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_rows(args: argparse.Namespace, header: Sequence[str],
               rows: Sequence[Sequence[object]], single: bool = False) -> None:
    """The rows as CSV under header, or with --json as a list of JSON
    objects keyed by header: the object itself for a single record."""
    if args.json:
        records = [dict(zip(header, row)) for row in rows]
        _emit(_json_text(records[0] if single else records), args.out)
    else:
        _emit(_csv(rows, header), args.out)


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=str, default=None,
                        help="write output to this path instead of stdout")


def _add_scan_flags(parser: argparse.ArgumentParser, *,
                    n_default: Optional[int] = None) -> None:
    parser.add_argument("--a-min", type=float, help="smallest shape parameter")
    parser.add_argument("--a-max", type=float, help="largest shape parameter")
    parser.add_argument("--n", type=int, default=n_default,
                        help="number of grid points")
    parser.add_argument("--scale", choices=("linear", "log"),
                        help="grid spacing")


def _scan_spec(args: argparse.Namespace,
               c: Optional[float] = None) -> ScanSpec:
    """The scan the flags name; a flag left out takes tailprob's default
    scan of offset c."""
    from .tailprob import _default_scan

    given = {name: value for name in ("a_min", "a_max", "n", "scale")
             if (value := getattr(args, name)) is not None}
    return _default_scan(c, **given)


def _cmd_eval(args: argparse.Namespace) -> int:
    from .tailprob import TailQuery, tail_prob_detail

    detail = tail_prob_detail(TailQuery(args.a, args.c))
    _emit_rows(args, ("a", "c", "p", "method", "err_bound"),
               [(args.a, args.c, detail.value, detail.method,
                 detail.err_bound)], single=True)
    return _EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> int:
    from .tailprob import tail_prob_many

    grid = _scan_spec(args, args.c).grid()
    values, errs = tail_prob_many(grid, args.c)
    p = values.tolist()
    deltas = [None, *(q - prev for prev, q in zip(p, p[1:]))]
    _emit_rows(args, ("a", "p", "delta", "err_bound"),
               list(zip(grid, p, deltas, errs.tolist())))
    return _EXIT_OK


def _certify_exit(verdict: MonotoneVerdict) -> int:
    if verdict.direction == "inconclusive":
        return _EXIT_INCONCLUSIVE
    c = verdict.c
    if c >= 0.0 and verdict.direction != "increasing":
        return _EXIT_VIOLATION
    if c <= -ONE_THIRD and verdict.direction != "decreasing":
        return _EXIT_VIOLATION
    return _EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    from .certify import certify_monotone

    spec = _scan_spec(args, args.c)
    verdict = certify_monotone(args.c, spec)
    _emit(_json_text(_plain(verdict)), args.out)
    return _certify_exit(verdict)


def _cmd_median(args: argparse.Namespace) -> int:
    from .median import gamma_median

    if args.a is not None:
        shapes = [args.a]
    else:
        if args.a_min is None:
            raise DomainError(
                "median requires either --a or both --a-min and --a-max")
        shapes = _scan_spec(args).grid()
    rows = [gamma_median(a) for a in shapes]
    _emit_rows(args, ("a", "median", "offset", "residual"), rows)
    return _EXIT_OK


def _cmd_means(args: argparse.Namespace) -> int:
    from .certify import check_mean_chain

    # check_mean_chain validates 0 < x < y and raises DomainError otherwise
    # (equal arguments are rejected: the chain is strict).
    report = check_mean_chain([(args.x, args.y)])
    entry = report.entries[0]
    _emit_rows(args, ("x", "y", "geo", "log_mean", "refined_mean", "arith",
                      "chain_ok"),
               [(entry.x, entry.y, entry.geometric, entry.logarithmic,
                 entry.refined, entry.arithmetic, entry.chain_ok)],
               single=True)
    if entry.chain_ok:
        return _EXIT_OK
    # Only a gap certifiably below zero reverses the proven chain; a gap
    # inside the margin is merely undecided at this precision.
    gaps = (entry.gap_log_vs_geo, entry.gap_refined_vs_log,
            entry.gap_arith_vs_refined)
    if min(gaps) < -STRICT_MARGIN * entry.err_bound:
        return _EXIT_VIOLATION
    return _EXIT_INCONCLUSIVE


def _cmd_verify_all(args: argparse.Namespace) -> int:
    from .acceptance import verify_all

    criteria = None
    if args.criteria is not None:
        criteria = [c.strip() for c in args.criteria.split(",") if c.strip()]
    results = verify_all(criteria, corrupt=args.corrupt)
    all_pass = all(r.passed for r in results)
    if args.json:
        payload = {
            "criteria": [_plain(r) for r in results],
            "all_pass": all_pass,
        }
        _emit(_json_text(payload), args.out)
    else:
        lines = []
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            line = f"{r.cid} {mark} {r.name}"
            if not r.passed:
                line += f" -- {r.detail}"
            lines.append(line)
        if all_pass:
            lines.append("ALL PASS")
        else:
            failed = ", ".join(r.cid for r in results if not r.passed)
            lines.append(f"FAIL: {failed}")
        _emit("\n".join(lines) + "\n", args.out)
    return _EXIT_OK if all_pass else _EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammatail",
        description="Centered gamma tail probabilities with certified "
                    "monotonicity verdicts, medians, and mean inequalities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate P(X_a - a > c) once")
    p_eval.add_argument("--a", type=float, required=True, help="shape > 0")
    p_eval.add_argument("--c", type=float, required=True, help="threshold")
    p_eval.add_argument("--json", action="store_true")
    _add_out(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_scan = sub.add_parser("scan", help="tabulate the tail probability "
                                         "over a shape grid")
    p_scan.add_argument("--c", type=float, required=True)
    _add_scan_flags(p_scan)
    p_scan.add_argument("--json", action="store_true")
    _add_out(p_scan)
    p_scan.set_defaults(func=_cmd_scan)

    p_cert = sub.add_parser("certify", help="certify the monotonicity "
                                            "direction over a scan")
    p_cert.add_argument("--c", type=float, required=True)
    _add_scan_flags(p_cert)
    _add_out(p_cert)
    p_cert.set_defaults(func=_cmd_certify)

    p_med = sub.add_parser("median", help="gamma median and its offset "
                                          "from the mean")
    p_med.add_argument("--a", type=float, default=None)
    _add_scan_flags(p_med, n_default=50)
    p_med.add_argument("--json", action="store_true")
    _add_out(p_med)
    p_med.set_defaults(func=_cmd_median)

    p_means = sub.add_parser("means", help="the mean chain at one pair")
    p_means.add_argument("--x", type=float, required=True)
    p_means.add_argument("--y", type=float, required=True)
    p_means.add_argument("--json", action="store_true")
    _add_out(p_means)
    p_means.set_defaults(func=_cmd_means)

    p_ver = sub.add_parser("verify-all", help="run the acceptance criteria")
    p_ver.add_argument("--criteria", type=str, default=None,
                       help="comma-separated ids, e.g. C01,C05 "
                            f"(known: {','.join(_CRITERIA_IDS)})")
    p_ver.add_argument("--corrupt", action="store_true",
                       help="inject a tolerance corruption (must fail)")
    p_ver.add_argument("--json", action="store_true")
    _add_out(p_ver)
    p_ver.set_defaults(func=_cmd_verify_all)
    return parser


def _float_options(parser: argparse.ArgumentParser) -> set[str]:
    """The option strings of every float-valued option, subcommands'
    included."""
    found = set()
    for action in parser._actions:
        if action.type is float:
            found.update(action.option_strings)
        if isinstance(action.choices, dict):
            for sub in action.choices.values():
                found |= _float_options(sub)
    return found


def _join_float_values(parser: argparse.ArgumentParser,
                       argv: Sequence[str]) -> list[str]:
    """argv with each float option joined to a following token that
    float() accepts and that starts with '-', as --c=-1e-05: argparse's
    negative-number pattern has no exponent, so it reads -1e-05 as an
    option and --c as missing its value."""
    floats = _float_options(parser)
    out: list[str] = []
    for token in argv:
        if out and out[-1] in floats and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_float_values(parser, argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else _EXIT_OK
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (WitnessSearchError, QuadratureError, ConvergenceError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return _EXIT_INCONCLUSIVE
    except CertificationError as exc:
        print(f"certified violation: {exc}", file=sys.stderr)
        return _EXIT_VIOLATION
    except Exception as exc:            # GammaTailError and the unforeseen
        import traceback

        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return _EXIT_INTERNAL


def main_entry() -> None:
    sys.exit(main())
