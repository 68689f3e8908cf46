"""Command-line front end.

Subcommands: witt, ring, euler, localize, verify.  Exit codes: 0 success,
1 computation error, 2 parse/usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .errors import ExprSyntaxError, WittlocError
from .exprs import (
    parse_field,
    parse_rep,
    parse_ring_expr,
    parse_scalar,
    parse_witt_expr,
    rep_str,
    ring_str,
    witt_str,
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wittloc",
        description="Exact Witt-ring arithmetic, equivariant cohomology "
        "presentations, Euler classes, and Bott-residue localization.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    # an option that a command may not read defaults to None, which tells a
    # given option from an absent one (``_reject_unread``)
    def common(p, field="Q"):
        p.add_argument("--field", default=field, help="field tag: Q, R, Fp:7, Q(sqrt:2)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    pw = sub.add_parser("witt", help="evaluate a Witt-class expression")
    pw.add_argument("expr")
    common(pw)

    pr = sub.add_parser("ring", help="evaluate a graded-ring expression")
    pr.add_argument("expr")
    pr.add_argument(
        "--presentation",
        choices=["bsl2n", "bn", "twisted"],
        default="bsl2n",
        help="coefficient ring presentation",
    )
    pr.add_argument("--n", type=int, help="number of factors (default 1; not twisted)")
    pr.add_argument("--a", help="square class defining the twisted point's extension")
    common(pr)

    pe = sub.add_parser("euler", help="Euler class of a representation")
    pe.add_argument("rep", help="e.g. 'Sym(3)@1 + F@2' or 'rho(3) + rho0'")
    pe.add_argument("--group", choices=["sl2n", "n"], default="sl2n")
    pe.add_argument("--n", type=int, help="SL2^n factors (default 1; sl2n only)")
    common(pe)

    pl = sub.add_parser("localize", help="evaluate a Bott-residue problem")
    pl.add_argument("--problem", help="path to a JSON problem file")
    pl.add_argument(
        "--builder",
        nargs="+",
        help="built-in space: 'p 2n', 'p 2n-1', or 'gr' with --m/--ambient",
    )
    pl.add_argument("--n", type=int, help="SL2^n factors (default 1)")
    pl.add_argument("--m", type=int)
    pl.add_argument("--ambient", type=int)
    common(pl, field=None)

    pv = sub.add_parser("verify", help="run a self-check suite")
    pv.add_argument("suite", nargs="?", help="witt-fp, lam, ring-laws, paper-table")
    # default None tells a given option from an absent one; the suite
    # functions in verify.SUITES hold the defaults
    for opt in ("--p-max", "--rank-max", "--n-max", "--samples", "--seed"):
        pv.add_argument(opt, type=int)
    pv.add_argument("--field")
    pv.add_argument("--a")
    pv.add_argument("--json", action="store_true")
    return ap


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_witt(args) -> int:
    field = parse_field(args.field)
    x = parse_witt_expr(args.expr, field)
    s = witt_str(x)
    _emit(args, {"field": str(field), "class": s}, [s])
    return 0


def _reject_unread(args, opts, reader: str) -> None:
    """Usage error (exit 2) for each option in opts that was given, as
    ``reader`` does not read it."""
    given = [f"--{opt.replace('_', '-')}" for opt in opts if getattr(args, opt) is not None]
    if given:
        raise ExprSyntaxError(f"{reader} does not read {' or '.join(given)}")


def _n(args) -> int:
    return 1 if args.n is None else args.n


def _presentation_from_args(args):
    from .quadext import make_context
    from .rings import bnn, bsl2n, twisted_point

    field = parse_field(args.field)
    if args.presentation != "twisted":
        _reject_unread(args, ["a"], f"--presentation {args.presentation}")
        return (bsl2n if args.presentation == "bsl2n" else bnn)(_n(args), field)
    _reject_unread(args, ["n"], "--presentation twisted")
    if args.a is None:
        raise ExprSyntaxError("twisted presentation needs --a")
    return twisted_point(make_context(field, parse_scalar(args.a, field)))


def _cmd_ring(args) -> int:
    pres = _presentation_from_args(args)
    x = parse_ring_expr(args.expr, pres)
    s = ring_str(x)
    _emit(args, {"presentation": str(pres), "element": s}, [s])
    return 0


def _cmd_euler(args) -> int:
    from .euler import euler_rep

    field = parse_field(args.field)
    kind = "SL2n" if args.group == "sl2n" else "N"
    if kind == "N":
        _reject_unread(args, ["n"], "--group n")
    rep = parse_rep(args.rep, kind, _n(args))
    val = euler_rep(rep, field)
    payload = {"rep": rep_str(rep)}
    if val.value is not None:
        payload["euler"] = ring_str(val.value)
    payload.update(determinacy=val.determinacy, known_square=ring_str(val.known_square))
    _emit(args, payload, [f"{k}: {v}" for k, v in payload.items() if k != "rep"])
    return 0


def _build_problem(args):
    from .engine import (
        build_grassmannian_problem,
        build_projective_problem,
        problem_from_json,
    )

    if args.problem is not None:
        _reject_unread(args, ["builder", "field", "n", "m", "ambient"], "localize --problem")
        with open(args.problem) as fh:
            return problem_from_json(json.load(fh))
    if not args.builder:
        raise ExprSyntaxError("localize needs --problem or --builder")
    field = parse_field("Q" if args.field is None else args.field)
    kind, n = args.builder[0], _n(args)
    if kind == "p":
        if len(args.builder) != 2 or args.builder[1] not in ("2n", "2n-1"):
            raise ExprSyntaxError("builder 'p' takes a dimension: 2n or 2n-1")
        _reject_unread(args, ["m", "ambient"], "builder 'p'")
        dim = 2 * n if args.builder[1] == "2n" else 2 * n - 1
        return build_projective_problem(dim, n, field)
    if kind == "gr":
        if args.m is None or args.ambient is None:
            raise ExprSyntaxError("builder 'gr' needs --m and --ambient")
        return build_grassmannian_problem(args.m, args.ambient, n, field)
    raise ExprSyntaxError(f"unknown builder {kind!r}")


def _cmd_localize(args) -> int:
    from .engine import bott_residue

    res = bott_residue(_build_problem(args))
    if res.cleared is not None:
        payload = {"cleared": ring_str(res.cleared)}
    else:
        num, den = ring_str(res.value.numerator), ring_str(res.value.inverted)
        payload = {"localized": f"({num}) / ({den})^1"}
    if res.degree_zero is not None:
        payload["degree_zero"] = witt_str(res.degree_zero)
    lines = [f"{k}: {x}" for k, x in payload.items()]
    if res.flags:
        lines.append("flags: " + ", ".join(sorted(k for k, v in res.flags.items() if v)))
        payload["flags"] = res.flags
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    from .verify import SUITES

    suite = args.suite
    if not suite:
        raise ExprSyntaxError(f"verify needs a suite: {', '.join(SUITES)}")
    if suite not in SUITES:
        raise ExprSyntaxError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    run, reads = SUITES[suite]
    every = dict.fromkeys(opt for _, opts in SUITES.values() for opt in opts)
    _reject_unread(args, [opt for opt in every if opt not in reads], f"suite {suite}")
    given = {opt: v for opt in reads if (v := getattr(args, opt)) is not None}
    if "a" in reads and ("field" in given) != ("a" in given):
        raise ExprSyntaxError(f"suite {suite} needs --field and --a together")
    # below these a suite would run no check, or fewer than it reports
    for opt, least in (("p_max", 3), ("n_max", 1), ("rank_max", 0), ("samples", 2)):
        if given.get(opt, least) < least:
            raise ExprSyntaxError(f"--{opt.replace('_', '-')} must be at least {least}")
    if "field" in given:
        given["field"] = parse_field(given["field"])
    if "a" in given:
        given["a"] = parse_scalar(given["a"], given["field"])
    ok, lines = run(**given)
    payload = {"suite": suite, "passed": ok, "lines": lines}
    _emit(args, payload, lines + [f"suite {suite}: {'pass' if ok else 'FAIL'}"])
    return 0 if ok else 3


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    handlers = {
        "witt": _cmd_witt,
        "ring": _cmd_ring,
        "euler": _cmd_euler,
        "localize": _cmd_localize,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.cmd](args)
    except ExprSyntaxError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except WittlocError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
