"""Command-line front end.

Exit codes are stable: 0 on success, 1 when a verification suite finds
a mismatch, 2 on usage, parse or input errors.  ``--json`` / ``--format
json`` outputs follow the CommandOutcome schema shipped in
``weylkit/schemas/outcome.schema.json``; text output uses the same
ASCII syntax the parser accepts, so results can be piped back in.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import exprio, ordering as conv, phasexform, verify
from .opalg import (
    FreeExpression,
    Ordering,
    OrderedPolynomial,
    PowerNode,
    ProductNode,
    SumNode,
    SymbolNode,
    UnsupportedSymbolError,
    rewrite_to_pq,
    to_expression,
)

OK, MISMATCH, USAGE = 0, 1, 2

_TAGS = {"pq": Ordering.PQ, "qp": Ordering.QP, "weyl": Ordering.WEYL}
MAX_DEGREE_GUARD = 8
MAX_DIM_GUARD = 128
# Bounds on a bare expression before the rewriting oracle expands it.
# Rewriting one word of n symbols costs about 4e-7 * n**3 s (2-core
# x86-64, Python 3.11) for n = 8..160, growing faster above that:
# Q^64*P^64 takes 1.4 s and Q^80*P^80 3.0 s.  So the estimate
# words * longest**3 is capped at 2**22 (about 2 s), and the longest
# word at 128 symbols.
MAX_WORD_SYMBOLS = 128
MAX_EXPANSION_WORK = 2**22


class ExpansionTooLargeError(ValueError):
    """A bare expression whose expansion exceeds the rewriting bounds."""


def _expansion_size(e: FreeExpression) -> tuple[int, int]:
    """(words, longest) of e's expansion into words, without expanding it.

    ``words`` counts products of summands, repeats included; ``longest``
    counts the symbols of the longest word, and a power counts at least
    one per multiplication it makes, so powers of scalars are bounded
    too.  Both saturate just above their caps, so nested powers stay
    small integers.
    """
    if isinstance(e, SumNode):
        sizes = [_expansion_size(child) for child in e.children]
        words = sum(w for w, _ in sizes)
        longest = max(n for _, n in sizes)
    elif isinstance(e, ProductNode):
        words, longest = 1, 0
        for child in e.children:
            w, n = _expansion_size(child)
            words = min(words * w, MAX_EXPANSION_WORK + 1)
            longest += n
    elif isinstance(e, PowerNode):
        w, n = _expansion_size(e.base)
        # Past the cap's bit length any base of 2 or more saturates.
        words = w ** min(e.exponent, MAX_EXPANSION_WORK.bit_length())
        longest = max(n, 1) * e.exponent
    elif isinstance(e, SymbolNode):
        return 1, 1
    else:  # a scalar
        return 1, 0
    return min(words, MAX_EXPANSION_WORK + 1), min(longest, MAX_WORD_SYMBOLS + 1)


_EXPANSION_BOUNDS = (
    f"a bare expression's expansion may have at most {MAX_WORD_SYMBOLS} "
    f"symbols per word and words * symbols^3 <= {MAX_EXPANSION_WORK}"
)


def _check_expansion(e: FreeExpression) -> None:
    words, longest = _expansion_size(e)
    if longest > MAX_WORD_SYMBOLS or words * longest**3 > MAX_EXPANSION_WORK:
        raise ExpansionTooLargeError(
            "expression too large to rewrite: " + _EXPANSION_BOUNDS
        )


def _emit(outcome: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(outcome, indent=2))
    else:
        print(text)


def _error_outcome(message: str, span=None) -> dict:
    payload = {"message": message}
    if span is not None:
        payload["span"] = list(span)
    return {"status": "error", "payload": payload}


def _print_error(message: str, as_json: bool, span=None) -> int:
    if as_json:
        print(json.dumps(_error_outcome(message, span), indent=2))
    else:
        print(message, file=sys.stderr)
    return USAGE


def _as_words(value: OrderedPolynomial | FreeExpression) -> FreeExpression:
    # A parsed block enters a bare expression as its P-Q words.
    if isinstance(value, OrderedPolynomial):
        return to_expression(conv.convert(value, Ordering.PQ))
    return value


def _to_polynomial(
    value: OrderedPolynomial | FreeExpression, target: Ordering
) -> OrderedPolynomial:
    if isinstance(value, OrderedPolynomial):
        return conv.convert(value, target)
    _check_expansion(value)
    # Kept on the rewriting oracle: bench's cli-exact traces opalg here.
    canonical = rewrite_to_pq(value)
    return conv.convert(canonical, target)


def _polynomial_text(poly: OrderedPolynomial) -> str:
    # P-Q and Q-P bodies re-parse as operator words with the same value;
    # the symbolic Weyl tag keeps its wrapper.
    if poly.ordering is Ordering.WEYL:
        return exprio.render(poly)
    return exprio.render_terms(poly)


def _emit_polynomial(poly: OrderedPolynomial, as_json: bool) -> int:
    try:
        outcome = {
            "status": "ok",
            "payload": {
                "result": exprio.polynomial_to_json(poly),
                "text": _polynomial_text(poly),
            },
        }
    except ValueError:
        # str() refuses ints longer than Python's int/str digit limit.
        return _print_error(
            "the result has a coefficient too long to print: more than "
            f"{exprio.max_int_digits()} digits",
            as_json,
        )
    _emit(outcome, as_json, outcome["payload"]["text"])
    return OK


def cmd_convert(args) -> int:
    as_json = args.format == "json"
    try:
        poly = _to_polynomial(exprio.parse(args.expr), _TAGS[args.to])
    except exprio.ParseError as exc:
        return _print_error(exc.pretty(args.expr), as_json, exc.span)
    except (UnsupportedSymbolError, ExpansionTooLargeError) as exc:
        return _print_error(str(exc), as_json)
    return _emit_polynomial(poly, as_json)


def cmd_commutator(args) -> int:
    as_json = args.format == "json"
    try:
        left_expr = _as_words(exprio.parse(args.left))
        right_expr = _as_words(exprio.parse(args.right))
        difference = left_expr * right_expr - right_expr * left_expr
        _check_expansion(difference)
        bracket = rewrite_to_pq(difference)
    except exprio.ParseError as exc:
        source = args.left if exc.span[1] <= len(args.left) else args.right
        return _print_error(exc.pretty(source), as_json, exc.span)
    except (UnsupportedSymbolError, ExpansionTooLargeError) as exc:
        return _print_error(str(exc), as_json)
    return _emit_polynomial(bracket, as_json)


def cmd_expand(args) -> int:
    as_json = args.format == "json"
    if args.power < 0:
        return _print_error("--power must be non-negative", as_json)
    try:
        base = _as_words(exprio.parse(args.expr))
        poly = _to_polynomial(PowerNode(base, args.power), _TAGS[args.to])
    except exprio.ParseError as exc:
        return _print_error(exc.pretty(args.expr), as_json, exc.span)
    except (UnsupportedSymbolError, ExpansionTooLargeError) as exc:
        return _print_error(str(exc), as_json)
    return _emit_polynomial(poly, as_json)


def cmd_verify(args) -> int:
    if args.max_degree is not None and args.max_degree > MAX_DEGREE_GUARD:
        return _print_error(
            f"--max-degree is capped at {MAX_DEGREE_GUARD}", args.json
        )
    if args.dim > MAX_DIM_GUARD:
        return _print_error(f"--dim is capped at {MAX_DIM_GUARD}", args.json)
    if args.max_degree is not None and args.max_degree < 0:
        return _print_error("--max-degree must be non-negative", args.json)
    if args.dim < 2:
        return _print_error("--dim must be at least 2", args.json)
    checks = verify.run_suite(args.suite, args.max_degree, args.dim)
    failed = [c for c in checks if not c.passed]
    status = "ok" if not failed else "mismatch"
    outcome = {
        "status": status,
        "payload": {
            "suite": args.suite,
            "passed": len(checks) - len(failed),
            "failed": len(failed),
            "checks": [c.to_json() for c in checks],
        },
    }
    if args.json:
        print(json.dumps(outcome, indent=2))
    else:
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            metric = (
                f"max err {c.max_error:.3e} <= {c.tolerance:.0e}"
                if c.tolerance
                else ("exact" if c.passed else "MISMATCH")
            )
            line = f"{mark}  {c.name}  [{metric}]"
            if c.detail:
                line += f"  ({c.detail})"
            print(line)
            if not c.passed and c.computed is not None:
                print(f"      computed: {c.computed}")
                print(f"      oracle:   {c.oracle}")
        print(
            f"{args.suite}: {len(checks) - len(failed)}/{len(checks)} checks passed"
        )
    return OK if not failed else MISMATCH


def _gaussian_field() -> phasexform.SampledField:
    return phasexform.SampledField.from_function(
        lambda qg, pg: np.exp(-(pg**2) - qg**2)
    )


def cmd_transform(args) -> int:
    as_json = args.json
    if (args.input is None) == (not args.gaussian):
        return _print_error(
            "choose exactly one input: --input FILE or --gaussian", as_json
        )
    try:
        field = (
            _gaussian_field()
            if args.gaussian
            else phasexform.SampledField.from_csv(args.input)
        )
    except (OSError, ValueError) as exc:
        return _print_error(f"cannot read input grid: {exc}", as_json)
    payload: dict = {
        "grid": {
            "qmin": field.q_min,
            "qmax": field.q_max,
            "pmin": field.p_min,
            "pmax": field.p_max,
            "nq": field.nq,
            "np": field.np_,
        }
    }
    lines: list[str] = []
    # Cells near the float limit overflow the quadrature; the results are
    # checked and refused below, so numpy's overflow warnings are not shown.
    overflow = (
        "the transform overflows on this input: its cells are too large "
        "for double precision"
    )
    if args.parseval:
        with np.errstate(over="ignore", invalid="ignore"):
            lhs, rhs = phasexform.parseval_check(field)
        if not (np.isfinite(lhs) and np.isfinite(rhs)):
            return _print_error(overflow, as_json)
        payload["parseval"] = {"lhs": lhs, "rhs": rhs}
        lines.append(f"{lhs:.10f}")
        lines.append(f"{rhs:.10f}")
    if args.out is not None or not args.parseval:
        with np.errstate(over="ignore", invalid="ignore"):
            result = (
                phasexform.inverse_transform(field)
                if args.inverse
                else phasexform.forward_transform(field)
            )
        if not np.isfinite(result.values).all():
            return _print_error(overflow, as_json)
        payload["reliable"] = result.reliable
        payload["boundary_max"] = field.boundary_max()
        payload["boundary_decay"] = phasexform.BOUNDARY_DECAY
        if args.out is not None:
            try:
                result.to_csv(args.out)
            except OSError as exc:
                return _print_error(f"cannot write output: {exc}", as_json)
            payload["output"] = args.out
            lines.append(f"wrote {args.out}")
        else:
            lines.append(
                "transform computed; use --out FILE to save it"
            )
    outcome = {"status": "ok", "payload": payload}
    _emit(outcome, as_json, "\n".join(lines))
    return OK


def build_parser() -> argparse.ArgumentParser:
    bounds = (
        "convert, commutator and expand exit 2 on inputs beyond these "
        f"bounds: {_EXPANSION_BOUNDS}; parentheses and unary minus nest "
        f"at most {exprio.MAX_NESTING} levels deep; an integer, in the "
        "input or the result, has at most Python's int/str digit limit "
        f"({exprio.max_int_digits() or 'none'})."
    )
    parser = argparse.ArgumentParser(
        prog="weylkit",
        description="Operator ordering conversions with built-in verification.",
        epilog=bounds,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser(
        "convert",
        help="convert an operator expression between orderings",
        epilog=bounds,
    )
    p_convert.add_argument("expr", help="expression, e.g. 'Q*P' or 'weyl{Q^2*P}'")
    p_convert.add_argument("--to", required=True, choices=sorted(_TAGS))
    p_convert.add_argument("--format", choices=["text", "json"], default="text")
    p_convert.set_defaults(func=cmd_convert)

    p_comm = sub.add_parser(
        "commutator", help="compute [x, y] in P-Q ordering", epilog=bounds
    )
    p_comm.add_argument("left")
    p_comm.add_argument("right")
    p_comm.add_argument("--format", choices=["text", "json"], default="text")
    p_comm.set_defaults(func=cmd_commutator)

    p_expand = sub.add_parser(
        "expand",
        help="raise an expression to a power and convert",
        epilog=bounds,
    )
    p_expand.add_argument("expr")
    p_expand.add_argument("--power", type=int, required=True)
    p_expand.add_argument("--to", required=True, choices=sorted(_TAGS))
    p_expand.add_argument("--format", choices=["text", "json"], default="text")
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(verify.SUITES))
    p_verify.add_argument("--max-degree", type=int, default=None)
    p_verify.add_argument("--dim", type=int, default=64)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_tr = sub.add_parser("transform", help="apply the phase-space transform")
    p_tr.add_argument("--input", default=None, help="SampledField CSV file")
    p_tr.add_argument(
        "--gaussian",
        action="store_true",
        help="use the reference Gaussian exp(-p^2-q^2) on [-8,8]^2, 400x400",
    )
    p_tr.add_argument("--inverse", action="store_true")
    p_tr.add_argument("--parseval", action="store_true")
    p_tr.add_argument("--out", default=None)
    p_tr.add_argument("--json", action="store_true")
    p_tr.set_defaults(func=cmd_transform)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
