"""Command-line front end.

Exit codes are stable: 0 on success, 1 when a verification suite finds
a mismatch, 2 on usage, parse or input errors.  ``--json`` / ``--format
json`` outputs follow the CommandOutcome schema shipped in
``weylkit/schemas/outcome.schema.json``; text output uses the same
ASCII syntax the parser accepts, so results can be piped back in.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import exprio, opalg, ordering as conv
from .opalg import (
    FreeExpression,
    Ordering,
    OrderedPolynomial,
    PowerNode,
    ProductNode,
    SumNode,
    SymbolNode,
    UnsupportedSymbolError,
    WorkLimitError,
    rewrite_to_pq,
    work_budget,
)

OK, MISMATCH, USAGE = 0, 1, 2

_TAG_NAMES = sorted(tag.value for tag in Ordering)
# sorted(verify.SUITES), kept here so that only ``weylkit verify`` loads verify.
_SUITE_NAMES = ("commutators", "hermite", "orderings", "transform", "wigner")
MAX_DEGREE_GUARD = 8
MAX_DIM_GUARD = 128
# The wigner suite's inputs need this many Fock levels: below 8 its
# 8x8 blocks do not fit, below 12 the |beta| = 1 coherent state misses
# unit trace, and at 12 and 13 its Wigner function misses the Gaussian
# by more than 1e-6.  Every check passes from 14 up.
MIN_DIM_GUARD = 14
# Bounds on a bare expression before the rewriting oracle expands it.
# Rewriting one word of n symbols costs at most about 5e-7 * n**3 s
# (in-process, 2-core x86-64, Python 3.11) for n = 16..160: Q^64*P^64
# takes 0.7-0.8 s and Q^80*P^80 1.3-1.7 s.  Words that share intermediate
# words cost far less together: the 2048 words of (P+Q)^11 take 0.02 s.
# So the estimate words * longest**3 is capped at 2**22 (at most about
# 2 s), and the longest word at 128 symbols.
MAX_WORD_SYMBOLS = 128
MAX_EXPANSION_WORK = 2**22


class ExpansionTooLargeError(ValueError):
    """A bare expression's expansion past the rewriting bounds."""


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


def _rewrite(e: FreeExpression) -> OrderedPolynomial:
    """The P-Q form of a bare expression, if its expansion is in bounds."""
    words, longest = _expansion_size(e)
    if longest > MAX_WORD_SYMBOLS or words * longest**3 > MAX_EXPANSION_WORK:
        raise ExpansionTooLargeError(
            "expression too large to rewrite: " + _EXPANSION_BOUNDS
        )
    # Kept on the rewriting oracle: bench's cli-exact traces opalg here.
    return rewrite_to_pq(e)


def _print_json(outcome: dict) -> None:
    import json  # only JSON output loads it

    print(json.dumps(outcome, indent=2))


def _emit(outcome: dict, as_json: bool, text: str) -> None:
    if as_json:
        _print_json(outcome)
    else:
        print(text)


def _print_error(message: str, as_json: bool, span=None) -> int:
    if as_json:
        payload = {"message": message}
        if span is not None:
            payload["span"] = list(span)
        _print_json({"status": "error", "payload": payload})
    else:
        print(message, file=sys.stderr)
    return USAGE


def _to_polynomial(
    value: OrderedPolynomial | FreeExpression, target: Ordering
) -> OrderedPolynomial:
    if isinstance(value, FreeExpression):
        value = _rewrite(value)
    with work_budget():
        return conv.convert(value, target)


def _words(value) -> FreeExpression:
    """A lone block as its P-Q words, converted in its own work budget."""
    block = isinstance(value, OrderedPolynomial)
    return exprio.as_words(_to_polynomial(value, Ordering.PQ)) if block else value


def _emit_polynomial(poly: OrderedPolynomial, as_json: bool) -> int:
    # P-Q and Q-P bodies re-parse as operator words with the same value;
    # the symbolic Weyl tag keeps its wrapper.
    render = exprio.render if poly.ordering is Ordering.WEYL else exprio.render_terms
    try:
        # Text output prints only the rendering, so only JSON builds the rest.
        result = exprio.polynomial_to_json(poly) if as_json else None
        text = render(poly)
    except ValueError:
        # str() refuses ints longer than Python's int/str digit limit.
        return _print_error(
            "the result has a coefficient too long to print: more than "
            f"{exprio.max_int_digits()} digits",
            as_json,
        )
    _emit({"status": "ok", "payload": {"result": result, "text": text}}, as_json, text)
    return OK


def _run(args, sources: list[str], build) -> int:
    """Parse each operand, ``build`` the result from them and print it.

    A parse error shows the operand it is in.  A lone block reaches
    ``build`` as the polynomial itself.
    """
    as_json = args.format == "json"
    operands = []
    for source in sources:
        try:
            operands.append(exprio.parse(source))
        except exprio.ParseError as exc:
            return _print_error(exc.pretty(source), as_json, exc.span)
    try:
        poly = build(*operands)
    except (UnsupportedSymbolError, ExpansionTooLargeError) as exc:
        return _print_error(str(exc), as_json)
    except WorkLimitError:  # only a conversion's budget is open here
        return _print_error("too large to convert: a conversion may do at most "
                            f"{opalg.MAX_WORK} coefficient products times coefficient bits", as_json)
    return _emit_polynomial(poly, as_json)


def _commutator(left, right) -> OrderedPolynomial:
    left, right = _words(left), _words(right)
    return _rewrite(left * right - right * left)


def cmd_convert(args) -> int:
    target = Ordering(args.to)
    return _run(args, [args.expr], lambda value: _to_polynomial(value, target))


def cmd_commutator(args) -> int:
    return _run(args, [args.left, args.right], _commutator)


def cmd_expand(args) -> int:
    if args.power < 0:
        return _print_error("--power must be non-negative", args.format == "json")

    def build(base) -> OrderedPolynomial:
        power = PowerNode(_words(base), args.power)
        return _to_polynomial(power, Ordering(args.to))

    return _run(args, [args.expr], build)


def cmd_verify(args) -> int:
    # Loaded here, so the other commands start without them.
    import inspect

    from . import verify

    # Only the options the suite takes, and that are set, are checked and passed.
    suite = verify.SUITES[args.suite]
    takes = inspect.signature(suite).parameters
    options = {k: v for k, v in vars(args).items() if k in takes and v is not None}
    if "max_degree" in options:
        if args.max_degree > MAX_DEGREE_GUARD:
            return _print_error(
                f"--max-degree is capped at {MAX_DEGREE_GUARD}", args.json
            )
        if args.max_degree < 0:
            return _print_error("--max-degree must be non-negative", args.json)
    if "dim" in options:
        if args.dim > MAX_DIM_GUARD:
            return _print_error(f"--dim is capped at {MAX_DIM_GUARD}", args.json)
        if args.dim < MIN_DIM_GUARD:
            return _print_error(
                f"--dim must be at least {MIN_DIM_GUARD}: the wigner checks' "
                "blocks and |beta| <= 1 coherent states need that many Fock levels",
                args.json,
            )
    checks = suite(**options)
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
        _print_json(outcome)
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


def cmd_transform(args) -> int:
    # numpy loads here, so the exact commands start without it.
    import numpy as np

    from . import phasexform

    as_json = args.json
    if (args.input is None) == (not args.gaussian):
        return _print_error(
            "choose exactly one input: --input FILE or --gaussian", as_json
        )
    try:
        field = (
            phasexform.SampledField.from_function(
                lambda qg, pg: np.exp(-(pg**2) - qg**2)
            )
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
    result = None
    with np.errstate(over="ignore", invalid="ignore"):
        if args.out is not None or not args.parseval:
            transform = phasexform.inverse_transform if args.inverse else phasexform.forward_transform
            result = transform(field)
        if args.parseval:
            # The norm identity takes the forward transform, so a forward
            # result made for --out serves it too.
            reuse = result is not None and not args.inverse
            forward = result if reuse else phasexform.forward_transform(field)
            lhs, rhs = phasexform._parseval_sides(field, forward)
    if args.parseval:
        if not (np.isfinite(lhs) and np.isfinite(rhs)):
            return _print_error(overflow, as_json)
        payload["parseval"] = {"lhs": lhs, "rhs": rhs}
        lines.append(f"{lhs:.10f}")
        lines.append(f"{rhs:.10f}")
    if result is not None:
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
        f"bounds: {_EXPANSION_BOUNDS}; an ordering block's products and "
        "powers, and a conversion between orderings, may do at most "
        f"{opalg.MAX_WORK} coefficient products times coefficient bits (past "
        "2^16 bits, times the bits over 2^16, or in a conversion the shorter "
        "operand's bits over 2^16), bounded before each is made; "
        "parentheses and unary minus nest "
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
    p_convert.add_argument("--to", required=True, choices=_TAG_NAMES)
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
    p_expand.add_argument("--to", required=True, choices=_TAG_NAMES)
    p_expand.add_argument("--format", choices=["text", "json"], default="text")
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=_SUITE_NAMES)
    p_verify.add_argument("--max-degree", type=int, default=None)
    p_verify.add_argument(
        "--dim",
        type=int,
        default=64,
        help=f"Fock-space dimension of the wigner suite, {MIN_DIM_GUARD} to "
        f"{MAX_DIM_GUARD} (default 64)",
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_tr = sub.add_parser("transform", help="apply the phase-space transform")
    p_tr.add_argument(
        "--input",
        default=None,
        # phasexform.MAX_CSV_CELLS; phasexform loads numpy, so it is not
        # imported to build the help.
        help="SampledField CSV file of at most 2097152 (2^21) cells",
    )
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


# Built once per int/str digit limit, which the help text states, and
# reused: building the tree costs more than parsing a short command.
@functools.cache
def _parser(digits: int) -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser(exprio.max_int_digits()).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
