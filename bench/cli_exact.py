"""``cli-exact``: the user traffic of ``weylkit convert/expand/commutator``.

Every item is one in-process call of ``weylkit.cli.main(argv)`` with
stdout and stderr captured.  Most items convert ``pq{}``/``qp{}``/
``weyl{}`` blocks of 1 to 200 terms (log-uniform) between tags, so
``ordering.convert`` and ``exprio.parse`` do most of the work.  A
quarter are short bare expressions for ``expand`` and ``commutator``,
the only items that reach the rewriting oracle, and 15% are malformed
and must exit 2 with a message.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

from weylkit import cli, exprio, ordering as conv
from weylkit.exactnum import ExactScalar
from weylkit.opalg import OrderedPolynomial, Ordering

import reference as ref
from harness import Item, expect, gaussian_terms, log_strata, rng_for

NAME = "cli-exact"
KINDS = {"convert": 72, "expand": 15, "commutator": 15, "malformed": 18}
JSON_EVERY = 4
MAX_TERMS = 200
MAX_BLOCK_DEGREE = 15
SETUP = ""

_TAGS = {"pq": Ordering.PQ, "qp": Ordering.QP, "weyl": Ordering.WEYL}
_TAG_PAIRS = [(a, b) for a in sorted(_TAGS) for b in sorted(_TAGS) if a != b]
# Each degree equally often, its Q powers spread evenly over 0..degree.
_MONOMIALS = sorted(
    ((m, d - m) for d in range(MAX_BLOCK_DEGREE + 1) for m in (round(j * d / MAX_BLOCK_DEGREE) for j in range(MAX_BLOCK_DEGREE + 1))),
    key=lambda mr: (min(mr), sum(mr), mr),
)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Bare-expression coefficients: surface text and value.
_BARE_COEFFS = (
    ("1", (1, 0)), ("2", (2, 0)), ("3", (3, 0)), ("1/2", (Fraction(1, 2), 0)),
    ("i", (0, 1)), ("2*i", (0, 2)), ("-1", (-1, 0)), ("-i", (0, -1)),
    ("-3/2", (Fraction(-3, 2), 0)),
)
# (words, symbols per word, power) of the expressions given to expand,
# and (words, symbols per word) of each side of a commutator.
_EXPAND_SHAPES = (
    (1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 2), (1, 3, 2), (3, 1, 3), (2, 2, 3), (1, 2, 3),
    (3, 2, 2), (2, 3, 2), (1, 1, 3), (2, 1, 3), (3, 1, 2), (1, 3, 1), (3, 3, 1),
)
_COMMUTATOR_SHAPES = (
    ((1, 1), (1, 1)), ((1, 2), (1, 1)), ((1, 2), (1, 2)), ((2, 1), (1, 3)), ((1, 3), (2, 2)),
    ((2, 2), (2, 2)), ((1, 3), (1, 3)), ((2, 3), (1, 2)), ((2, 1), (2, 1)), ((1, 1), (2, 3)),
    ((2, 3), (2, 3)), ((1, 2), (2, 2)), ((2, 2), (1, 1)), ((1, 3), (1, 1)), ((2, 1), (1, 2)),
)
_MALFORMED = (
    "{e} +", "{e} *", "({e}", "{e})", "{e} Q", "{e}^", "{e} % Q", "{e}*a",
    "pq{{{b}", "pq{{{b}*a}}", "weyl{{qp{{{b}}}}}", "qp{{{b}}} weyl", "pq{{{b} Q}}",
    "", "x*{e}", "{e} * * Q", "pq{{}}", "{e}^2.5",
)


# -- generation ----------------------------------------------------------


def _block_coeff(rng):
    """A nonzero element of Q(i, sqrt2) as (text, (ra, ia, rb, ib))."""
    while True:
        parts = [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 1, 2, 3, 4)))
            if rng.random() < share else Fraction(0)
            for share in (0.8, 0.5, 0.3, 0.2)
        ]
        if any(parts):
            break
    texts = [
        str(value) + suffix
        for value, suffix in zip(parts, ("", "*i", "*r2", "*i*r2"))
        if value
    ]
    text = texts[0] if len(texts) == 1 else "(" + " + ".join(texts) + ")"
    return text, tuple(parts)


def _block_word(rng, m: int, r: int) -> str:
    factors = [f for f in (f"Q^{m}" if m > 1 else "Q" * m, f"P^{r}" if r > 1 else "P" * r) if f]
    rng.shuffle(factors)
    return "*".join(factors)


def _monomial(k: int) -> tuple[int, int]:
    # Golden-ratio steps through the monomials sorted by conversion cost:
    # any run of consecutive k is a near-even sample of that cost, so a
    # block's cost follows its term count whatever the seed.
    return _MONOMIALS[int((k * _GOLDEN) % 1.0 * len(_MONOMIALS))]


def _block(rng, tag: str, first: int, count: int):
    """A block of the monomials first..first+count-1 with seeded coefficients."""
    texts, terms = [], {}
    for k in range(first, first + count):
        m, r = _monomial(k)
        coeff_text, coeff = _block_coeff(rng)
        word = _block_word(rng, m, r)
        texts.append(f"{coeff_text}*{word}" if word else coeff_text)
        total = tuple(a + b for a, b in zip(terms.get((m, r), (0, 0, 0, 0)), coeff))
        if any(total):
            terms[(m, r)] = total
        else:
            terms.pop((m, r), None)
    return f"{tag}{{" + " + ".join(texts) + "}", terms


def _bare(rng, count: int, length: int, letters=None):
    """A bare expression of ``count`` words of ``length`` symbols each:
    its text and its terms as (coeff, symbols).

    The words' letters come from ``letters`` when given, so that a shape
    costs the same to rewrite in every batch.  The first coefficient is
    positive, so no argument starts with '-' and is taken for an option.
    """
    letters = letters or rng
    terms, texts = [], []
    for idx in range(count):
        choices = _BARE_COEFFS[:6] if idx == 0 else _BARE_COEFFS
        text, value = rng.choice(choices)
        symbols = "".join(letters.choice("QP") for _ in range(length))
        runs, prev = [], None
        for s in symbols:
            if s == prev:
                runs[-1][1] += 1
            else:
                runs.append([s, 1])
            prev = s
        word = "*".join(s if n == 1 else f"{s}^{n}" for s, n in runs)
        texts.append(f"{text}*{word}")
        terms.append(((Fraction(value[0]), Fraction(value[1])), symbols))
    return " + ".join(texts), tuple(terms)


def _cycle(shapes, count: int) -> list:
    return [shapes[idx % len(shapes)] for idx in range(count)]


def _json(index: int) -> list:
    return ["--format", "json"] if index % JSON_EVERY == 0 else []


def generate(seed: int) -> list[Item]:
    """One block per log-spaced size stratum, bare expressions in fixed
    shapes and malformed inputs from fixed templates.

    Tag pairs, targets and JSON output cost differently on items of one
    size, so they are assigned by position, each size stratum and shape
    getting the same in every batch.  The seed draws each block's size
    within its stratum, the coefficients, the first monomial of the
    blocks' walk, the malformed inputs' fragments and the order.
    """
    rng = rng_for(seed, NAME)
    items = []
    first = rng.randrange(len(_MONOMIALS))
    sizes = log_strata(rng, KINDS["convert"], 1, MAX_TERMS + 1)
    for index, ((tag, target), size) in enumerate(zip(_cycle(_TAG_PAIRS, KINDS["convert"]), sizes)):
        text, terms = _block(rng, tag, first, int(size))
        first += int(size)
        argv = ["convert", text, "--to", target] + _json(index)
        items.append(Item("convert", (tuple(argv), tag, target, tuple(sorted(terms.items())))))
    targets = _cycle(sorted(_TAGS), KINDS["expand"])
    for index, ((count, length, power), target) in enumerate(zip(_cycle(_EXPAND_SHAPES, KINDS["expand"]), targets)):
        text, terms = _bare(rng, count, length, random.Random(f"expand:{index}"))
        argv = ["expand", text, "--power", str(power), "--to", target] + _json(index)
        items.append(Item("expand", (tuple(argv), terms, power, target)))
    for index, (left_shape, right_shape) in enumerate(_cycle(_COMMUTATOR_SHAPES, KINDS["commutator"])):
        letters = random.Random(f"commutator:{index}")
        left, left_terms = _bare(rng, *left_shape, letters)
        right, right_terms = _bare(rng, *right_shape, letters)
        argv = ["commutator", left, right] + _json(index)
        items.append(Item("commutator", (tuple(argv), left_terms, right_terms)))
    commands = _cycle(("convert", "expand", "commutator"), KINDS["malformed"])
    for index, (template, command) in enumerate(zip(_cycle(_MALFORMED, KINDS["malformed"]), commands)):
        expr, _ = _bare(rng, rng.randint(1, 2), rng.randint(1, 2))
        body, _ = _bare(rng, 1, rng.randint(1, 2))
        bad = template.format(e=expr, b=body)
        if command == "convert":
            argv = ["convert", bad, "--to", rng.choice(sorted(_TAGS))]
        elif command == "expand":
            argv = ["expand", bad, "--power", "2", "--to", rng.choice(sorted(_TAGS))]
        else:
            argv = ["commutator", bad, expr] if rng.random() < 0.5 else ["commutator", expr, bad]
        items.append(Item("malformed", (tuple(argv + _json(index)),)))
    rng.shuffle(items)
    return items


# -- execution -----------------------------------------------------------


def prepare(item: Item, workdir):
    return list(item.params[0])


def execute(item: Item, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- checks --------------------------------------------------------------


def _result_polynomial(argv, stdout: str, tag: str) -> OrderedPolynomial:
    """The printed result, read back as a polynomial with tag ``tag``."""
    if "json" in argv:
        doc = json.loads(stdout)
        expect(doc["status"] == "ok", f"JSON status {doc['status']!r}")
        result = doc["payload"]["result"]
        expect(result["ordering"] == tag, f"JSON result tagged {result['ordering']!r}, not {tag!r}")
        poly = OrderedPolynomial.from_terms(
            _TAGS[tag],
            (
                ((t["m"], t["r"]), ExactScalar(*(Fraction(t["coeff"][k]) for k in ("ra", "ia", "rb", "ib"))))
                for t in result["terms"]
            ),
        )
        text = doc["payload"]["text"]
    else:
        text = stdout.rstrip("\n")
        poly = None
    # Weyl results print with their wrapper, except zero; P-Q and Q-P
    # bodies print bare.
    parsed = exprio.parse(text if tag == "weyl" and text != "0" else f"{tag}{{{text}}}")
    expect(isinstance(parsed, OrderedPolynomial) and parsed.ordering is _TAGS[tag],
           f"printed result does not read back as a {tag} block")
    expect(poly is None or parsed.terms == poly.terms, "JSON terms and text disagree")
    return parsed


def _exact_terms(poly: OrderedPolynomial) -> dict:
    return {(mon.m, mon.r): (c.ra, c.ia, c.rb, c.ib) for mon, c in poly.terms.items()}


def _bare_value(terms, order: str) -> dict:
    out: dict = {}
    for coeff, symbols in terms:
        out = ref.add(out, ref.word(symbols, order), coeff)
    return out


def check(item: Item, argv, output) -> None:
    code, stdout, stderr = output
    kind = item.kind
    if kind == "malformed":
        expect(code == 2, f"malformed input {argv!r} exited {code}")
        if "json" in argv:
            doc = json.loads(stdout)
            expect(doc["status"] == "error" and doc["payload"]["message"], "no JSON error message")
        else:
            expect(stderr.strip() != "", f"malformed input {argv!r} printed no message")
        return
    expect(code == 0, f"{argv[0]} exited {code}: {stderr.strip()[:200]}")
    if kind == "convert":
        _, source, target, terms = item.params
        back = conv.convert(_result_polynomial(argv, stdout, target), _TAGS[source])
        expect(_exact_terms(back) == dict(terms), f"convert {source}->{target} does not round-trip")
    elif kind == "expand":
        _, terms, power, target = item.params
        got = _result_polynomial(argv, stdout, target)
        order = "pq" if target == "weyl" else target
        want = ref.power(_bare_value(terms, order), power, order)
        got_terms = gaussian_terms(got.terms)
        if target == "weyl":
            got_terms = ref.weyl_to_ordered(got_terms, "pq")
        expect(got_terms == want, f"expand to {target} differs from the reference")
    else:
        _, left, right = item.params
        got = _result_polynomial(argv, stdout, "pq")
        want = ref.commutator(_bare_value(left, "pq"), _bare_value(right, "pq"), "pq")
        expect(gaussian_terms(got.terms) == want, "commutator differs from the reference")
