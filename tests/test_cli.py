import ast
import json
import os
import shlex
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from weylkit import cli, exprio, opalg, ordering as conv, phasexform, verify
from weylkit.opalg import OrderedPolynomial, Ordering


@pytest.fixture(scope="module")
def schema():
    text = (
        resources.files("weylkit") / "schemas" / "outcome.schema.json"
    ).read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, schema, *argv):
    code, out, err = run(capsys, *argv)
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    return code, doc


def test_convert_text_golden(capsys):
    code, out, _ = run(capsys, "convert", "Q*P", "--to", "pq")
    assert code == 0
    assert out.strip() == "P*Q + i"


def test_convert_weyl_block_golden(capsys):
    code, out, _ = run(capsys, "convert", "weyl{Q^2*P^2}", "--to", "pq")
    assert code == 0
    assert out.strip() == "P^2*Q^2 + 2*i*P*Q + -1/2"


def test_convert_degree_one_weyl(capsys):
    code, out, _ = run(capsys, "convert", "P+Q", "--to", "weyl")
    assert code == 0
    assert out.strip() == "weyl{Q + P}"


def test_convert_output_pipes_back(capsys):
    code, first, _ = run(capsys, "convert", "Q^2*P", "--to", "pq")
    assert code == 0
    code, second, _ = run(capsys, "convert", first.strip(), "--to", "pq")
    assert code == 0
    assert second == first


def test_convert_json_schema(capsys, schema):
    code, doc = run_json(
        capsys, schema, "convert", "Q*P", "--to", "qp", "--format", "json"
    )
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["result"]["ordering"] == "qp"


def test_convert_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "convert", "Q*(", "--to", "pq")
    assert code == 2
    assert "expected" in err


def test_convert_parse_error_json(capsys, schema):
    code, doc = run_json(
        capsys, schema, "convert", "Q*(", "--to", "pq", "--format", "json"
    )
    assert code == 2
    assert doc["status"] == "error"
    assert "span" in doc["payload"]


def test_convert_rejects_ladder_symbols(capsys):
    code, _, err = run(capsys, "convert", "a*adag", "--to", "pq")
    assert code == 2
    code, out, err = run(capsys, "convert", "Q*a", "--to", "pq")
    assert (code, out) == (2, "")
    assert err == "symbol 'a' not supported by this rewrite\n"


@pytest.mark.parametrize(
    "text, start",
    [("\u0663*Q", 0), ("Q\xa0+ 1", 1), ("Q\u00e9", 1)],
)
def test_non_ascii_input_exits_2(capsys, schema, text, start):
    message = f"unexpected character {text[start]!r}"
    code, out, err = run(capsys, "convert", text, "--to", "pq")
    assert code == 2 and not out
    assert err.startswith(message + "\n")
    code, doc = run_json(capsys, schema, "convert", text, "--to", "pq", "--format", "json")
    assert code == 2 and doc["status"] == "error"
    assert doc["payload"]["message"].startswith(message + "\n")
    assert doc["payload"]["span"] == [start, start + 1]


def test_chained_powers_exit_2_naming_the_remedy(capsys, schema):
    message = "powers do not chain; parenthesize the base, as in (Q^2)^3"
    code, out, err = run(capsys, "convert", "Q^2^3", "--to", "pq")
    assert code == 2 and not out
    assert err == f"{message}\n  Q^2^3\n     ^\nexpected: *, +, -\n"
    code, doc = run_json(capsys, schema, "convert", "Q^2^3", "--to", "pq", "--format", "json")
    assert code == 2
    assert doc["payload"] == {"message": err.rstrip("\n"), "span": [3, 4]}


def test_commutator_goldens(capsys):
    code, out, _ = run(capsys, "commutator", "Q", "P")
    assert code == 0 and out.strip() == "i"
    code, out, _ = run(capsys, "commutator", "Q^2", "P^2")
    assert code == 0 and out.strip() == "4*i*P*Q + -2"
    code, out, _ = run(capsys, "commutator", "Q", "Q")
    assert code == 0 and out.strip() == "0"


@pytest.mark.parametrize(
    "left, right, bad",
    [("Q +", "Q*P*Q*P", "Q +"), ("Q*P*Q*P", "Q +", "Q +"), ("P", "Q*(P", "Q*(P")],
)
def test_commutator_parse_error_shows_the_failing_operand(
    capsys, schema, left, right, bad
):
    with pytest.raises(exprio.ParseError) as exc:
        exprio.parse(bad)
    code, out, err = run(capsys, "commutator", left, right)
    assert (code, out, err) == (2, "", exc.value.pretty(bad) + "\n")
    code, doc = run_json(capsys, schema, "commutator", left, right, "--format", "json")
    assert code == 2
    assert doc["payload"] == {
        "message": exc.value.pretty(bad),
        "span": list(exc.value.span),
    }


def _readme_examples():
    """(argv, printed result) of each README command line ending in '# -> text'."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, arrow, want = line.partition("# -> ")
        argv = shlex.split(command)[1:]
        if arrow and argv[0] in ("convert", "commutator", "expand"):
            yield argv, want.strip()


def test_readme_command_examples(capsys):
    examples = list(_readme_examples())
    assert examples
    for argv, want in examples:
        assert run(capsys, *argv) == (0, want + "\n", ""), argv


def test_help_states_the_live_digit_limit(capsys):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int/str digit limit on this Python")
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 1000, limit):
            sys.set_int_max_str_digits(digits)
            with pytest.raises(SystemExit):
                cli.main(["convert", "--help"])
            help_text = " ".join(capsys.readouterr().out.split())
            assert f"digit limit ({digits or 'none'})" in help_text
    finally:
        sys.set_int_max_str_digits(limit)


def test_main_builds_the_parser_once(capsys):
    cli._parser.cache_clear()
    first = run(capsys, "convert", "Q*P", "--to", "pq")
    second = run(capsys, "convert", "Q*P", "--to", "pq")
    assert first == second == (0, "P*Q + i\n", "")
    assert cli._parser.cache_info().misses == 1


def test_expand_power_two(capsys):
    code, out, _ = run(
        capsys, "expand", "P+Q", "--power", "2", "--to", "pq"
    )
    assert code == 0
    assert out.strip() == "Q^2 + 2*P*Q + P^2 + i"


def test_expand_refuses_a_negative_power(capsys, schema):
    code, out, err = run(capsys, "expand", "Q", "--power", "-1", "--to", "pq")
    assert code == 2 and not out
    assert "--power must be non-negative" in err
    code, doc = run_json(
        capsys, schema, "expand", "Q", "--power", "-1", "--to", "pq", "--format", "json"
    )
    assert code == 2
    assert doc["status"] == "error"
    assert doc["payload"]["message"] == "--power must be non-negative"


def test_scalar_sums_count_as_one_word(capsys):
    # (1 + 1) folds to 2 as it parses, so its 30th power is one word of
    # 30 symbols, not 2^30 words.
    assert cli._expansion_size(exprio.parse("(1 + 1)*Q")) == (1, 1)
    code, out, err = run(capsys, "expand", "(1 + 1)*Q", "--power", "30", "--to", "pq")
    assert (code, out, err) == (0, "1073741824*Q^30\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "P+Q", "--power", "30", "--to", "pq"),
        ("convert", "Q^400*P^400", "--to", "pq"),
        ("commutator", "(P+Q)^20", "(P-Q)^20"),
        ("convert", "1^1000000000", "--to", "pq"),
        ("convert", "((P+Q)^1000)^1000", "--to", "weyl"),
    ],
)
def test_oversized_bare_expressions_exit_2_promptly(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert "expression too large to rewrite" in err
    assert str(cli.MAX_EXPANSION_WORK) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("convert", "pq{(Q*P)^100000}", "--to", "qp"),
        ("convert", "weyl{Q^3000*P^3000}", "--to", "pq"),
        ("convert", "pq{Q^20000*P^20000}", "--to", "weyl"),
        ("commutator", "qp{(Q*P)^100000}", "Q"),
        ("expand", "weyl{(Q*P)^100000}", "--power", "1", "--to", "weyl"),
    ],
)
def test_oversized_conversions_exit_2_promptly(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert f"too large to convert: a conversion may do at most {opalg.MAX_WORK} " in err


def test_conversions_share_the_block_work_bound(capsys, monkeypatch):
    block = exprio.parse("pq{(Q*P)^20 - 3*Q}")
    with opalg.work_budget() as budget:
        want = exprio.render_terms(conv.convert(block, Ordering.QP))
    work = budget.work
    monkeypatch.setattr(opalg, "MAX_WORK", work)
    assert run(capsys, "convert", "pq{(Q*P)^20 - 3*Q}", "--to", "qp") == (0, want + "\n", "")
    monkeypatch.setattr(opalg, "MAX_WORK", work - 1)
    code, out, err = run(capsys, "convert", "pq{(Q*P)^20 - 3*Q}", "--to", "qp")
    assert code == 2 and not out and f"at most {work - 1} " in err
    # A lone block spliced into words is bounded the same way, and a
    # conversion to the block's own tag does no work.
    code, _, err = run(capsys, "commutator", "qp{(Q*P)^20 - 3*Q}", "P")
    assert code == 2 and f"at most {work - 1} " in err
    assert run(capsys, "convert", "pq{(Q*P)^20 - 3*Q}", "--to", "pq")[0] == 0
    # The parser charges a spliced block's conversion to P-Q words to the
    # block, at its opening tag, so a P-Q block splices for free.
    with pytest.raises(exprio.ParseError) as err:
        exprio.parse("P + qp{(Q*P)^20 - 3*Q}")
    assert err.value.span == (4, 7) and str(work - 1) in err.value.message
    exprio.parse("P + pq{(Q*P)^20 - 3*Q}")
    # The library conversion has no bound.
    assert exprio.render_terms(conv.convert(block, Ordering.QP)) == want


def test_conversion_bound_accepts_long_monomials_with_short_coefficients(capsys):
    # l! C(m,l) C(r,l) <= (m r)^l: a high power of Q beside a low power of
    # P is bounded by its few small coefficients, not by 2^m.
    code, out, _ = run(capsys, "convert", "pq{Q^2000000*P^2}", "--to", "qp")
    want = "Q^2000000*P^2 + -4000000*i*Q^1999999*P + -3999998000000*Q^1999998\n"
    assert (code, out) == (0, want)


def test_conversion_charges_a_long_coefficient_by_a_short_count():
    # Each product multiplies the coefficient by an integer of one bit, so
    # it costs time linear in their bits, however long the coefficient.
    block = exprio.parse("pq{3^1000000*Q*P}")
    bits = opalg._coefficient_bits(block.terms)
    assert bits > 2**20
    with opalg.work_budget() as budget:
        conv.convert(block, Ordering.QP)
    assert budget.work == 2 * (bits + 1) <= opalg.MAX_WORK


def test_expansion_bounds_accept_their_edges(capsys):
    # (P+Q)^11 is 2048 words of 11 symbols; Q^64*P^64 one word of 128.
    assert cli._expansion_size(exprio.parse("(P+Q)^11")) == (2048, 11)
    assert cli._expansion_size(exprio.parse("2*Q^64*P^64")) == (1, 128)
    assert cli._expansion_size(exprio.parse("Q*P - P*Q")) == (2, 2)
    code, out, _ = run(capsys, "convert", "Q^2*P^2*(P+Q)^3", "--to", "weyl")
    assert code == 0 and out.strip()
    code, _, err = run(capsys, "expand", "P+Q", "--power", "12", "--to", "pq")
    assert code == 2 and "too large" in err
    help_text = " ".join(cli.build_parser().format_help().split())
    assert str(cli.MAX_WORD_SYMBOLS) in help_text
    assert str(cli.MAX_EXPANSION_WORK) in help_text
    assert f"at most {exprio.MAX_NESTING} levels deep" in help_text
    assert "digit limit" in help_text


@pytest.mark.parametrize("tag", ["pq", "qp", "weyl"])
def test_a_lone_block_counts_as_its_words_in_parentheses_too(capsys, tag):
    # A block given alone to expand or commutator, and the same block in
    # parentheses, are both its P-Q words to the size guard.
    block = tag + "{{{}}}"
    cases = [
        ("expand", block.format("Q*P - i"), "--power", "12", "--to", "pq"),
        ("expand", block.format("Q*P + 2*Q"), "--power", "3", "--to", "weyl"),
        ("commutator", block.format("Q^24*P^24"), "Q"),
        ("commutator", "P^2", block.format("Q^3*P - 1/2"), "--format", "json"),
    ]
    if tag == "qp":
        # Q^6*P^6 is one Q-P word but seven P-Q words.
        cases.append(("expand", "qp{Q^6*P^6}", "--power", "10", "--to", "pq"))
    for argv in cases:
        paren = [f"({arg})" if "{" in arg else arg for arg in argv]
        assert run(capsys, *argv) == run(capsys, *paren), argv
    code, out, _ = run(capsys, *cases[0])
    assert (code, out.startswith("P^12*Q^12 + ")) == (
        (0, True) if tag == "qp" else (2, False)
    )


_TOO_LONG = "9" * (exprio.max_int_digits() + 1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("(" * 320 + "Q" + ")" * 320, "nests deeper than"),
        ("pq{" + "(" * 101 + "Q" + ")" * 101 + "}", "nests deeper than"),
        ("Q + " + "-" * 2000 + "Q", "nests deeper than"),
        (_TOO_LONG + "*Q", "digits"),
        ("pq{Q^" + _TOO_LONG + "}", "digits"),
    ],
)
def test_nesting_and_literal_limits_exit_2(capsys, schema, text, message):
    if message == "digits" and not exprio.max_int_digits():
        pytest.skip("this Python reads ints of any length")
    code, out, err = run(capsys, "convert", text, "--to", "pq")
    assert code == 2 and not out
    assert message in err
    code, doc = run_json(
        capsys, schema, "convert", text, "--to", "pq", "--format", "json"
    )
    assert code == 2 and doc["status"] == "error"
    assert message in doc["payload"]["message"]
    assert doc["payload"]["span"]


@pytest.mark.parametrize("source", ["({n})^3*Q", "pq{{({n})^3*Q}}"])
def test_overlong_result_coefficients_exit_2(capsys, schema, source):
    limit = exprio.max_int_digits()
    if not limit:
        pytest.skip("this Python prints ints of any length")
    text = source.format(n="9" * (limit // 2 + 1))
    code, out, err = run(capsys, "convert", text, "--to", "qp")
    assert code == 2 and not out
    assert f"too long to print: more than {limit} digits" in err
    code, doc = run_json(
        capsys, schema, "convert", text, "--to", "qp", "--format", "json"
    )
    assert code == 2 and doc["status"] == "error"
    assert "too long to print" in doc["payload"]["message"]


def test_text_output_builds_no_json_form(capsys, schema, monkeypatch):
    calls = []
    real = exprio.polynomial_to_json

    def spy(poly):
        calls.append(poly)
        return real(poly)

    monkeypatch.setattr(exprio, "polynomial_to_json", spy)
    code, out, _ = run(capsys, "convert", "Q*P", "--to", "pq")
    assert code == 0 and out.strip() == "P*Q + i"
    assert calls == []
    code, doc = run_json(capsys, schema, "convert", "Q*P", "--to", "pq", "--format", "json")
    assert code == 0 and doc["payload"]["text"] == "P*Q + i"
    assert len(calls) == 1


def test_verify_orderings_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "orderings", "--max-degree", "3"
    )
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "suite, check",
    [("orderings", "adjoint symmetry"), ("hermite", "scaled-Hermite route")],
)
def test_verify_check_names_state_the_swept_range(capsys, suite, check):
    code, out, _ = run(capsys, "verify", suite, "--max-degree", "3")
    assert code == 0
    (line,) = [line for line in out.splitlines() if check in line]
    assert "m,r <= 3 " in line


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_verify_json_schema(capsys, schema, suite):
    code, doc = run_json(capsys, schema, "verify", suite, "--json")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["failed"] == 0


def test_verify_json_failure_is_strict_json(capsys, schema, monkeypatch):
    right = conv.qp_to_pq

    def wrong(m, r):
        if (m, r) == (2, 1):
            return OrderedPolynomial.monomial(Ordering.PQ, m, r)
        return right(m, r)

    monkeypatch.setattr(conv, "qp_to_pq", wrong)
    code, out, _ = run(capsys, "verify", "orderings", "--max-degree", "3", "--json")
    assert code == 1

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(out, parse_constant=refuse)
    jsonschema.validate(doc, schema)
    assert doc["status"] == "mismatch"
    failed = {c["name"]: c for c in doc["payload"]["checks"] if not c["passed"]}
    assert sorted(failed) == [
        "adjoint symmetry between qp_to_pq and pq_to_qp, m,r <= 3",
        "qp_to_pq equals rewriting, m,r <= 3",
    ]
    for check in failed.values():
        assert check["max_error"] is None
        assert check["detail"] == "first failure at (2, 1)"
    first = failed["qp_to_pq equals rewriting, m,r <= 3"]
    assert first["computed"] == "pq{P*Q^2}"
    assert first["oracle"] == exprio.render(right(2, 1))


def test_verify_text_output_shows_a_failing_check(capsys, monkeypatch):
    def failing():
        return [
            verify.CheckResult("holds", True),
            verify.CheckResult("breaks", False, computed="pq{P*Q}", oracle="pq{P*Q + i}"),
        ]

    monkeypatch.setitem(verify.SUITES, "orderings", failing)
    code, out, _ = run(capsys, "verify", "orderings")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "PASS  holds  [exact]"
    assert lines[1:4] == [
        "FAIL  breaks  [MISMATCH]",
        "      computed: pq{P*Q}",
        "      oracle:   pq{P*Q + i}",
    ]
    assert lines[-1] == "orderings: 1/2 checks passed"


def test_verify_resource_guards(capsys):
    code, _, err = run(capsys, "verify", "orderings", "--max-degree", "9")
    assert code == 2
    code, _, err = run(capsys, "verify", "commutators", "--max-degree", "9")
    assert code == 2
    code, _, err = run(capsys, "verify", "hermite", "--max-degree", "-1")
    assert code == 2 and "--max-degree must be non-negative" in err
    code, _, err = run(capsys, "verify", "wigner", "--dim", "256")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["orderings", "--dim", "5"],
        ["orderings", "--dim", "500"],
        ["transform", "--max-degree", "9"],
    ],
    ids=" ".join,
)
def test_verify_ignores_the_options_a_suite_does_not_take(capsys, argv):
    # The suite never sees these options, so their ranges are not checked.
    code, out, err = run(capsys, "verify", *argv)
    assert code == 0, err
    assert "FAIL" not in out


def test_verify_wigner_at_the_dim_cap(capsys):
    # The largest dim the CLI takes, where the suite's Wigner grids cost most.
    code, out, err = run(capsys, "verify", "wigner", "--dim", str(cli.MAX_DIM_GUARD))
    assert code == 0, err
    assert "FAIL" not in out
    assert "Laguerre kernel" in out


@pytest.mark.parametrize("dim", ["2", "7", "11"])
def test_verify_refuses_a_dim_below_the_wigner_floor(capsys, dim):
    # Below 8 the suite's 8x8 blocks do not fit; below 12 its coherent
    # states miss unit trace.  Both used to end in a traceback.
    code, _, err = run(capsys, "verify", "wigner", "--dim", dim)
    assert code == 2
    assert f"--dim must be at least {cli.MIN_DIM_GUARD}" in err


def test_transform_parseval_golden(capsys):
    code, out, _ = run(capsys, "transform", "--gaussian", "--parseval")
    assert code == 0
    lhs, rhs = (float(x) for x in out.split())
    assert abs(lhs - 0.5) < 1e-5 and abs(rhs - 0.5) < 1e-5


def test_transform_parseval_with_out_transforms_once(capsys, tmp_path, monkeypatch):
    field = phasexform.SampledField.from_function(
        lambda qg, pg: np.exp(-(pg**2) - qg**2)
    )
    want = phasexform.parseval_check(field)
    reference = tmp_path / "reference.csv"
    phasexform.forward_transform(field).to_csv(reference)
    calls = []
    chirp = phasexform._chirp_transform

    def counted(h, sign):
        calls.append(sign)
        return chirp(h, sign)

    monkeypatch.setattr(phasexform, "_chirp_transform", counted)
    path = tmp_path / "g.csv"
    code, out, _ = run(
        capsys, "transform", "--gaussian", "--parseval", "--out", str(path), "--json"
    )
    assert code == 0
    assert calls == [1.0]
    parseval = json.loads(out)["payload"]["parseval"]
    assert (parseval["lhs"], parseval["rhs"]) == want
    assert path.read_bytes() == reference.read_bytes()


def test_transform_round_trip_via_files(capsys, tmp_path):
    forward_path = tmp_path / "g.csv"
    code, _, _ = run(
        capsys, "transform", "--gaussian", "--out", str(forward_path)
    )
    assert code == 0
    back_path = tmp_path / "h.csv"
    code, _, _ = run(
        capsys,
        "transform",
        "--input",
        str(forward_path),
        "--inverse",
        "--out",
        str(back_path),
    )
    assert code == 0
    recovered = phasexform.SampledField.from_csv(back_path)
    qg, pg = np.meshgrid(recovered.q_axis, recovered.p_axis, indexing="ij")
    gauss = np.exp(-(pg**2) - qg**2)
    nq = recovered.nq
    central = slice(nq // 4, 3 * nq // 4)
    assert np.abs((recovered.values - gauss)[central, central]).max() < 1e-5


def test_transform_json_schema(capsys, schema, tmp_path):
    code, doc = run_json(
        capsys, schema, "transform", "--gaussian", "--parseval", "--json"
    )
    assert code == 0
    assert abs(doc["payload"]["parseval"]["lhs"] - 0.5) < 1e-5
    code, doc = run_json(capsys, schema, "transform", "--gaussian", "--json")
    assert code == 0
    payload = doc["payload"]
    assert payload["reliable"] is True
    assert payload["boundary_decay"] == phasexform.BOUNDARY_DECAY
    assert 0.0 <= payload["boundary_max"] < payload["boundary_decay"]
    flat = phasexform.SampledField(
        -1.0, 1.0, -1.0, 1.0, np.full((4, 3), 0.5 - 0.5j)
    )
    path = tmp_path / "flat.csv"
    flat.to_csv(path)
    with pytest.warns(phasexform.GridDomainWarning):
        code, doc = run_json(capsys, schema, "transform", "--input", str(path), "--json")
    assert code == 0
    payload = doc["payload"]
    assert payload["reliable"] is False
    assert payload["boundary_max"] == pytest.approx(abs(0.5 - 0.5j))
    assert payload["boundary_max"] >= payload["boundary_decay"]


def test_transform_input_validation(capsys, tmp_path):
    code, _, err = run(capsys, "transform", "--gaussian", "--input", "x.csv")
    assert code == 2
    code, _, err = run(capsys, "transform")
    assert code == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = run(capsys, "transform", "--input", str(empty))
    assert code == 2
    assert "cannot read input grid" in err
    # A header declaring 10^12 cells over one value line is refused at
    # line 1, without allocating the grid the header asks for.
    oversized = tmp_path / "oversized.csv"
    oversized.write_text("0,1,0,1,1000000,1000000\n0,0\n")
    out = tmp_path / "out.csv"
    code, _, err = run(capsys, "transform", "--input", str(oversized), "--out", str(out))
    assert code == 2
    assert "cannot read input grid: line 1:" in err
    assert not out.exists()
    # Cells near the float limit: a transform whose true value overflows
    # and both Parseval sides of |1e308|^2 are refused, never written as
    # nan/inf or printed as NaN/Infinity.  One such cell on a unit square
    # still has a finite transform (dq dp / pi times 1.4e308), and it is
    # written.
    huge = tmp_path / "huge.csv"
    huge.write_text("0,1,0,1,2,2\n1e308,1e308\n0,0\n0,0\n0,0\n")
    code, _, _ = run(capsys, "transform", "--input", str(huge), "--out", str(out))
    assert code == 0
    got = phasexform.SampledField.from_csv(out).values
    assert np.allclose(np.abs(got[0, 0]), 0.25 / np.pi * np.hypot(1e308, 1e308), rtol=1e-12)
    out.unlink()
    overflowing = tmp_path / "overflowing.csv"
    overflowing.write_text("0,100,0,100,2,2\n" + "1e308,1e308\n" * 4)
    code, stdout, _ = run(
        capsys, "transform", "--input", str(overflowing), "--out", str(out), "--json"
    )
    assert code == 2
    assert "overflows" in json.loads(stdout)["payload"]["message"]
    assert not out.exists()
    code, stdout, err = run(capsys, "transform", "--input", str(huge), "--parseval")
    assert code == 2 and not stdout
    assert "overflows" in err
    code, stdout, _ = run(
        capsys, "transform", "--input", str(huge), "--parseval", "--json"
    )
    assert code == 2
    assert "NaN" not in stdout and "Infinity" not in stdout


def test_transform_reports_an_unwritable_output(capsys, schema, tmp_path):
    out = tmp_path / "missing" / "x.csv"
    code, stdout, err = run(capsys, "transform", "--gaussian", "--out", str(out))
    assert code == 2 and not stdout
    assert err.startswith("cannot write output")
    code, doc = run_json(
        capsys, schema, "transform", "--gaussian", "--out", str(out), "--json"
    )
    assert code == 2
    assert doc["payload"]["message"].startswith("cannot write output")
    assert not out.parent.exists()


def test_transform_refuses_a_header_past_the_cell_cap(capsys, tmp_path):
    cap = phasexform.MAX_CSV_CELLS
    with pytest.raises(SystemExit):
        cli.main(["transform", "--help"])
    assert f"at most {cap} " in " ".join(capsys.readouterr().out.split())
    path = tmp_path / "header.csv"
    path.write_text(f"0,1,0,1,{cap // 1024 + 1},1024\n")
    code, out, err = run(capsys, "transform", "--input", str(path))
    assert code == 2 and not out
    assert err == (
        f"cannot read input grid: line 1: header declares {cap // 1024 + 1}x1024 "
        f"cells, more than the {cap} a grid file may hold\n"
    )
    # At the cap the header is accepted and the missing cells are reported.
    path.write_text(f"0,1,0,1,{cap // 1024},1024\n")
    code, out, err = run(capsys, "transform", "--input", str(path))
    assert code == 2
    assert "file ends before line 2" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["convert", "Q", "--to", "nope"])
    assert exc.value.code == 2


def test_cold_import_loads_no_scipy():
    import weylkit

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(weylkit.__file__).resolve().parents[1])
    probe = (
        "import sys, weylkit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_exact_commands_load_no_numpy():
    import weylkit

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(weylkit.__file__).resolve().parents[1])
    # Each mark prints the numpy modules loaded so far, then which of the
    # deferred modules loaded since the previous mark.
    probe = "\n".join([
        "import sys",
        "DEFERRED = ('weylkit.verify', 'fractions', 'decimal', 'json')",
        "seen = set()",
        "def mark():",
        "    numpy = [m for m in sys.modules if m.split('.')[0] == 'numpy']",
        "    new = [m for m in DEFERRED if m in sys.modules and m not in seen]",
        "    seen.update(new)",
        "    print('mark', numpy, new)",
        "import weylkit.cli as cli",
        "mark()",
        "cli.main(['convert', 'pq{Q^2*P}', '--to', 'weyl'])",
        "mark()",
        "cli.main(['convert', 'pq{Q^2*P}', '--to', 'weyl', '--format', 'json'])",
        "mark()",
        "cli.main(['verify', 'orderings', '--max-degree', '3'])",
        "mark()",
        "cli.main(['verify', 'hermite', '--max-degree', '3'])",
        "from weylkit import derivative_representation",
        "mark()",
    ])
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    lines = out.stdout.splitlines()
    assert [line for line in lines if line.startswith("mark ")] == [
        "mark [] []",
        "mark [] []",
        "mark [] ['json']",
        "mark [] ['weylkit.verify']",
        "mark [] []",
    ]
    assert lines[1] == "weyl{Q^2*P + -i*Q}"
    assert json.loads("\n".join(lines[3:lines.index("mark [] ['json']")]))["status"] == "ok"
    assert lines[lines.index("orderings: 6/6 checks passed") + 1] == "mark [] ['weylkit.verify']"
    assert lines[-2] == "hermite: 4/4 checks passed"


def test_verify_suite_names_match_the_suites(capsys):
    # The parser names the suites without loading verify.
    assert cli._SUITE_NAMES == tuple(sorted(verify.SUITES))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err
    assert all(name in err for name in verify.SUITES)


def test_verify_help_is_the_help_built_from_the_suites(capsys, monkeypatch):
    def verify_help():
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["verify", "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    help_text = verify_help()
    assert "{commutators,hermite,orderings,transform,wigner}" in help_text
    monkeypatch.setattr(cli, "_SUITE_NAMES", sorted(verify.SUITES))
    assert verify_help() == help_text


def _imports(path, top_level_only):
    """Dotted names a source file imports (relative ones start with a
    dot), each ``from`` import also as module.name; with
    ``top_level_only``, not those inside functions."""
    names = set()
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if top_level_only and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_module_layering():
    src = Path(cli.__file__).parent
    exact = ("exactnum", "opalg", "ordering", "exprio", "verify")
    imported = _imports(src / "phasexform.py", top_level_only=False)
    assert not {
        name for name in imported
        if name.lstrip(".").removeprefix("weylkit.") in exact
    }
    for module in exact + ("cli",):
        imported = _imports(src / f"{module}.py", top_level_only=True)
        assert not {n for n in imported if n.split(".")[0] == "numpy"}, module
    # Blocks become words in exprio alone; opalg defines to_expression.
    for path in src.glob("*.py"):
        if path.stem not in ("exprio", "opalg"):
            tree = ast.parse(path.read_text())
            names = {
                getattr(node, "id", None) or getattr(node, "attr", None)
                or getattr(node, "name", None)
                for node in ast.walk(tree)
            }
            assert "to_expression" not in names, path.name
    # One work model, in opalg, charged where the work is done: the parser
    # and the command line define none of it, use none of its cost
    # functions and never compare against MAX_WORK; the product and
    # conversion layers never import the parser.
    cost_model = {"MAX_WORK", "MAX_BLOCK_WORK", "_coefficient_bits", "_bit_work",
                  "_product_work", "_conversion_term_work"}
    assert cost_model - {"MAX_BLOCK_WORK"} <= set(vars(opalg))
    for module in ("exprio", "cli"):
        tree = ast.parse((src / f"{module}.py").read_text())
        top = tree.body
        defined = {getattr(node, "name", None) for node in top} | {
            target.id for node in top if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
        }
        assert not defined & cost_model, module
        used = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(tree)
        } | {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not used & (cost_model - {"MAX_WORK"}), module
        compared = {
            getattr(name, "id", None) or getattr(name, "attr", None)
            for node in ast.walk(tree) if isinstance(node, ast.Compare)
            for name in ast.walk(node)
        }
        assert "MAX_WORK" not in compared, module
    for module in ("opalg", "ordering"):
        imported = _imports(src / f"{module}.py", top_level_only=False)
        assert not {n for n in imported if "exprio" in n}, module


def test_numeric_names_load_on_first_access(capsys):
    import weylkit
    from weylkit import fockspace

    namespace = {}
    exec("from weylkit import *", namespace)
    assert set(weylkit.__all__) <= set(namespace)
    # A name left in the lazy table after its definition is gone fails here.
    assert {name for names in weylkit._LAZY.values() for name in names} <= set(weylkit.__all__)
    assert namespace["SampledField"] is phasexform.SampledField
    assert namespace["wigner_function"] is fockspace.wigner_function
    with pytest.raises(AttributeError, match="nope"):
        weylkit.__getattr__("nope")
    code, out, _ = run(capsys, "transform", "--gaussian", "--parseval")
    assert code == 0
    assert out.split() == ["0.5000000000", "0.5000000000"]
