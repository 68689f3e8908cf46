import json
import os
import subprocess
import sys

import pytest

import wittloc
from wittloc.cli import main
from wittloc.engine import bott_residue, problem_from_json
from wittloc.exprs import parse_field, parse_ring_expr, parse_witt_expr
from wittloc.witt import witt


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_the_cli_imports_no_sympy():
    src = os.path.dirname(os.path.dirname(wittloc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, wittloc.cli; assert 'sympy' not in sys.modules, 'sympy imported'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_witt_hyperbolic(capsys):
    code, out, _ = run(capsys, "witt", "<1>+<-1>", "--field", "Q")
    assert code == 0
    assert out.strip() == "0"


def test_witt_canonical_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "witt", "<8> + <18> - <2>", "--field", "Q")
    code2, out2, _ = run(capsys, "witt", "<18> + <8> - <2>", "--field", "Q")
    assert code1 == code2 == 0
    assert out1 == out2


def test_ring_sum_over_a_quadratic_field_is_decided(capsys):
    """2<1+r> - <2+2r> - <-40-8r> is 0 in W(Q(sqrt -7)): the sum is decided
    place by place, where the transfers alone could not certify it."""
    code, out, _ = run(capsys, "ring", "<1+r>*e + <1+r>*e - <2+2*r>*e - <-40-8*r>*e",
                       "--field", "Q(sqrt:-7)")
    assert code == 0
    assert out.strip() == "0"


def test_localize_projective_even(capsys):
    code, out, _ = run(capsys, "localize", "--builder", "p", "2n", "--n", "1", "--field", "Q")
    assert code == 0
    assert "degree_zero: <1>" in out


def test_localize_projective_odd(capsys):
    code, out, _ = run(capsys, "localize", "--builder", "p", "2n-1", "--n", "2", "--field", "Q")
    assert code == 0
    assert "degree_zero: 0" in out


@pytest.mark.parametrize("n", ["0", "-1"])
def test_localize_builder_rejects_n_below_one(capsys, n):
    """So do euler and ring: n is checked before the literal is read."""
    for argv in (["localize", "--builder", "p", "2n"], ["euler", "F@1"], ["ring", "e"]):
        code, out, err = run(capsys, *argv, "--n", n)
        assert code == 1 and out == ""
        assert err.strip() == "error: BadParameters: n must be >= 1"


def test_localize_grassmannian_json(capsys):
    code, out, _ = run(
        capsys, "localize", "--builder", "gr", "--m", "2", "--ambient", "4",
        "--n", "2", "--field", "Q", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["degree_zero"] == "2*<1>"


def test_localize_problem_file(tmp_path, capsys):
    doc = {
        "group": {"kind": "N", "n": 1, "field": "Q"},
        "components": [
            {"id": "tw", "residue": {"twisted": {"a": "3"}},
             "normal": "rho(3)", "restricted": "rho(3)"}
        ],
        "invert": {"M": 3},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "localize", "--problem", str(path))
    assert code == 0
    (degree,) = [line[len("degree_zero: "):] for line in out.splitlines()
                 if line.startswith("degree_zero: ")]
    # <2> - <2a> with a = 3
    Q = parse_field("Q")
    assert parse_witt_expr(degree, Q) == witt(Q, 2) - witt(Q, 6)


def test_ring_relation(capsys):
    code, out, _ = run(capsys, "ring", "(1+x)*e", "--presentation", "bn", "--n", "1")
    assert code == 0
    assert out.strip() == "0"


def test_euler_output(capsys):
    code, out, _ = run(capsys, "euler", "Sym(3)@1", "--group", "sl2n", "--n", "1")
    assert code == 0
    assert "euler:" in out and "determinacy: exact" in out


def test_euler_prints_the_canonical_rep(capsys):
    code, out, _ = run(capsys, "euler", "F@2 + F@1 + F@1", "--n", "2", "--json")
    assert code == 0
    assert json.loads(out)["rep"] == "2*F@1 + F@2"


def test_euler_rejects_a_factor_index_repeated_in_one_irrep(capsys):
    code, out, err = run(capsys, "euler", "F@1*F@1")
    assert code == 2 and out == ""
    assert err.startswith("parse error: factor index 1 repeated in one irrep")


def test_a_bad_character_is_named_at_its_own_offset(capsys):
    code, out, err = run(capsys, "witt", "<2> + <3> ; 4", "--field", "Q")
    assert code == 2 and out == ""
    assert err == "parse error: unexpected character ';' (at offset 10)\n"


def test_localize_prints_a_cleared_sum_once(capsys):
    argv = ["localize", "--builder", "gr", "--m", "2", "--ambient", "4", "--n", "2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == ["cleared: 2*<1>", "degree_zero: 2*<1>"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and "localized" not in json.loads(out)


def test_localize_reads_an_integer_written_otherwise(tmp_path, capsys):
    """<2> + <3> is 2<1> over Q(sqrt 6), so the answer prints as 2*<1>."""
    doc = {
        "group": {"kind": "SL2n", "n": 1, "field": "Q(sqrt:6)"},
        "components": [{"id": "pt", "normal": "F@1", "restricted": "(<2>+<3>)*e"}],
    }
    code, out, _ = _localize_doc(tmp_path, capsys, doc)
    assert code == 0
    assert out.splitlines() == ["cleared: 2*<1>", "degree_zero: 2*<1>"]


def test_localize_prints_an_uncleared_sum_as_one_fraction(tmp_path, capsys):
    doc = {
        "group": {"kind": "SL2n", "n": 2, "field": "Q"},
        "components": [{"id": "pt", "normal": "F@1*F@2", "restricted": "Sym(3)@1"}],
    }
    code, out, _ = _localize_doc(tmp_path, capsys, doc)
    assert code == 0
    assert out.splitlines() == ["localized: (3*<1>*e1^2) / (<-1>*e2^2 + e1^2)^1"]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "witt", "<1> +", "--field", "Q")
    assert code == 2
    assert "parse error" in err


def test_field_tag_error_names_its_offset_in_the_tag(capsys):
    code, out, err = run(capsys, "witt", "<1>", "--field", "Q(sqrt:2+x)")
    assert code == 2 and out == ""
    assert err.strip() == "parse error: unexpected token 'x' (at offset 9)"


def test_nested_field_tag_is_a_computation_error(capsys):
    code, out, err = run(capsys, "witt", "<1>", "--field", "Q(sqrt:2)(sqrt:3)")
    assert code == 1 and out == ""
    assert err.strip() == "error: UnsupportedField: quadratic extensions may not be nested"


@pytest.mark.parametrize("expr, field", [("<1/0+r>", "Q(sqrt:2)"), ("<1/7+r>", "Fp:7(sqrt:3)")])
def test_quadext_scalar_with_a_zero_denominator_exit_code(capsys, expr, field):
    code, out, err = run(capsys, "witt", expr, "--field", field)
    assert code == 2 and out == ""
    assert "parse error: bad scalar" in err


def test_ring_on_two_bn_factors(capsys):
    code, out, _ = run(capsys, "ring", "x2*e1 + e2^2*x1 + 3*x1*x2", "--presentation", "bn",
                       "--n", "2")
    assert code == 0
    assert out.strip() == "e1*x2 + x1*e2^2 + 3*<1>*x1*x2"


def test_unknown_generator_exit_code(capsys):
    code, _, err = run(capsys, "ring", "x*e + e2", "--presentation", "bn", "--n", "1")
    assert code == 2


def test_computation_error_exit_code(capsys):
    # euler of an unsupported irrep shape is a computation error, not parse
    code, _, err = run(capsys, "euler", "Sym(3)@1*F@2", "--group", "sl2n", "--n", "2")
    assert code == 1


def test_usage_error_exit_code(capsys):
    code = main(["witt"])  # missing expression
    capsys.readouterr()
    assert code == 2


def test_verify_suites_pass(capsys):
    for suite, extra in [
        ("witt-fp", ["--p-max", "5"]),
        ("lam", ["--samples", "10"]),
        ("ring-laws", ["--samples", "40"]),
        ("paper-table", ["--n-max", "3"]),
    ]:
        code, out, _ = run(capsys, "verify", suite, *extra)
        assert code == 0, (suite, out)
        assert "FAIL" not in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2


def test_verify_has_no_suite_option(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lam")
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["lam", "--a", "3"],
        ["lam", "--field", "Q"],
        ["witt-fp", "--field", "Q"],
        ["witt-fp", "--a", "3"],
        ["ring-laws", "--field", "Q"],
        ["ring-laws", "--a", "3"],
        ["paper-table", "--a", "2"],
        ["paper-table", "--field", "Q", "--a", "2"],
        ["witt-fp", "--samples", "3", "--n-max", "9", "--seed", "4"],
        ["witt-fp", "--n-max", "9"],
        ["paper-table", "--p-max", "3", "--samples", "2"],
        ["paper-table", "--seed", "1"],
        ["paper-table", "--rank-max", "2"],
        ["ring-laws", "--p-max", "5"],
        ["ring-laws", "--n-max", "2"],
        ["lam", "--rank-max", "3"],
        ["lam", "--n-max", "2"],
    ],
    ids=" ".join,
)
def test_verify_rejects_options_the_suite_does_not_read(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == "" and "parse error" in err


def test_verify_field_options_the_suite_reads(capsys):
    code, out, _ = run(capsys, "verify", "lam", "--field", "F5", "--a", "2", "--samples", "4")
    assert code == 0 and "suite lam: pass" in out
    code, out, _ = run(capsys, "verify", "paper-table", "--field", "Fp:7", "--n-max", "2")
    assert code == 0 and "suite paper-table: pass" in out


def _localize_doc(tmp_path, capsys, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "localize", "--problem", str(path))


def test_localize_quotient_with_over_a_thousand_terms(tmp_path, capsys):
    """The cleared class has 64 * 32 = 2048 terms with coefficient 1; long
    division takes one step per term and keeps no stack."""
    pairs = [f"(e1^{2 ** i}+e2^{2 ** i})" for i in range(6)]
    pairs += [f"(e3^{2 ** i}+e4^{2 ** i})" for i in range(5)]
    doc = {
        "group": {"kind": "SL2n", "n": 4, "field": "Q"},
        "components": [{"id": "c", "normal": "F@1 + F@2 + F@3 + F@4",
                        "restricted": "e1*e2*e3*e4*" + "*".join(pairs)}],
    }
    code, out, _ = _localize_doc(tmp_path, capsys, doc)
    assert code == 0
    cleared = [line for line in out.splitlines() if line.startswith("cleared: ")]
    assert len(cleared) == 1 and cleared[0].count("+") == 2047


def test_localize_prints_large_coefficients_as_counted_terms(tmp_path, capsys):
    """(e1+e2+e3+e4)^18 clears to 1,330 terms with coefficients up to
    18!/(5!*5!*4!*4!); each prints as one counted term n*<1>, and the
    printed line parses back to the library's answer."""
    doc = {
        "group": {"kind": "SL2n", "n": 4, "field": "Q"},
        "components": [{"id": "c", "normal": "F@1 + F@2 + F@3 + F@4",
                        "restricted": "e1*e2*e3*e4*(e1+e2+e3+e4)^18"}],
    }
    code, out, _ = _localize_doc(tmp_path, capsys, doc)
    assert code == 0
    (cleared,) = [line[len("cleared: "):] for line in out.splitlines()
                  if line.startswith("cleared: ")]
    want = bott_residue(problem_from_json(doc)).cleared
    assert len(want.coeffs) == 1330
    assert parse_ring_expr(cleared, want.pres) == want


def test_localize_quotient_with_a_sqrt_a_coefficient(tmp_path, capsys):
    doc = {
        "group": {"kind": "SL2n", "n": 1, "field": "Q(sqrt:5)"},
        "components": [{"id": "c", "normal": "Sym(3)@1", "restricted": "3<r>*e^2"}],
    }
    code, out, _ = _localize_doc(tmp_path, capsys, doc)
    assert code == 0
    assert "degree_zero: <r>" in out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ["witt-fp", "--p-max", "2"],
        ["paper-table", "--n-max", "0"],
        ["witt-fp", "--rank-max", "-1"],
        ["lam", "--field", "Q", "--a", "2", "--samples", "0"],
        ["lam", "--samples", "1"],
        ["ring-laws", "--samples", "-5"],
    ],
    ids=" ".join,
)
def test_verify_rejects_options_that_run_no_check(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == "" and "must be at least" in err


def test_verify_accepts_the_least_options(capsys):
    code, out, _ = run(capsys, "verify", "lam", "--field", "Q", "--a", "2", "--samples", "2")
    assert code == 0 and "suite lam: pass" in out
    code, out, _ = run(capsys, "verify", "witt-fp", "--p-max", "3", "--rank-max", "0")
    assert code == 0 and "witt-fp p=3" in out


@pytest.mark.parametrize(
    "doc, named",
    [
        ([{"group": {"kind": "N", "field": "Q"}}], "JSON object"),
        ({"components": []}, "'group'"),
        ({"group": {"kind": "N", "field": "Q"}, "components": [{"id": "c"}]}, "'normal'"),
        ({"group": {"kind": "SL2n", "n": "two", "field": "Q"}}, "'n'"),
        ({"group": {"kind": "SL2n", "n": 2.7, "field": "Q"}}, "'n'"),
        ({"group": {"kind": "N", "field": "Q"}, "invert": {"M": "x"}}, "'M'"),
        ({"group": {"kind": "N", "field": "Q"},
          "components": [{"normal": "rho(1)", "residue": {"twisted": {}}}]}, "'a'"),
    ],
    ids=["list", "no group", "no normal", "n a word", "n a float", "M a word", "no a"],
)
def test_localize_rejects_malformed_problem_files(tmp_path, capsys, doc, named):
    code, out, err = _localize_doc(tmp_path, capsys, doc)
    assert code == 2 and out == ""
    assert "parse error" in err and named in err


def test_ring_on_the_twisted_presentation(capsys):
    """--presentation twisted reads --a; without it the call is a usage
    error."""
    code, out, _ = run(capsys, "ring", "y*y", "--presentation", "twisted", "--a", "3", "--field", "Q")
    assert code == 0
    assert out.strip() == "(2*<3> + 2*<-1>)"
    code, _, err = run(capsys, "ring", "y*y", "--presentation", "twisted", "--field", "Q")
    assert code == 2
    assert "needs --a" in err


def test_localize_prints_its_flags(capsys):
    code, out, _ = run(capsys, "localize", "--builder", "p", "2n", "--n", "1", "--field", "Fp:7")
    assert code == 0
    assert "flags: finite_char" in out.splitlines()


def test_localize_flags_odd_characteristic_of_an_extension(capsys):
    code, out, _ = run(capsys, "localize", "--builder", "p", "2n", "--n", "1", "--field", "Fp:7(sqrt:3)")
    assert code == 0
    assert "flags: finite_char" in out.splitlines()


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["ring", "e", "--presentation", "bsl2n", "--a", "3"], "--a"),
        (["ring", "x*e", "--presentation", "bn", "--a", "3"], "--a"),
        (["ring", "y", "--presentation", "twisted", "--a", "3", "--n", "2"], "--n"),
        (["ring", "y", "--presentation", "twisted", "--a", "3", "--n", "1"], "--n"),
        (["localize", "--builder", "p", "2n", "--m", "2"], "--m"),
        (["localize", "--builder", "p", "2n-1", "--n", "2", "--ambient", "4"], "--ambient"),
        (["euler", "rho(3)", "--group", "n", "--n", "3"], "--n"),
    ],
    ids=["ring bsl2n --a", "ring bn --a", "ring twisted --n", "ring twisted --n 1",
         "localize p --m", "localize p --ambient", "euler n --n"],
)
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, argv, unread):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "does not read" in err and unread in err


@pytest.mark.parametrize("extra", [["--field", "Q"], ["--n", "2"], ["--builder", "p", "2n"],
                                   ["--m", "2"]], ids=lambda x: x[0])
def test_localize_problem_reads_no_builder_options(tmp_path, capsys, extra):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"group": {"kind": "N", "field": "Q"}}))
    code, out, err = run(capsys, "localize", "--problem", str(path), *extra)
    assert code == 2 and out == ""
    assert f"does not read {extra[0]}" in err
    assert run(capsys, "localize", "--problem", str(path))[0] == 0


def test_localize_has_no_a_option(capsys):
    code, out, _ = run(capsys, "localize", "--builder", "p", "2n", "--a", "3")
    assert code == 2 and out == ""


def test_options_that_are_read_still_work(capsys):
    assert run(capsys, "ring", "e1*e2", "--presentation", "bsl2n", "--n", "2")[:2] == (0, "e1*e2\n")
    assert run(capsys, "euler", "rho(3)", "--group", "n")[0] == 0
    assert run(capsys, "euler", "F@2", "--group", "sl2n", "--n", "2")[1] == "euler: e2\ndeterminacy: exact\nknown_square: e2^2\n"


def test_localize_rejects_a_misspelled_component_key(tmp_path, capsys):
    doc = {"group": {"kind": "N", "field": "Q"},
           "components": [{"normal": "rho(3)", "restricetd": "rho(1)"}]}
    code, out, err = _localize_doc(tmp_path, capsys, doc)
    assert code == 2 and out == ""
    assert err == "parse error: component 0 has unknown key 'restricetd'\n"


def test_localize_reports_a_mistyped_restricted_representation(tmp_path, capsys):
    """An irrep name first makes a representation literal, so its own parse
    error is reported, not one from reading it as a ring expression."""
    doc = {"group": {"kind": "N", "field": "Q"},
           "components": [{"normal": "rho(3)", "restricted": "rho(3"}]}
    code, out, err = _localize_doc(tmp_path, capsys, doc)
    assert code == 2 and out == ""
    assert err == "parse error: unexpected end of expression (at offset 5)\n"
    doc["components"][0]["restricted"] = "rho(3) + e"
    code, out, err = _localize_doc(tmp_path, capsys, doc)
    assert code == 2 and err == "parse error: unknown irrep 'e' (at offset 9)\n"
