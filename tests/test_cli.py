import json
import os
import subprocess
import sys
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitquad.cli import (
    EXIT_DIMENSION,
    EXIT_DISCREPANCY,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNSUPPORTED,
    MAX_REP_DEPTH,
    main,
    parse_rep,
    parse_spec,
    run,
)
from orbitquad.errors import (
    DimensionMismatch,
    RankOneError,
    SpecParseError,
    StructuralError,
    UnsupportedExpression,
)
from orbitquad.lie import make_sl


def invoke(argv):
    """Run the CLI in-process, capturing stdout and the exit code."""
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_parse_spec_certify():
    spec = parse_spec(["certify", "--alg", "sl:2", "--rep", "sym(3,std)",
                       "--y", "1,0,0,0", "--seed", "7"])
    assert spec.command == "certify"
    assert spec.algebra == "sl:2"
    assert spec.seed == 7
    assert len(spec.y[0]) == 4


def test_parse_spec_chordal():
    spec = parse_spec(["chordal", "--n", "4", "--k", "2", "--p", "1"])
    assert spec.command == "chordal"
    assert (spec.n, spec.k, spec.p) == (4, 2, 1)


def test_parse_rep_grammar():
    g = make_sl(2)
    assert parse_rep("std", g).dim == 2
    assert parse_rep("sym(3,std)", g).dim == 4
    assert parse_rep("dual(std)", g).dim == 2
    assert parse_rep("sym2(sym(2,std))", g).dim == 6
    assert parse_rep("tensor(std,std)", g).dim == 4
    g4 = make_sl(4)
    assert parse_rep("wedge(2,std)", g4).dim == 6
    with pytest.raises(UnsupportedExpression):
        parse_rep("spin(std)", g4)
    with pytest.raises(SpecParseError):
        parse_rep("sym(2,std", g4)


def test_exit_parse_on_bad_rational():
    # Fraction() reads the exponents, the decimal, the underscore and the
    # Arabic-Indic one, and formatting 1e5000 in the spec echo fails
    for entry in ["zz", "1e5000", "1e10000000", "0.5", "1_0", "\u0661", "1/-2", "1/0", "+", ""]:
        code, out, err = invoke(["ideal", "--alg", "sl:2", "--rep", "sym(3,std)",
                                 f"--y=1,0,{entry},0"])
        assert code == EXIT_PARSE and out == ""
        assert err == f"error: bad rational literal {entry!r}\n"


@pytest.mark.parametrize("alg", ["sl:1_0", "sl: 3", "sl:\u0663", "sl:+3", "sl:3 ", "sl:"])
def test_exit_parse_on_non_ascii_algebra(alg):
    # int() reads all but the last: the first as 10, the others as 3
    code, out, err = invoke(["decompose", "--alg", alg, "--rep", "std"])
    assert code == EXIT_PARSE and out == ""
    assert err == f"error: bad algebra spec {alg!r}\n"


@pytest.mark.parametrize("degree", ["\u00b2", "\u0662"])  # superscript two, Arabic-Indic two
def test_exit_parse_on_non_ascii_degree(degree):
    # both are str.isdigit(), and int() reads the second as 2
    code, out, err = invoke(["decompose", "--alg", "sl:2", "--rep", f"sym({degree},std)"])
    assert code == EXIT_PARSE and out == ""
    assert err == "error: expected an integer at position 4\n"


@pytest.mark.parametrize(
    "argv",
    [["chordal", "--n", "\u0664", "--k", "2", "--p", "1_0"],
     ["chordal", "--n", "4", "--k", "2", "--p", "1_0"],
     ["chordal", "--n", "4", "--k", "\u0662", "--p", "1"],
     ["chordal", "--n", "4", "--k", "2", "--p", "1", "--samples", "1_0"],
     ["chordal", "--n", "4", "--k", "2", "--p", "1", "--seed", " 1"],
     ["certify", "--alg", "sl:2", "--rep", "sym(2,std)", "--y", "1,0,0",
      "--trials", "\u0663", "--seed", "1_0"],
     ["certify", "--alg", "sl:2", "--rep", "sym(2,std)", "--y", "1,0,0", "--seed", "1_0"]],
    ids=["chordal-n", "chordal-p", "chordal-k", "chordal-samples", "chordal-seed",
         "certify-trials", "certify-seed"],
)
def test_exit_parse_on_non_ascii_integer_option(argv):
    # int() reads the underscore, the Arabic-Indic digits and the space
    code, out, err = invoke(argv)
    assert code == EXIT_PARSE and out == ""
    assert "invalid int value" in err


def test_integer_options_take_a_sign():
    base = ["chordal", "--n", "4", "--k", "2", "--p", "1"]
    assert parse_spec([*base, "--seed", "-5"]).seed == -5
    assert parse_spec([*base, "--seed", "+5"]).seed == 5


def test_exit_parse_on_unknown_flag():
    code, _, _ = invoke(["certify", "--alg", "sl:2", "--rep", "std",
                         "--y", "1,0", "--frobnicate", "1"])
    assert code == EXIT_PARSE


def test_exit_parse_on_negative_counts():
    code, out, _ = invoke(["certify", "--alg", "sl:2", "--rep", "sym(2,std)",
                           "--y", "1,0,0", "--trials", "-3"])
    assert code == EXIT_PARSE and out == ""
    code, out, _ = invoke(["chordal", "--n", "4", "--k", "2", "--p", "1",
                           "--samples", "-1"])
    assert code == EXIT_PARSE and out == ""


@pytest.mark.parametrize(
    "n,k,p,message",
    [(2, 3, 1, "need 1 <= k <= n"), (4, 2, 0, "need p >= 1"), (1, 1, 1, "need n >= 2"),
     # no two k-planes of QQ^n meet in exactly meet_dim dimensions
     (8, 5, 3, "need 2k - meet_dim <= n"), (4, 4, 1, "need 2k - meet_dim <= n"),
     (5, 3, 2, "need 2k - meet_dim <= n")],
)
def test_exit_parse_on_chordal_spec_out_of_range(n, k, p, message):
    code, out, err = invoke(["chordal", "--n", str(n), "--k", str(k), "--p", str(p)])
    assert code == EXIT_PARSE and out == ""
    assert err == f"error: {message}\n"
    with pytest.raises(SpecParseError, match=message):
        parse_spec(["chordal", "--n", str(n), "--k", str(k), "--p", str(p)])


def test_exit_parse_on_zero_vector():
    code, _, err = invoke(["ideal", "--alg", "sl:2", "--rep", "std", "--y", "0,0"])
    assert code == EXIT_PARSE
    assert "nonzero" in err
    code, _, _ = invoke(["components", "--alg", "sl:4", "--rep", "wedge(2,std)",
                         "--y", "1,0,0,0,0,0", "--y", "0,0,0,0,0,0"])
    assert code == EXIT_PARSE


def test_negative_vector_as_separate_word():
    base = ["ideal", "--alg", "sl:2", "--rep", "sym(2,std)"]
    code1, out1, _ = invoke(base + ["--y", "-1,0,0"])
    code2, out2, _ = invoke(base + ["--y=-1,0,0"])
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert json.loads(out1)["spec"]["y"] == [["-1", "0", "0"]]


def test_exit_dimension_on_wrong_length():
    argv = ["ideal", "--alg", "sl:2", "--rep", "sym(3,std)", "--y", "1,0"]
    code, out, err = invoke(argv)
    assert code == EXIT_DIMENSION and out == ""
    assert "vector length 2 != module dimension 4" in err
    with pytest.raises(DimensionMismatch):
        run(parse_spec(argv))


def test_exit_unsupported_on_degree_out_of_range():
    for rep, message in (("wedge(5,std)", "wedge degree 5 out of range 1..2"),
                         ("sym(0,std)", "sym degree 0 must be >= 1")):
        code, out, err = invoke(["decompose", "--alg", "sl:2", "--rep", rep])
        assert code == EXIT_UNSUPPORTED and out == ""
        assert message in err
        with pytest.raises(UnsupportedExpression):
            parse_rep(rep, make_sl(2))


def test_exit_unsupported_on_unknown_constructor():
    code, _, err = invoke(["ideal", "--alg", "sl:2", "--rep", "spin(std)",
                           "--y", "1,0"])
    assert code == EXIT_UNSUPPORTED
    code, _, _ = invoke(["ideal", "--alg", "so:5", "--rep", "std", "--y", "1,0"])
    assert code == EXIT_UNSUPPORTED


def test_exit_unsupported_on_symmetric_square_with_multiplicity():
    # S^2(V (x) V) at sl:2 holds the trivial module twice
    code, out, err = invoke(["components", "--alg", "sl:2", "--rep", "tensor(std,std)",
                             "--y", "1,0,0,1"])
    assert code == EXIT_UNSUPPORTED and out == ""
    assert err == "error: symmetric square is not multiplicity free\n"


def test_decompose_json():
    code, out, _ = invoke(["decompose", "--alg", "sl:4", "--rep", "sym2(wedge(2,std))"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert [c["dim"] for c in doc["result"]["isotypic"]] == [20, 1]
    assert doc["result"]["multiplicity_free"] is True


def test_ideal_json():
    code, out, _ = invoke(["ideal", "--alg", "sl:2", "--rep", "sym(2,std)",
                           "--y", "1,0,0"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["result"]["dims"] == {"V": 3, "S2V": 6, "module": 5, "ideal": 1}


def test_certify_exit_and_echo():
    code, out, _ = invoke(["certify", "--alg", "sl:2", "--rep", "sym(2,std)",
                           "--y", "1,0,0", "--seed", "7", "--trials", "10"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["spec"]["seed"] == 7
    assert doc["result"]["verdict"] == "consistent"
    assert doc["result"]["dims"] == {"V": 3, "S2V": 6, "module": 5, "ideal": 1}


def test_certify_discrepancy_maps_to_exit_5(monkeypatch):
    import orbitquad.cli as cli
    from orbitquad.orbit import CertReport

    fake = CertReport(rep_label="std", dims={}, rank_A=0, symbols=[], N=[],
                      seed=0, trials=0, verdict="discrepancy",
                      witnesses=[{"check": "fake"}])
    monkeypatch.setattr(cli, "certify_irreducibility",
                        lambda *a, **k: fake)
    code, out, _ = invoke(["certify", "--alg", "sl:2", "--rep", "std", "--y", "1,0"])
    assert code == EXIT_DISCREPANCY
    assert json.loads(out)["result"]["verdict"] == "discrepancy"


@pytest.mark.parametrize("error", [
    StructuralError("decomposition inconsistent", {"word": []}),
    RankOneError("not rank one"),
], ids=["structural", "rank_one"])
def test_library_errors_map_to_exit_5(monkeypatch, error):
    import orbitquad.cli as cli

    def raise_error(spec):
        raise error

    monkeypatch.setitem(cli._DISPATCH, "certify", raise_error)
    code, out, err = invoke(["certify", "--alg", "sl:2", "--rep", "std", "--y", "1,0"])
    assert code == EXIT_DISCREPANCY
    assert out == ""
    assert err == f"error: {error}\n"


def test_bare_value_errors_have_no_exit_arm():
    import orbitquad.cli as cli

    assert ValueError not in {t for t, _ in cli._ERROR_EXITS}


_REPS = st.one_of(
    st.sampled_from(["std", "dual(std)", "sym2(std)", "tensor(std,dual(std))",
                     "spin(std)", "wedge(2,std", "wedge(x,std)"]),
    st.builds("{}({},{})".format, st.sampled_from(["wedge", "sym"]), st.integers(0, 4),
              st.sampled_from(["std", "dual(std)"])),
)
_VECTORS = st.lists(st.sampled_from(["1", "-1", "2", "1/2", "0"] * 6 + ["x", ""]),
                    min_size=2, max_size=6).map(",".join)


@st.composite
def _cli_inputs(draw):
    command = draw(st.sampled_from(["decompose", "ideal", "certify", "components",
                                    "chordal"]))
    if command == "chordal":
        n, k, p = (draw(st.integers(lo, hi)) for lo, hi in ((1, 5), (0, 4), (0, 3)))
        return [command, "--n", str(n), "--k", str(k), "--p", str(p),
                "--samples", str(draw(st.integers(0, 1)))]
    alg = draw(st.sampled_from(["sl:2"] * 3 + ["sl:3"] * 2 + ["sl:1", "gl:2"]))
    argv = [command, "--alg", alg, "--rep", draw(_REPS), "--trials", "1"]
    if command != "decompose":
        for _ in range(draw(st.integers(1, 2)) if command == "components" else 1):
            argv.append("--y=" + draw(_VECTORS))
    return argv


_TOO_DEEP = "dual(" * 1200 + "std" + ")" * 1200


@settings(max_examples=80, deadline=None)
@given(_cli_inputs())
@example(["decompose", "--alg", "sl:2", "--rep", _TOO_DEEP])
# deeper than the recursion limit Hypothesis raises to while it runs a test
@example(["decompose", "--alg", "sl:2", "--rep", "dual(" * 5000 + "std" + ")" * 5000])
def test_cli_inputs_end_in_documented_exits(argv):
    # With no ValueError arm, a bare ValueError that some input reached would
    # escape main here as a traceback.
    code, out, err = invoke(argv)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DIMENSION, EXIT_UNSUPPORTED,
                    EXIT_DISCREPANCY, EXIT_INCONCLUSIVE)
    assert (out == "") == err.startswith("error: ")


def test_rep_nesting_is_bounded():
    at_bound = "dual(" * MAX_REP_DEPTH + "std" + ")" * MAX_REP_DEPTH
    code, out, _ = invoke(["decompose", "--alg", "sl:2", "--rep", at_bound])
    assert code == EXIT_OK and json.loads(out)["result"]["dim"] == 2
    for rep in ("dual(" + at_bound + ")", _TOO_DEEP,
                "tensor(std," + "sym2(" * 70 + "std" + ")" * 70 + ")"):
        code, out, err = invoke(["decompose", "--alg", "sl:2", "--rep", rep])
        assert code == EXIT_PARSE and out == ""
        assert err == f"error: rep expression nested deeper than {MAX_REP_DEPTH}\n"


def test_oversized_inputs_exit_6_before_anything_is_built(monkeypatch):
    import orbitquad.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("built past a cap")

    monkeypatch.setattr(cli, "make_sl", refuse)
    monkeypatch.setattr(cli, "chordal_ideal", refuse)
    certify = ["certify", "--alg", "sl:2", "--rep", "sym(3,std)", "--y", "1,0,0,1"]
    cases = [
        (certify + ["--trials", str(cli.MAX_TRIALS + 1)], "trials", cli.MAX_TRIALS + 1),
        (["decompose", "--alg", "sl:100000", "--rep", "std"], "n", 100000),
        (["certify", "--alg", "sl:17", "--rep", "std", "--y", "1"], "n", 17),
        (["decompose", "--alg", "sl:16", "--rep", "wedge(8,std)"], "dim", 12870),
        # dim V = 120 passes, S^2 V = 7260 does not
        (["ideal", "--alg", "sl:10", "--rep", "wedge(3,std)", "--y", "1"], "dim", 7260),
        (["decompose", "--alg", "sl:2", "--rep", "sym2(" * 5 + "std" + ")" * 5], "dim", 26796),
        (["chordal", "--n", "10", "--k", "3", "--p", "1"], "dim", 7260),
        (["chordal", "--n", "100000", "--k", "1", "--p", "1"], "n", 100000),
        # a sym degree is capped before C(d + k - 1, k) is computed: the dim
        # would have more digits than a message may format, take seconds to
        # compute, or be 1 on a line, where no dimension cap fires
        (["decompose", "--alg", "sl:16", "--rep", "sym(1000000,wedge(4,std))"],
         "degree", 1000000),
        (["decompose", "--alg", "sl:2", "--rep", f"sym({'9' * 4000},std)"],
         "degree", int("9" * 4000)),
        (["decompose", "--alg", "sl:2", "--rep", "sym(100000000,wedge(2,std))"],
         "degree", 10 ** 8),
        (["decompose", "--alg", "sl:2", "--rep", f"sym({10 ** 11},wedge(2,std))"],
         "degree", 10 ** 11),
    ]
    for argv, kind, value in cases:
        code, out, err = invoke(argv)
        assert code == EXIT_INCONCLUSIVE and err == ""
        assert json.loads(out)["error"]["details"] == {kind: value, "cap": getattr(
            cli, {"n": "MAX_N", "dim": "MAX_DIM", "degree": "MAX_DIM",
                  "trials": "MAX_TRIALS"}[kind])}
    # at the cap itself certify goes on to build its module
    with pytest.raises(AssertionError, match="built past a cap"):
        run(parse_spec(certify + ["--trials", str(cli.MAX_TRIALS)]))


@pytest.mark.parametrize("n,rep", [
    (2, "std"), (3, "dual(std)"), (4, "wedge(2,std)"), (2, "sym(4,std)"),
    (3, "sym2(wedge(2,std))"), (2, "tensor(sym(2,std),dual(std))"),
    (4, "wedge(3,dual(std))"), (3, "sym(2,sym2(std))"), (2, "sym(3,tensor(std,std))"),
])
def test_predicted_dim_is_the_built_dim(n, rep):
    import orbitquad.cli as cli

    assert cli._predicted_dim(cli._parse_tree(rep), n) == parse_rep(rep, make_sl(n)).dim


def test_caps_admit_the_documented_commands():
    # the largest commands of the README and ROADMAP tables: modules whose
    # symmetric square is formed, modules only decomposed, chordal (n, k)
    import orbitquad.cli as cli

    squared = [(8, "wedge(3,std)"), (8, "wedge(2,std)"), (7, "wedge(3,std)")]
    decomposed = [(8, "sym2(wedge(2,std))"), (7, "sym2(wedge(3,std))")]
    for n, rep in squared + decomposed:
        assert n <= cli.MAX_N
        d = cli._predicted_dim(cli._parse_tree(rep), n)
        assert (d * (d + 1) // 2 if (n, rep) in squared else d) <= cli.MAX_DIM
    for n, k in [(9, 3), (10, 2), (8, 3)]:
        assert n <= cli.MAX_N
        assert comb(comb(n, k) + 1, 2) <= cli.MAX_DIM


def test_certify_box_cap_exit_6(monkeypatch):
    from orbitquad import orbit

    monkeypatch.setattr(orbit, "MAX_BOX", 2)
    code, out, _ = invoke(
        ["certify", "--alg", "sl:2", "--rep", "sym(3,std)", "--y", "1,0,0,0"])
    assert code == EXIT_INCONCLUSIVE
    doc = json.loads(out)
    assert doc["error"]["kind"] == "box"


def test_chordal_reports():
    code1, out1, _ = invoke(["chordal", "--n", "4", "--k", "2", "--p", "1",
                             "--samples", "20", "--seed", "0"])
    assert code1 == EXIT_OK
    doc1 = json.loads(out1)
    assert doc1["result"]["ideal_dim"] == 1
    assert doc1["result"]["matched_tail"] == 1
    code2, out2, _ = invoke(["chordal", "--n", "4", "--k", "2", "--p", "2",
                             "--samples", "20", "--seed", "0"])
    assert code2 == EXIT_OK
    doc2 = json.loads(out2)
    assert doc2["result"]["ideal_dim"] == 0
    assert doc2["result"]["matched_tail"] == 2


def test_chordal_stabilization_cap_exit_6():
    # taken before the span was read off isotypic supports
    code, out, err = invoke(["chordal", "--n", "4", "--k", "2", "--p", "2", "--samples", "1"])
    assert code == EXIT_INCONCLUSIVE and err == ""
    assert json.loads(out)["error"] == {
        "details": {"samples": 1, "span_dim": 21},
        "kind": "stabilization",
        "message": "span still growing after 1 samples",
    }


def test_byte_level_determinism():
    argv = ["certify", "--alg", "sl:2", "--rep", "sym(2,std)", "--y", "1,0,0",
            "--seed", "3", "--trials", "8"]
    _, out1, _ = invoke(argv)
    _, out2, _ = invoke(argv)
    assert out1 == out2
    argv = ["chordal", "--n", "4", "--k", "2", "--p", "1", "--samples", "15",
            "--seed", "5"]
    _, out3, _ = invoke(argv)
    _, out4, _ = invoke(argv)
    assert out3 == out4


def test_components_command():
    code, out, _ = invoke([
        "components", "--alg", "sl:4", "--rep", "wedge(2,std)",
        "--y", "1,0,0,0,0,0", "--y", "1,0,0,0,0,1",
    ])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["result"]["supports"] == [[0], [0, 1]]
    assert doc["result"]["containments"] == [[0, 1]]
    assert doc["result"]["maximal_count"] == 1
    assert doc["result"]["bound_ok"] is True


def test_output_file(tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = invoke(["decompose", "--alg", "sl:2", "--rep", "std",
                           "--output", str(path)])
    assert code == EXIT_OK
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["result"]["dim"] == 2


def test_output_path_that_cannot_be_opened_exits_2(tmp_path):
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = invoke(["decompose", "--alg", "sl:2", "--rep", "std",
                                 "--output", str(path)])
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error: cannot write --output: ") and err.count("\n") == 1


def test_console_entry_point():
    # The child imports the orbitquad of this checkout, installed or not, and
    # wherever pytest was started: put the absolute src first on its path.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "orbitquad.cli", "decompose", "--alg", "sl:2",
         "--rep", "sym2(sym(2,std))"],
        capture_output=True, text=True, cwd=root, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert [c["dim"] for c in doc["result"]["isotypic"]] == [5, 1]
