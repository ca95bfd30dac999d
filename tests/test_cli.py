import enum
import hashlib
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import example, given, settings

from freeprod import cli, free_product, specfiles, words
from freeprod.free_product import Part
from freeprod.errors import (
    BadFactorIndexError,
    ForeignElementError,
    OrderTooSmallError,
    SpecSyntaxError,
)
from freeprod.sampling import random_reduced
from freeprod.words import parse_constant, parse_word

CASES = Path(__file__).resolve().parent.parent / "cases"


def run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, cli.REPORT_SCHEMA)
    return code, report


# -- spec file parsing --------------------------------------------------------


def test_parse_group_spec_p23():
    g = specfiles.parse_group_spec("factors: cyclic 2; cyclic 3\nlabels: a; b")
    assert [f.order for f in g.factors] == [2, 3]
    assert g.generator_labels == ("a", "b")


def test_parse_group_spec_example1():
    g = specfiles.parse_group_spec((CASES / "example1.grp").read_text())
    assert [f.order for f in g.factors] == [6, 2]
    assert g.generator_labels == ("a", "b", "c")
    d3 = g.factors[0]
    assert d3.element_order(d3.mul(d3.generators[0][1], d3.generators[1][1])) == 3


def test_parse_group_spec_rejects_order_one():
    with pytest.raises(OrderTooSmallError):
        specfiles.parse_group_spec("factors: cyclic 1\nlabels: a")


def test_parse_group_spec_rejects_bad_arity():
    with pytest.raises(SpecSyntaxError):
        specfiles.parse_group_spec("factors: dihedral 3\nlabels: a")


def test_parse_group_spec_table_descriptor():
    g = specfiles.parse_group_spec(
        "factors: table rows=0,1:1,0 gens=1; cyclic 2\nlabels: a; b"
    )
    assert [f.order for f in g.factors] == [2, 2]


def test_parse_group_spec_nested_product():
    g = specfiles.parse_group_spec(
        "factors: product [product [cyclic 2, cyclic 2], cyclic 2]\nlabels: a,b,c"
    )
    assert g.factors[0].order == 8


def test_parse_group_spec_makes_up_the_same_labels_each_time():
    # Generators take the labels line's labels while a descriptor is built,
    # and made-up labels only past those; they are numbered per parse.
    text = "factors: product [cyclic 2, dihedral 3]; table rows=0,1:1,0 gens=1\nlabels: a,b,c; d"
    first, second = (specfiles.parse_group_spec(text) for _ in range(2))
    assert [f.generators for f in first.factors] == [f.generators for f in second.factors]
    built = [specfiles._build_descriptor("product [cyclic 2, dihedral 3]",
                                         (f"tmp{i}" for i in range(1, 9)),
                                         [specfiles.MAX_SPEC_CELLS])
             for _ in range(2)]
    assert built[0].generators == built[1].generators
    assert [label for label, _ in built[0].generators] == ["tmp1", "tmp2", "tmp3"]


@pytest.mark.parametrize("factors, labels, error, message", [
    # a wrong count is reported first, whatever the labels hold
    ("dihedral 3; cyclic 2", "a; c", "SpecSyntaxError",
     "factor 'dihedral 3' has 2 generators, got labels ['a']"),
    ("cyclic 2; cyclic 3", "a,x; b", "SpecSyntaxError",
     "factor 'cyclic 2' has 1 generators, got labels ['a', 'x']"),
    ("dihedral 3; cyclic 2", "a,b,1x; c", "SpecSyntaxError",
     "factor 'dihedral 3' has 2 generators, got labels ['a', 'b', '1x']"),
    ("dihedral 3; cyclic 2", "1x; c", "SpecSyntaxError",
     "factor 'dihedral 3' has 2 generators, got labels ['1x']"),
    ("dihedral 3", "tmp1", "SpecSyntaxError",
     "factor 'dihedral 3' has 2 generators, got labels ['tmp1']"),
    # bad labels, each factor's labels checked together
    ("cyclic 2; cyclic 3", "1a; b", "InvalidLabelError", "bad generator label '1a'"),
    ("cyclic 2; cyclic 3", "x1; b", "InvalidLabelError", "label 'x1' is reserved for variables"),
    ("table rows=0,1:1,0 gens=1", "a-b", "InvalidLabelError", "bad generator label 'a-b'"),
    ("dihedral 3; cyclic 2", "a,a; c", "DuplicateLabelError", "duplicate labels in ['a', 'a']"),
    ("product [product [cyclic 2, cyclic 2], cyclic 2]", "a,a,b", "DuplicateLabelError",
     "duplicate labels in ['a', 'a', 'b']"),
    ("cyclic 2; cyclic 3", "a; a", "DuplicateLabelError", "label 'a' used by two factors"),
    # a descriptor's own error comes before its labels'
    ("product [cyclic 2, cyclic 1000000000]", "1a,b", "GroupTooLargeError",
     "factor 'cyclic 1000000000' exceeds the 2,097,152 table cells a group spec may build"),
    ("table rows=0,1:1,0 gens=1,5", "1a,b", "ForeignElementError",
     "generator 1 (counting from 0) has bad id 5"),
])
def test_parse_group_spec_label_errors_are_pinned(factors, labels, error, message):
    with pytest.raises(Exception) as caught:
        specfiles.parse_group_spec(f"factors: {factors}\nlabels: {labels}")
    assert (type(caught.value).__name__, str(caught.value)) == (error, message)


def test_parse_subgroup_spec(z6z2):
    data = specfiles.parse_subgroup_spec(
        (CASES / "example2.sub").read_text(), z6z2
    )
    assert data.free_rank == 0
    assert len(data.parts) == 2
    assert data.parts[1].conjugator == z6z2.generator("c")


def test_parse_subgroup_spec_rejects_cross_factor_word(z6z2):
    with pytest.raises(ForeignElementError):
        specfiles.parse_subgroup_spec(
            "free_rank: 0\npart: factor=0 gens=c conj=1", z6z2
        )


def test_parse_ball_spec(z6z2):
    parts = specfiles.parse_ball_spec("a; b@c", z6z2)
    assert [p[0] for p in parts] == [0, 0]
    assert parts[1][2] == z6z2.generator("c")
    kv = specfiles.parse_ball_spec("factor=0 gens=a conj=1; factor=0 gens=b conj=c", z6z2)
    assert [(p[0], p[1]) for p in kv] == [(p[0], p[1]) for p in parts]
    # both forms go through one part parser, which range-checks the factor
    assert kv[1] == parts[1] == Part.of(z6z2, 0, [z6z2.generator_map["b"][1]], z6z2.generator("c"))
    with pytest.raises(BadFactorIndexError):
        specfiles.parse_ball_spec("factor=9 gens=1", z6z2)


# -- word round trip ----------------------------------------------------------


def test_word_round_trip(p23, s3z2, kleinz2):
    rng = random.Random(77)
    for group in (p23, s3z2, kleinz2):
        for _ in range(150):
            u = random_reduced(rng, group, 0, 6)
            assert parse_constant(u.as_word(), group) == u


# -- subcommands ---------------------------------------------------------------


def test_cli_eval(capsys):
    code, report = run_json(capsys, [
        "eval", "--group", str(CASES / "p23.grp"), "--word", "a b b",
    ])
    assert code == 0
    assert report["verdict"] == "ok"
    assert report["witnesses"][0]["normal_form"] == "a b^2"


def test_cli_order_and_reduce(capsys):
    code, report = run_json(capsys, [
        "order", "--group", str(CASES / "p23.grp"), "--word", "a b",
    ])
    assert code == 0 and report["witnesses"][0]["order"] == "infinite"
    code, report = run_json(capsys, [
        "reduce", "--group", str(CASES / "p23.grp"), "--word", "b a b^2",
    ])
    assert code == 0
    assert report["witnesses"][0] == {
        "word": "b a b^2", "conjugator": "b", "core": "a", "core_norm": 1,
    }


EXPECTED_EXAMPLE1_VIOLATIONS = [
    {"kind": "condition2", "factor": 0, "parts": [0, 1],
     "f": "a", "g": "b a", "k1": 1, "k2": 1},
    {"kind": "condition2", "factor": 0, "parts": [1, 0],
     "f": "b", "g": "a b", "k1": 1, "k2": 1},
]

EXPECTED_EXAMPLE2_VIOLATIONS = [
    {"kind": "condition2", "factor": 0, "parts": [0, 1],
     "f": "a b", "g": "1", "k1": 3, "k2": 2},
    {"kind": "condition2", "factor": 0, "parts": [1, 0],
     "f": "a b", "g": "1", "k1": 2, "k2": 3},
]


def test_cli_check_example1_bit_for_bit(capsys):
    code, report = run_json(capsys, [
        "check", "--group", str(CASES / "example1.grp"),
        "--subgroup", str(CASES / "example1.sub"),
    ])
    assert code == 1
    assert report["verdict"] == "fails-necessary"
    assert report["violations"] == EXPECTED_EXAMPLE1_VIOLATIONS


def test_cli_check_example2_bit_for_bit(capsys):
    code, report = run_json(capsys, [
        "check", "--group", str(CASES / "example2.grp"),
        "--subgroup", str(CASES / "example2.sub"),
    ])
    assert code == 1
    assert report["violations"] == EXPECTED_EXAMPLE2_VIOLATIONS


def test_cli_check_klein_passes(capsys):
    code, report = run_json(capsys, [
        "check", "--group", str(CASES / "klein.grp"),
        "--subgroup", str(CASES / "klein.sub"),
    ])
    assert code == 0
    assert report["verdict"] == "passes-necessary-inconclusive"
    assert report["violations"] == []


@pytest.mark.parametrize("stem, counters", [
    # order-300 factor, two parts of order 2: 2 * 300 * 2 conjugates
    ("d150", {"pairs": 2, "table_entries": 1200}),
    # <a> and <ab>^c in D138: 276 * 2 + 276 * 138 conjugates; every f of
    # the order-276 factor is scanned in both part orders
    ("d138", {"pairs": 2, "table_entries": 38640}),
])
def test_cli_check_dihedral_cases_pass(capsys, stem, counters):
    code, report = run_json(capsys, [
        "check", "--group", str(CASES / f"{stem}.grp"),
        "--subgroup", str(CASES / f"{stem}.sub"),
    ])
    assert code == 0
    assert report["verdict"] == "passes-necessary-inconclusive"
    assert report["violations"] == []
    assert report["counters"] == counters


def test_cli_solve_found(capsys):
    code, report = run_json(capsys, [
        "solve", "--group", str(CASES / "p23.grp"),
        "--eq", "[x1,x2] = 1", "--ball", "a;b", "--depth", "1",
    ])
    assert code == 0
    assert report["verdict"] == "solved"
    assert report["witnesses"][0] == {"x1": "1", "x2": "1"}


def test_cli_solve_no_solution(capsys):
    code, report = run_json(capsys, [
        "solve", "--group", str(CASES / "p23.grp"),
        "--eq", "x1^2 = a b", "--ball", "a;b", "--depth", "2",
    ])
    assert code == 1
    assert report["verdict"] == "no-solution-in-set"


def test_cli_verify_theorem2(capsys):
    code, report = run_json(capsys, ["verify-theorem2", "--range", "2"])
    assert code == 0
    assert report["verdict"] == "verified"
    assert report["violations"] == []
    # per case: 5^3 substitutions, with (x2, x3) bound once per (t, s), and
    # the steps merged once per distinct tuple of input values; a case
    # counts only the merges its memo partner (e3 flipped) has not done
    cases = report["witnesses"][0]["cases"]
    assert len(cases) == 8
    assert all(c["evaluations"] == 125 and c["bindings"] == 25 for c in cases)
    assert [c["merges"] for c in cases] == [59, 75, 115, 0, 235, 40, 0, 52]
    # one row of x1 values per distinct tuple of bound values, counted by
    # the case that decided it first
    assert [c["rows"] for c in cases] == [5, 5, 25, 4, 25, 4, 6, 6]


def test_cli_verify_lemma4(capsys, tmp_path):
    code, report = run_json(capsys, [
        "verify-lemma4", "--group", str(CASES / "p23.grp"),
        "--trials", "20", "--seed", "1",
    ])
    assert code == 0 and report["verdict"] == "verified"
    code, report = run_json(capsys, [
        "verify-lemma4", "--group", str(CASES / "p23.grp"),
        "--trials", "1", "--f", "a b",
    ])
    assert report["witnesses"][0] == {"f": "a b", "p": 5, "k": [1, 2]}
    # f = a b has infinite order, so its cyclic powers are checked
    assert report["infinite_order_checked"] == 1


def test_cli_verify_lemma5(capsys):
    code, report = run_json(capsys, [
        "verify-lemma5", "--group", str(CASES / "example2.grp"),
        "--f", "a b", "--g", "c", "--k1", "3", "--k2", "2", "--depth", "3",
    ])
    assert code == 0
    w = report["witnesses"][0]
    assert w["N"] == 13 and w["generator_solution_ok"]
    assert w["ball_search"] == "no-solution-in-set"


def test_cli_verify_lemma5_reports_fused_work(capsys):
    # F^39 x3 F^26 x3^-1 with F = x1 x2: the 2,500 (x1, x2) pairs of the
    # depth-6 ball give 442 distinct values of F, each decided once.
    argv = ["verify-lemma5", "--group", str(CASES / "example2.grp"),
            "--f", "a b", "--g", "c", "--k1", "3", "--k2", "2"]
    for depth, tuples, values in (("6", 2500, 442), ("8", 11236, 1786)):
        code, report = run_json(capsys, argv + ["--depth", depth])
        assert code == 0 and report["verdict"] == "verified"
        w = report["witnesses"][0]
        assert w["ball_search"] == "no-solution-in-set"
        assert (w["outer_tuples"], w["outer_values"]) == (tuples, values)
        assert w["ball_size"] ** 2 == tuples


def test_cli_verify_lemma5_kernel_work_is_pinned(capsys, monkeypatch):
    # F^39 x3 F^26 x3^-1 with F = x1 x2 decides each value of F once: F is
    # split once, B = F^26 and F^-39 are built from that split (F^-39 by
    # one inversion of F, none for a core of norm <= 1), B's split comes
    # with it, and T = F^-39 rhs is one seam merge and one more split, in
    # the conjugacy test: two splits per value (7,162 at depth 10, 442 at
    # depth 6).  The 4 powers and 4 more splits are build_lemma5's, the 6
    # more merges the ball's.
    names = ("_cyclic_split", "power_syllables", "_seam_merge", "_inverse_syllables")
    counts = dict.fromkeys(names, 0)

    def counted(name, real):
        def spy(*args):
            counts[name] += 1
            return real(*args)
        return spy

    for name in names:
        spy = counted(name, getattr(free_product, name))
        monkeypatch.setattr(free_product, name, spy)
        monkeypatch.setattr(words, name, spy)
    argv = ["verify-lemma5", "--group", str(CASES / "example2.grp"),
            "--f", "a b", "--g", "c", "--k1", "3", "--k2", "2"]
    for depth, work in (("6", (888, 4, 890, 400)), ("10", (14328, 4, 14330, 6952))):
        counts.update(dict.fromkeys(names, 0))
        assert cli.main(argv + ["--depth", depth]) == 0
        assert capsys.readouterr().err == ""
        assert tuple(counts.values()) == work


def test_cli_verify_lemma5_names_the_image_it_covers(capsys):
    # F = x1 x2 over the depth-6 ball runs over B_12: the certificate says
    # which values it decided and why they cover every pair.  F = x2 x1 x2
    # repeats a variable, so the line is plain.
    argv = ["verify-lemma5", "--group", str(CASES / "example2.grp"),
            "--g", "c", "--k1", "3", "--k2", "2"]
    assert cli.main(argv + ["--f", "a b", "--depth", "6"]) == 0
    assert capsys.readouterr().out == (
        "N = 13; generator substitution satisfies the equation; search over the depth-6 "
        "ball (50 elements): no F = x1 x2 in B_12 (442 values) has a solution; by "
        "B_6*B_6 = B_12 this covers all 2,500 pairs\n"
    )
    assert cli.main(argv + ["--f", "b a b", "--depth", "4"]) == 0
    assert capsys.readouterr().out.endswith("(22 elements): no solution\n")
    code, report = run_json(capsys, argv + ["--f", "b a b", "--depth", "4"])
    w = report["witnesses"][0]
    assert (w["outer_tuples"], w["outer_values"]) == (22**2, 202)
    # The line claims coverage exactly when the solver's image walk ran over
    # F itself.  For F = (x1 x2)^2, and for F = x3 with g = x1 x2, it walks
    # the run x1 x2, not F; g = x1 x3 makes x1 a run of its own, so there
    # is no image walk.
    code, report = run_json(capsys, argv + ["--f", "a b", "--depth", "6"])
    w = report["witnesses"][0]
    assert (w["F"], w["image"]) == ("x1 x2", {"run": "x1 x2", "depth": 12})
    lemma5 = ["verify-lemma5", "--group", str(CASES / "example2.grp"), "--k1", "1", "--k2", "1"]
    walked = {"run": "x1 x2", "depth": 8}
    for f, g, depth, F, image in (("(a b)^2", "c", "4", "(x1 x2)^2", walked),
                                  ("c", "a b", "4", "x3", walked),
                                  ("a b", "a c", "2", "x1 x2", None)):
        assert cli.main(lemma5 + ["--f", f, "--g", g, "--depth", depth]) == 0
        assert capsys.readouterr().out.endswith(" elements): no solution\n")
        code, report = run_json(capsys, lemma5 + ["--f", f, "--g", g, "--depth", depth])
        assert (report["witnesses"][0]["F"], report["witnesses"][0]["image"]) == (F, image)
    # solve: no value of x1 x2 in B_6 has a hit, so the walk ends when the
    # image runs out, and the ball is reported as before
    code, report = run_json(capsys, ["solve", "--group", str(CASES / "p23.grp"),
                                     "--eq", "x1 x2 x3 = (a b)^9", "--ball", "a;b",
                                     "--depth", "3"])
    assert code == 1
    assert report["counters"] == {"ball_size": 14, "membership_queries": 50,
                                  "outer_tuples": 14**2, "outer_values": 50,
                                  "image": {"run": "x1 x2", "depth": 6}}


def test_cli_solve_first_stops_at_the_first_pair_with_a_solution(capsys):
    # x1 x2 runs over B_2d, 976,561 elements at depth 4 and about 6*10^8 at
    # depth 6, but (1, 1) solves x1 x2 x3 = a with x3 = a: the first pair
    # is decided before any value of the image, and ends the walk
    argv = ["solve", "--group", str(CASES / "example2.grp"), "--eq", "x1 x2 x3 = a",
            "--ball", "a,b;a,b@c"]
    for depth, size in ((4, 1561), (6, 39061)):
        code, report = run_json(capsys, argv + ["--depth", str(depth)])
        assert code == 0 and report["witnesses"] == [{"x1": "1", "x2": "1", "x3": "a"}]
        assert report["counters"] == {"ball_size": size, "membership_queries": 1,
                                      "outer_tuples": 1, "outer_values": 1,
                                      "image": {"run": "x1 x2", "depth": 2 * depth}}


def test_cli_solve_reports_fused_work(capsys):
    # x1 x2 occurs only as a product: (x1, x2) pairs with one product share
    # one conjugacy test, and every solution is still listed and re-checked
    argv = ["solve", "--group", str(CASES / "p23.grp"), "--ball", "a;b", "--depth", "4"]
    p23 = specfiles.parse_group_spec((CASES / "p23.grp").read_text())
    ball = free_product.enumerate_ball(p23, specfiles.parse_ball_spec("a;b", p23), 4)
    assert len({(x1 * x2).syllables for x1 in ball for x2 in ball}) == 106
    fused = "(x1 x2)^2 x3 (x1 x2)^-1 x3^-1 = 1"
    code, report = run_json(capsys, argv + ["--eq", fused, "--all"])
    assert code == 0
    assert report["counters"] == {"ball_size": 22, "membership_queries": 0,
                                  "outer_tuples": 22**2, "outer_values": 106,
                                  "image": {"run": "x1 x2", "depth": 8}}
    # x1 x2 = 1 gives F = 1, where every x3 solves it: 22 pairs x 22 values
    assert len(report["witnesses"]) == 22 * 22
    code, report = run_json(capsys, argv + ["--eq", fused])
    assert code == 0 and report["witnesses"] == [{"x1": "1", "x2": "1", "x3": "1"}]
    assert report["counters"]["outer_tuples"] == report["counters"]["outer_values"] == 1


def test_cli_verify_lemma7(capsys):
    code, report = run_json(capsys, [
        "verify-lemma7", "--group", str(CASES / "p23.grp"),
        "--trials", "50", "--seed", "3",
    ])
    assert code == 0 and report["verdict"] == "verified"


def test_cli_axis(capsys):
    code, report = run_json(capsys, [
        "axis", "--group", str(CASES / "p23.grp"), "--word", "a b",
        "--window", "1",
    ])
    assert code == 0
    w = report["witnesses"][0]
    assert w["type"] == "hyperbolic" and w["translation_edges"] == 4
    assert "E:1" in w["vertices"] and "C0:1" in w["vertices"]

    code, report = run_json(capsys, [
        "axis", "--group", str(CASES / "p23.grp"), "--word", "b a b^2",
    ])
    assert report["witnesses"][0] == {"type": "elliptic", "fixed_vertex": "C0:b"}


# The exact text (no --json) of every subcommand: argv with group and
# subgroup files named by their stem in cases/, exit code, stdout.  Each
# row is keyed by its test id, so that a row added anywhere renames no
# other test: the first 24 keep the ids of their first positions, and a
# later row is named by its argv.
GOLDEN_TEXT = {
    "0-eval": (["eval", "--group", "p23", "--word", "a b b"], 0,
               "a b b  ->  a b^2   (norm 2)\n"),
    "1-order": (["order", "--group", "p23", "--word", "b"], 0, "order(b) = 3\n"),
    # above the power cap: the order is read from the base
    "2-order": (["order", "--group", "p23", "--word", "(a b)^6833241672693788912"], 0,
                "order((a b)^6833241672693788912) = infinite\n"),
    "3-reduce": (["reduce", "--group", "p23", "--word", "b a b^2"], 0,
                 "b a b^2 = c * core * c^-1 with c = b, core = a (norm 1)\n"),
    "4-check": (["check", "--group", "example1", "--subgroup", "example1"], 1,
                "fails the necessary conditions:\n"
                "  parts 0 and 1 in factor 0: f = a with f^1 in part 0 and f^1 in conjugate of "
                "part 1 by g = b a\n"
                "  parts 1 and 0 in factor 0: f = b with f^1 in part 1 and f^1 in conjugate of "
                "part 0 by g = a b\n"),
    "5-check": (["check", "--group", "klein", "--subgroup", "klein"], 0,
                "passes the necessary conditions (inconclusive: they are not sufficient)\n"),
    "6-solve": (["solve", "--group", "p23", "--eq", "[x1,x2] = 1", "--ball", "a;b",
                 "--depth", "1"], 0,
                "solution in the depth-1 ball (4 elements):\n  x1 = 1, x2 = 1\n"),
    "7-solve": (["solve", "--group", "p23", "--eq", "x1^2 = a b", "--ball", "a;b",
                 "--depth", "2"], 1,
                "no solution among the 8 ball elements (depth 2)\n"),
    # answered by membership alone: the ball is never built
    "8-solve": (["solve", "--group", "example2", "--eq", "x1 = c a c b", "--ball", "a,b;a,b@c",
                 "--depth", "2"], 0, "solution in the depth-2 ball:\n  x1 = c a c b\n"),
    "9-solve": (["solve", "--group", "example2", "--eq", "x1 = c", "--ball", "a,b;a,b@c",
                 "--depth", "2"], 1, "no solution in the depth-2 ball\n"),
    "10-verify-theorem2": (
        ["verify-theorem2", "--range", "2"], 0,
        "1000 evaluations over k,t,s in [-2,2]: all case formulas confirmed, 0 matches against "
        "the target\n"
        "  note: case (1, 1, 0) sign-variant (-4, 4, -4) is excluded by direct evaluation; "
        "verified form is (4, -4, -4)\n"
        "  note: case (1, 1, 1) sign-variant (-4, 0, 4) is excluded by direct evaluation; "
        "verified form is (4, 0, -4)\n"),
    "11-verify-lemma4": (
        ["verify-lemma4", "--group", "p23", "--trials", "5", "--seed", "1"], 0,
        "5 construction(s) verified, 1 infinite-order coefficient(s) checked against "
        "cyclic-power substitutions (|n| <= 20): ok\n"),
    "12-verify-lemma4": (
        ["verify-lemma4", "--group", "p23", "--trials", "5", "--f", "a b"], 0,
        "1 construction(s) verified, 1 infinite-order coefficient(s) checked against "
        "cyclic-power substitutions (|n| <= 20): ok\n"),
    "13-verify-lemma5": (
        ["verify-lemma5", "--group", "example2", "--f", "a b", "--g", "c", "--k1", "3", "--k2", "2",
         "--depth", "2"], 0,
        "N = 13; generator substitution satisfies the equation; search over the depth-2 ball "
        "(8 elements): no F = x1 x2 in B_4 (22 values) has a solution; by B_2*B_2 = B_4 this "
        "covers all 64 pairs\n"),
    "14-verify-lemma5": (
        ["verify-lemma5", "--group", "example2", "--f", "b a b", "--g", "c", "--k1", "3",
         "--k2", "2", "--depth", "2"], 0,
        "N = 13; generator substitution satisfies the equation; search over the depth-2 ball "
        "(8 elements): no solution\n"),
    "15-verify-lemma7": (
        ["verify-lemma7", "--group", "p23", "--trials", "20", "--seed", "3"], 0,
        "20 trials: core norm exceeded (N1+N2-4)*|A| in all cases (min margin 4)\n"),
    "16-axis": (["axis", "--group", "p23", "--word", "b a b^2"], 0,
                "b a b^2 is elliptic; fixes C0:b\n"),
    "17-axis": (["axis", "--group", "p23", "--word", "a b", "--window", "1"], 0,
                "a b is hyperbolic; translation length 4 edges\n"
                "axis window: E:b^2 a  C0:b^2  E:b^2  C1:1  E:1  C0:1  E:a  C1:a  E:a b  C0:a b  "
                "E:a b a  C1:a b a\n"),
    # one solve per solver path (see GOLDEN_SOLVE_PATHS)
    "18-solve": (["solve", "--group", "example2", "--eq", "x1 x2 x3 = a", "--ball", "a,b;a,b@c",
                  "--depth", "2"], 0,
                 "solution in the depth-2 ball (61 elements):\n  x1 = 1, x2 = 1, x3 = a\n"),
    "19-solve": (["solve", "--group", "example2", "--eq", "x3 x1 x2 x3^-1 = c a c",
                  "--ball", "a,b;a,b@c", "--depth", "2"], 0,
                 "solution in the depth-2 ball (61 elements):\n  x1 = 1, x2 = c a c, x3 = 1\n"),
    "20-solve": (["solve", "--group", "p23", "--eq", "(x1 x2)^2 x3^2 = 1", "--ball", "a;b",
                  "--depth", "3"], 0,
                 "solution in the depth-3 ball (14 elements):\n  x1 = 1, x2 = 1, x3 = 1\n"),
    "21-solve": (["solve", "--group", "p23", "--eq", "[x1,x2]^-1 = 1", "--ball", "a;b",
                  "--depth", "4"], 0,
                 "solution in the depth-4 ball (22 elements):\n  x1 = 1, x2 = 1\n"),
    "22-solve": (["solve", "--group", "p23", "--eq", "x1^3 x2 x1^2 x2^-1 = a b a b a b^2 a b a",
                  "--ball", "a;b", "--depth", "6", "--all"], 0,
                 "solution in the depth-6 ball (50 elements):\n  x1 = a b, x2 = a\n"
                 "  x1 = a b, x2 = b\n  x1 = a b, x2 = a b^2 a\n  x1 = a b, x2 = b a b\n"
                 "  x1 = a b, x2 = a b^2 a b^2 a\n  x1 = a b, x2 = b a b a b\n"),
    # a witness with g != 1 and k2 >= 2 (cases/c3d4.sub)
    "23-check": (["check", "--group", "c3d4", "--subgroup", "c3d4"], 1,
                 "fails the necessary conditions:\n"
                 "  parts 0 and 1 in factor 0: f = t a b a with f^2 in part 0 and f^3 in "
                 "conjugate of part 1 by g = a b\n"
                 "  parts 1 and 0 in factor 0: f = t b with f^3 in part 1 and f^2 in "
                 "conjugate of part 0 by g = 1\n"),
    # a kept power, x1^2, on the single-occurrence path (see GOLDEN_SOLVE_PATHS)
    "solve --group p23 --eq (x1 a x2^-1)^-1 x1^2 = b --ball a;b --depth 3 --all": (
        ["solve", "--group", "p23", "--eq", "(x1 a x2^-1)^-1 x1^2 = b", "--ball", "a;b",
         "--depth", "3", "--all"], 0,
        "solution in the depth-3 ball (14 elements):\n  x1 = 1, x2 = b a\n  x1 = a, x2 = b\n"
        "  x1 = b, x2 = a\n  x1 = b^2, x2 = b^2 a\n  x1 = a b, x2 = 1\n"
        "  x1 = a b^2, x2 = b^2\n  x1 = a b a, x2 = b a b^2\n  x1 = a b^2 a, x2 = b a b\n"
        "  x1 = b a b, x2 = a b^2 a\n  x1 = b^2 a b, x2 = a b a\n"),
}


@pytest.mark.parametrize("argv, code, out", GOLDEN_TEXT.values(), ids=GOLDEN_TEXT)
def test_cli_text_output_is_pinned(capsys, argv, code, out):
    argv = [str(CASES / f"{a}.grp") if flag == "--group" else
            str(CASES / f"{a}.sub") if flag == "--subgroup" else a
            for flag, a in zip([None] + argv, argv)]
    assert cli.main(argv) == code
    assert capsys.readouterr() == (out, "")


# sha256 of the output of solve --all "[x1,x2] = 1" on p23, text and JSON,
# with the JSON's timings.total_s set to 0: (ball, depth) -> (text, json).
GOLDEN_SOLVE_ALL = {
    ("a;b", 4): ("17213fe3a7a9f8574869517238d26b1bed7e5c12679c387488d52114347a1e95",
                 "7e2eb0028c900cd124abd67ab5a663f803c3f7edc24b164ef5ba0de7f8a70b37"),
    ("a;b", 12): ("3db4c6941a6cac7d2d5fb9b06281241ffa5da176a87dcfce773668ed9148bda5",
                  "bd97c37a05dba6b3725b63117385279471f52b8ff527ce029928697015025463"),
    ("b;a", 4): ("6848ca7be457332af58fe381cc4c7e17fad7058a4cac3aa5e44ac6c61e4d230f",
                 "4b345841d450fcdc5aa56759aff3620ab5cb5ee26f7435b16b3038414e287f86"),
    ("b;a", 12): ("e9519e7d2b726ec4d0f2e65d70cbbaa1180952c8d0abb8b2c386ab6792cb340b",
                  "9e4306606b45357292243c27bb7f8a5fd41ec6c936d8eab35bf5017d7de33df2"),
}


@pytest.mark.parametrize("ball, depth", GOLDEN_SOLVE_ALL)
def test_cli_solve_all_output_is_pinned(capsys, ball, depth):
    # Every solution, its order and its rendering, byte for byte.
    argv = ["solve", "--group", str(CASES / "p23.grp"), "--eq", "[x1,x2] = 1",
            "--ball", ball, "--depth", str(depth), "--all"]
    digests = []
    for extra in ([], ["--json"]):
        assert cli.main(argv + extra) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out = re.sub(r'"total_s": [-+0-9.e]+', '"total_s": 0', captured.out)
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == GOLDEN_SOLVE_ALL[ball, depth]


# sha256 of the output of solve --all, text and JSON with timings.total_s
# set to 0 and the counters kept, for one equation per solver path:
# (group, equation, ball, depth) -> (text, json).
GOLDEN_SOLVE_PATHS = {
    # fused single occurrence: x3 = (x1 x2)^-1 a, one value per x1 x2
    ("example2", "x1 x2 x3 = a", "a,b;a,b@c", 2):
        ("89e152f08fd9a915b2060edd2b40b5c4dc2a30ea31a42c91688fecb40b99d481",
         "634c784ec14d23e58b64b44b3808f539f50c51766ac656dfd2a1821402b0597a"),
    # fused centralizer coset: B = x1 x2
    ("example2", "x3 x1 x2 x3^-1 = c a c", "a,b;a,b@c", 2):
        ("6709f075eca854a0b28d273afb55bad4ed221337fdae7a530565e669e156400f",
         "5600fadb62f6e0406f17042b0830de36c76a531cb896bad13e23291592d2b346"),
    # fused scan: x3 occurs once, squared, so every candidate is tried
    ("p23", "(x1 x2)^2 x3^2 = 1", "a;b", 3):
        ("79d0947ae15dd339acbf07ed23e79734cee197017b12624a63989c3fea0e56c9",
         "c39543822fa70544f898b07507496ab0b5cfbc36551df9372d5fed6f3c779f77"),
    # the coset path through an inverted group: the bytes of [x1,x2] = 1
    ("p23", "[x1,x2]^-1 = 1", "a;b", 4): GOLDEN_SOLVE_ALL["a;b", 4],
    # the coset path with B = x1^2, a proper power, to the rotation test
    ("p23", "x1^3 x2 x1^2 x2^-1 = a b a b a b^2 a b a", "a;b", 6):
        ("7e6e4ede3327f251ee86e9f93ef4ccccc49f894f9742cba6b8b1dedbf79577d6",
         "37b64ca96805b2e637b2656963e8c86d26cd2f69ad0411c9dbbb83b50dd35883"),
    # the single-occurrence path with a kept power, x1^2; the parser writes
    # (x1 a x2^-1)^-1 out letter by letter, as x2 a^-1 x1^-1
    ("p23", "(x1 a x2^-1)^-1 x1^2 = b", "a;b", 3):
        ("0d5902ec35df603d37943609055cefb3417b1c1d82eb84e31366d137f1bc6dae",
         "c882e5547d32edc8477f68a96a42c1adca62d172b1d60cab7efbfbaca0b5257e"),
    # the coset path, re-checked through an inverted group that holds a
    # constant of order 3, b, and the kept powers x1^2 and x1^-2
    ("p23", "[x1^2 b, x2]^-1 x1 = b", "a;b", 3):
        ("8e223257738e3590aa4bfc94a0b8d4d9aab5433d2ec7825bb3dc9301846983be",
         "14d8015b72481401a7f0ba0cb11b630352cbb8382b0ae679ee8c88d7f597c535"),
}


@pytest.mark.parametrize("group, eq, ball, depth", GOLDEN_SOLVE_PATHS)
def test_cli_solve_paths_output_is_pinned(capsys, group, eq, ball, depth):
    argv = ["solve", "--group", str(CASES / f"{group}.grp"), "--eq", eq,
            "--ball", ball, "--depth", str(depth), "--all"]
    digests = []
    for extra in ([], ["--json"]):
        assert cli.main(argv + extra) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out = re.sub(r'"total_s": [-+0-9.e]+', '"total_s": 0', captured.out)
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == GOLDEN_SOLVE_PATHS[group, eq, ball, depth]


# JSON values whose text exercises the encoder: strings holding braces,
# quotes, the separator "\x1f" and non-ASCII characters, and containers
# empty, flat, lists of flat dicts, and mixed.
_json_strings = st.text(st.one_of(st.sampled_from('{}[]",:\x1f\\ \n\té☃'), st.characters()),
                        max_size=6)
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _json_strings)
_flat_dicts = st.lists(st.dictionaries(_json_strings, _json_scalars, min_size=1, max_size=3),
                       max_size=4)
_json_trees = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_json_strings, inner, max_size=4), _flat_dicts),
    max_leaves=30,
)


# A rendered word above the length from which _json_text quotes a string
# as it is, and every character that ensure_ascii escapes.
_LONG = "a b^2 " * 100
_ESCAPED = [chr(i) for i in range(0x20)] + ['"', "\\", "\x7f"]


class _Small(enum.IntEnum):
    ONE = 1


class _Real(float):
    pass


@settings(max_examples=500, deadline=None)
@given(tree=st.one_of(_json_trees, st.dictionaries(  # reports: dicts, some values flat dicts
    _json_strings, st.one_of(_flat_dicts, _json_trees), max_size=5)))
# long strings holding an escaped character at the start, middle and end,
# as values and as keys
@example(tree=[s for c in _ESCAPED for s in (c + _LONG, _LONG[:301] + c + _LONG[301:], _LONG + c)])
@example(tree={s: _LONG for c in _ESCAPED for s in (c + _LONG, _LONG + c)})
@example(tree={"plain": _LONG, "non-ASCII": ["é" * 500, _LONG + "☃", "\u2028" + _LONG, "𝔄" * 401]})
# rows whose strings hold %, braces, quotes and the separator, nested too
@example(tree={"witnesses": [{"x%s": "%d {x}", "q": '"}\x1f{"'}, {"x%s": "}\x1f{", "q": "%%"}],
               "deeper": {"rows": [[{"a": _LONG + "}"}, {"{a": "\x1f"}], {"b": None}]}})
# near-miss rows: another key order, a nested container, a key not a str
@example(tree={"order": [{"x1": "a", "x2": "b"}, {"x2": "b", "x1": "a"}],
               "nested": [{"x1": "a"}, {"x1": ["b"]}], "inner": [{"x1": "a"}, {"x1": {"y": 1}}],
               "empty": [{"x1": "a"}, {}], "key": [{"x1": "a"}, {1: "b"}]})
@example(tree={"a": 1, 2: "b", None: [], True: {}, 1.5: "c"})
# values json.dumps takes but the writer leaves to it
@example(tree={"tuple": (1, "a", [2]), "enum": _Small.ONE, "real": _Real(1.5)})
@example(tree=[{"enum": _Small.ONE, "real": _Real(2.5)}, {"tuple": ()}])
@example(tree={"finite": [0.0, -0.0, 1e300, 5e-324], "nan": math.nan, "inf": [math.inf, -math.inf],
               "rows": [{"a": math.nan}, {"a": -math.inf}]})
def test_json_text_is_the_indented_dump(tree):
    assert len(_LONG) > cli._LONG_STRING
    assert cli._json_text(tree) == json.dumps(tree, indent=2)


def test_cli_json_output_is_the_indented_dump_of_every_report(capsys, monkeypatch):
    # every subcommand, solve --all with its list of witness dicts, and long
    # words (syllable ids above one byte in D150 * Z2)
    real, checked = cli._json_text, []

    def spy(report, *rest):
        text = real(report, *rest)
        if not rest:
            checked.append(text == json.dumps(report, indent=2))
        return text

    monkeypatch.setattr(cli, "_json_text", spy)
    solve_all = ["solve", "--group", "p23", "--eq", "[x1,x2] = 1", "--ball", "a;b", "--all"]
    d150 = "(b c a)^25000 b c (b c a)^-25000"
    long_runs = [
        solve_all + ["--depth", "14"],
        ["eval", "--group", "p23", "--word", "(a b)^100000"],
        ["axis", "--group", "p23", "--word", "(a b^2)^5000 b a b^2 a (a b^2)^-5000",
         "--window", "1"],
        ["order", "--group", "d150", "--word", d150],
        ["reduce", "--group", "d150", "--word", d150],
    ]
    runs = ([(argv, code) for argv, code, _ in GOLDEN_TEXT.values()]
            + [(argv, 0) for argv in [solve_all + ["--depth", "4"]] + long_runs])
    for argv, code in runs:
        argv = [str(CASES / f"{a}.grp") if flag == "--group" else
                str(CASES / f"{a}.sub") if flag == "--subgroup" else a
                for flag, a in zip([None] + argv, argv)]
        assert cli.main(argv + ["--json"]) == code
        capsys.readouterr()
    assert checked == [True] * len(runs)
    assert {argv[0] for argv, _ in runs} == {
        "eval", "order", "reduce", "check", "solve", "verify-theorem2", "verify-lemma4",
        "verify-lemma5", "verify-lemma7", "axis"}


def test_cli_verify_theorem2_output_is_pinned(capsys):
    # verify-theorem2 --range 8, text and JSON with timings.total_s set to 0
    digests = []
    for extra in ([], ["--json"]):
        assert cli.main(["verify-theorem2", "--range", "8"] + extra) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out = re.sub(r'"total_s": [-+0-9.e]+', '"total_s": 0', captured.out)
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert digests == ["b882a8ccebab2fa25b47486ca9974a7664f5c6e716bf365d41a5974d666c50e1",
                       "f0accb2f3635dced12deea67194c5734efe271f6593e1a5c88350d23af11a5d4"]



def _output_digests(capsys, argv):
    """Exit code and the sha256 of the text output and of the JSON report
    with timings.total_s set to 0 and any counters dropped."""
    digests = []
    for extra in ([], ["--json"]):
        code = cli.main(argv + extra)
        captured = capsys.readouterr()
        assert captured.err == ""
        out = captured.out
        if extra:
            report = json.loads(out)
            report.pop("counters", None)
            report["timings"]["total_s"] = 0
            out = json.dumps(report, indent=2) + "\n"
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    return code, tuple(digests)


AXIS_SHAPES = ("(a b)^{n} b a b^2 a (a b)^-{n}", "(a b^2)^{n} a b^2 a b (a b^2)^-{n}")

# sha256 of the output of axis on p23, text and JSON (see _output_digests):
# (index into AXIS_SHAPES, n, window) -> (text, json).
GOLDEN_AXIS = {
    (0, 1, 0): ("d20131b25c4144ccb4f2b191b0ef9b4c33876e018f1de9fc32fc11deed7db8cb",
                "89aa5093cba91cc09d6e5f0dc27d6cb92db17212abb6660e09c84b8e5de020a4"),
    (0, 1, 1): ("66e41c8a94b5c89d3697a9675490f4711cb04d237efa46ecdc875812aed9de85",
                "a0e22f64b4265831a1d79973536e5853aa87b5ac06a43320c4084217462085bf"),
    (0, 1, 2): ("5f3ebc2a736152f24d722707e41f403da652e7db19837740d3db73b9b77e5561",
                "ada0dc39f5f90b005429b9df9f2f88f7c0485ecec2eb2365d4ae8829175ed343"),
    (0, 2, 0): ("6f8524c8e402eef50b1f7defba912184a045ec21019e930c0717bbdef2a3ff42",
                "a2fb624b6ae749333b4caaac62ce693b7b740600d33247dc54a558e715100498"),
    (0, 2, 1): ("eac2b05577f327a0bc269cd6aebaf365c8640d07ba46166db495860151579112",
                "1cf9e2c866d356ffcf128759edf95f2eea4888706dbadc2f2545ec00655fd4ec"),
    (0, 2, 2): ("ce19033c650858adb71d8a56b3ba2c8ea46c160cf526ee1ac637e30968b67971",
                "fcf8a8bf4862e2c46e01024983e38a2fdb185f845c58200fb442d3a394e41701"),
    (0, 1854, 0): ("86c414e42cf82107c3e1969c14a4d76b18d4f56bf260c6b6e8323dac3a2f695c",
                   "d81a03bb5f5a1ab4b590fe953aca7bd7bba725593f5fec1bdea2f5bc1a5902f9"),
    (0, 1854, 1): ("a3509cb4cf5fcdfec4e5321e9052485a41eb1e58afb88176f61209bec7f45e7c",
                   "832b8920a50b9dc1e25864675879d3a99aee3e672875e47f683bd932ee389a2e"),
    (0, 1854, 2): ("2b5a2cb9e4b7ec6fc2fa1bb40a40aef923fe5080be18e14a6199cee0d2b29af4",
                   "8d472bf4d9dc54b7bce81ac84afe738ae36d3231cb66b5ac9f96386885d92cb5"),
    (1, 1, 0): ("4191e82fd6a8fb3ce476c21fba85a928029e3424792f58ecf06bca065e405e3d",
                "89aa5093cba91cc09d6e5f0dc27d6cb92db17212abb6660e09c84b8e5de020a4"),
    (1, 1, 1): ("2f05ee1bb9b6237a92c4cd3adc9f156beee540d98cfd6a6645f4999ba2ef3025",
                "a0e22f64b4265831a1d79973536e5853aa87b5ac06a43320c4084217462085bf"),
    (1, 1, 2): ("34598084753d0ca0f8ddaf3e33e8f8596602b929bd373ebec3e0ababbfabac5e",
                "ada0dc39f5f90b005429b9df9f2f88f7c0485ecec2eb2365d4ae8829175ed343"),
    (1, 2, 0): ("693e745eeba2407bba2744b92950d9b2b6946b72cdee6d2dcf0100090a149aff",
                "55700942fa6d0efc470453e13e7970eab9dedb7a95a206e06552d21a53267bdb"),
    (1, 2, 1): ("eb7082b1386be0acbb75eaade1bf5407a9fc599649d7571c304352a91318d375",
                "57c5a9a360399a8a33caf0a7e6ed57e1bfd188943ddd939300a7b3470aafb895"),
    (1, 2, 2): ("73c95ae5bdbb771df00bfc540fc03113118c2633ed651f030f247e04e6abee95",
                "13f78bb508c45e97f91df07d86b847fb8a3601fba394445bd8a39ab7e1f90a1d"),
    (1, 1854, 0): ("daf5855527df7110f10aaa7c57a402b056cb22169bed2952b296571a24970461",
                   "f4eb19ecfef62078ec1aab8cecbeba0e28213815320fa74b8554d0258587f65a"),
    (1, 1854, 1): ("55a6c6ac243308f55dc285a42a5d35d9589eedae61466973959d6b17c89e1979",
                   "0826381ba34efa0e31364d358500588d0ee187ac4ca0211d68563ca4bdceddfc"),
    (1, 1854, 2): ("21def36bc4072f67644b6b8614e8000bc21f784ec629302398ce641aa9d71868",
                   "8c7737010b085de6706b64a24a5ea67755187ba3699b7ab2f6d6a2ce06a0ef5b"),
}


# The same for verify-lemma4 --trials 20: (group, seed, power bound) -> (text, json).
GOLDEN_LEMMA4 = {
    ("p23", 0, 0): ("6cd5df346ea88027d825d1e7e20fbe5ce4a687af9b24e643d75e8f2d30dc758b",
                    "80fee888df3166f39f89309ca9f77471003d99ffbd23cf530c43c218183d3a06"),
    ("p23", 0, 20): ("f9f9cb6dc531bbfe51692ca68668230cf34097b398d9fa3b402f2406f2e739fe",
                     "80fee888df3166f39f89309ca9f77471003d99ffbd23cf530c43c218183d3a06"),
    ("p23", 0, 80): ("8986b9486083cb2a892a70fa0e9a83949ecbd5d38956ee52dd2c292071ce7b5c",
                     "80fee888df3166f39f89309ca9f77471003d99ffbd23cf530c43c218183d3a06"),
    ("p23", 1, 0): ("d814e3d9974992d5364857d24248c12fcc7268702f2f9ae8fc37febdb357804b",
                    "056715ca201d036f2f7317d8d5eb8789ef0bfda61325c676279714009638d484"),
    ("p23", 1, 20): ("57cf126bd1ef35bc39029c4fa0013840725562aefb9415f185667099da07b7e9",
                     "056715ca201d036f2f7317d8d5eb8789ef0bfda61325c676279714009638d484"),
    ("p23", 1, 80): ("e85b9cc3c73827859a219bcb88e03e4918db29bcfe0ddf8c2718d862e7787b1c",
                     "056715ca201d036f2f7317d8d5eb8789ef0bfda61325c676279714009638d484"),
    ("example1", 2, 0): ("404179b9a5a346941526cfa51727824c7e28d23d85d22c0ab180474a93b6bc30",
                         "b9d4bdc4fc6b553e5c5cb8eb8511627ccd48318d6e8fc5d0367d77c7a858b3ec"),
    ("example1", 2, 20): ("6d8e0acc2a6030c75d2fb04b90705ef742d7554b6e05abb250c6d02560871bad",
                          "b9d4bdc4fc6b553e5c5cb8eb8511627ccd48318d6e8fc5d0367d77c7a858b3ec"),
    ("example1", 2, 80): ("e4395c647e508ab30f1739e7a05e48c2a53e430beb5f0956c84f3d62bcbb90f0",
                          "b9d4bdc4fc6b553e5c5cb8eb8511627ccd48318d6e8fc5d0367d77c7a858b3ec"),
}


@pytest.mark.parametrize("shape, n, window", GOLDEN_AXIS)
def test_cli_axis_output_is_pinned(capsys, shape, n, window):
    # Every vertex of the window, its order and its rendering, byte for byte.
    argv = ["axis", "--group", str(CASES / "p23.grp"), "--word",
            AXIS_SHAPES[shape].format(n=n), "--window", str(window)]
    assert _output_digests(capsys, argv) == (0, GOLDEN_AXIS[shape, n, window])


# sha1 of the output of long normal forms, text and JSON with every timing
# set to 0 and the counters kept: (command, group, word, extra argv) ->
# (text, json).  Each form holds many blocks of free_product._render.
GOLDEN_LONG_FORMS = {
    ("eval", "p23", "(a b)^100000", ()): (
        "1252d8b1017087e512d028822b821adb00e99689", "d5f87aef8c2847793aecc2822ce6e81975b00598"),
    ("order", "p23", "(a b)^100000", ()): (
        "3d8322d2ff8bd0bdeda69af769028c79d2085ca0", "9ca1fdd4e9e823f5daf0546a3644eda109e0e46a"),
    ("reduce", "p23", "(a b)^100000", ()): (
        "9eecd159ef6d809997edfaedf0118e67e0a0c650", "6c1a7b5637af76d259e0feee07da926bacb376ec"),
    ("eval", "p23", "(a b^2)^77426", ()): (
        "c736a405d5b2151dce079f40b7dda217e0717653", "20ad1ef539038e911555fb32d5d50083d01d8691"),
    ("order", "p23", "(a b^2)^77426", ()): (
        "81c78bbd65ec0435b9aa606b48b76554b642d2c2", "a7600526199c00fba4ec04efd3d24e38d129ac4c"),
    ("reduce", "p23", "(a b^2)^77426", ()): (
        "b4227db313d1e9beb8cd5a781ff951461c5b276c", "816c6cf57e3177fb28818d78ca014e4f7dd261d0"),
    ("eval", "p23", "(a b)^10000 b a b^2 (a b)^-10000", ()): (
        "7403aae23dce6f5ed82f588489e586e3b94ca461", "e3e0e64e7c89e911cad96333c4f615968300c672"),
    ("order", "p23", "(a b)^10000 b a b^2 (a b)^-10000", ()): (
        "43faa8a18fd37caba13f0ce73dc888b756ecd9bb", "1b1e84711a63ea188e34719b9212a100de9bf746"),
    ("reduce", "p23", "(a b)^10000 b a b^2 (a b)^-10000", ()): (
        "199166643f3a2c9c45efc1c8eb207dfec6e64040", "21a52fff6fb104ef70e78714abea7f49c78cd497"),
    ("axis", "p23", "(a b)^2500 a b a b^2 (a b)^-2500", ("--window", "2")): (
        "c26fbcd421692b2480e4fe12bc3b5e1f58203eb2", "010b1490f60d41ab0699bede16d7278ef9d0b0ce"),
    # the 100,003-syllable conjugate that README.md times
    ("order", "d150", "(b c a)^25000 b c (b c a)^-25000", ()): (
        "3da0b9afb8d4eefb2be9bdd0410d609894ddfc51", "94b4b5be12a037215e5fab6c5e446f0f63b65b87"),
}


@pytest.mark.parametrize("cmd, group, word, extra", GOLDEN_LONG_FORMS)
def test_cli_long_normal_forms_are_pinned(capsys, cmd, group, word, extra):
    argv = [cmd, "--group", str(CASES / f"{group}.grp"), "--word", word, *extra]
    digests = []
    for json_flag in ([], ["--json"]):
        assert cli.main(argv + json_flag) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out = captured.out
        if json_flag:
            report = json.loads(out)
            report["timings"] = dict.fromkeys(report["timings"], 0)
            out = json.dumps(report, indent=2) + "\n"
        digests.append(hashlib.sha1(out.encode()).hexdigest())
    assert tuple(digests) == GOLDEN_LONG_FORMS[cmd, group, word, extra]


@pytest.mark.parametrize("group, seed, bound", GOLDEN_LEMMA4)
def test_cli_verify_lemma4_output_is_pinned(capsys, group, seed, bound):
    argv = ["verify-lemma4", "--group", str(CASES / f"{group}.grp"), "--trials", "20",
            "--seed", str(seed), "--power-bound", str(bound)]
    assert _output_digests(capsys, argv) == (0, GOLDEN_LEMMA4[group, seed, bound])


def _verifier_digest(capsys, argv):
    """sha1 over the exit code, stdout and stderr of ``argv`` run as text
    and with --json, the JSON report without its timings."""
    parts = []
    for extra in ([], ["--json"]):
        code = cli.main(argv + extra)
        captured = capsys.readouterr()
        out = captured.out
        if extra and out:
            report = json.loads(out)
            del report["timings"]
            out = json.dumps(report, indent=2) + "\n"
        parts.append(f"{code}\n{out}\n{captured.err}")
    return hashlib.sha1("\x00".join(parts).encode()).hexdigest()


# verify-lemma4 and verify-lemma7 outputs, byte for byte (see
# _verifier_digest): (command, group, further argv) -> sha1.  The seeded
# draws decide every sample, margin and count these reports hold.
GOLDEN_VERIFIERS = {
    ("verify-lemma4", "p23", ("--trials", "30", "--seed", "0")): "ddcc805bbb5f9ca9ce0708f79b74358e25a4b68e",
    ("verify-lemma4", "p23", ("--trials", "25", "--seed", "11", "--max-len", "8")): "37aac24dcbc326dd32646b5dd31eecb09c6cc16a",
    ("verify-lemma4", "p23", ("--trials", "10", "--seed", "5", "--max-len", "1",
                              "--power-bound", "0")): "7048b6648e6baa3ed7aba80b05bc74af35eea552",
    ("verify-lemma4", "p23", ("--f", "a b^2 a^-1 (a b)^2")): "0a88a95882d0a54e7c8021d127659461816c8a69",
    ("verify-lemma4", "example1", ("--trials", "40", "--seed", "3")): "5aa36ae0194d67e1f55e3121983d92a7cf6619d2",
    ("verify-lemma4", "example1", ("--trials", "20", "--seed", "9", "--max-len", "2",
                                   "--power-bound", "3")): "32e6f51053db4294ce9153b62e55aab7a6bf5d53",
    ("verify-lemma4", "example2", ("--trials", "30", "--seed", "4")): "e2a1b41eeb3275cef46f3594ca554b09a8a05346",
    ("verify-lemma4", "example2", ("--trials", "15", "--seed", "77", "--max-len", "7",
                                   "--power-bound", "1")): "0f5ca47fc33d772bbdb014491a77acb40077c64c",
    ("verify-lemma4", "example2", ("--f", "a c b")): "bcf968123319fad6e67d252fa834354243e417d6",
    ("verify-lemma4", "c3d4", ("--trials", "30", "--seed", "2")): "c9bf6c77bc4b62c974a7dbe28f320079b0ded448",
    ("verify-lemma4", "c3d4", ("--trials", "12", "--seed", "123456", "--max-len", "9")): "af49eb40a878d1da078cc0a9fa50e11bc9a47b6b",
    ("verify-lemma4", "c3d4", ("--f", "t a z b t^2", "--power-bound", "7")): "bbc09ac55ba93c7aa113a1f14150c9f00d076e4e",
    ("verify-lemma4", "one_factor", ("--trials", "10", "--seed", "1")): "25d6fe07c3a3f22ced4b6d0a1592bf40aeddb83e",
    ("verify-lemma7", "p23", ("--trials", "50", "--seed", "0")): "7854eaff199260a94e28293cfd5cb49337483741",
    ("verify-lemma7", "p23", ("--trials", "40", "--seed", "9", "--max-norm", "3",
                              "--max-power", "7")): "dff690d4ade32be915d43e78c82a5ba780acbd5e",
    ("verify-lemma7", "example1", ("--trials", "40", "--seed", "1")): "dff690d4ade32be915d43e78c82a5ba780acbd5e",
    ("verify-lemma7", "example1", ("--trials", "30", "--seed", "8", "--max-norm", "9",
                                   "--max-power", "2")): "96a1b1949cb2aee89b332035dff1b31021ca584e",
    ("verify-lemma7", "example2", ("--trials", "40", "--seed", "5", "--max-norm", "4")): "dff690d4ade32be915d43e78c82a5ba780acbd5e",
    ("verify-lemma7", "example2", ("--trials", "25", "--seed", "31", "--max-power", "9")): "7d9221087efe828ec1905c14df54a89d8c629f64",
    ("verify-lemma7", "c3d4", ("--trials", "40", "--seed", "6")): "2f915cf9c14e105dee9f1e780344af17e7dd6b45",
    ("verify-lemma7", "c3d4", ("--trials", "30", "--seed", "424242", "--max-norm", "2",
                               "--max-power", "3")): "96a1b1949cb2aee89b332035dff1b31021ca584e",
    # one trial each, so the margin is that trial's
    ("verify-lemma7", "p23", ("--trials", "1", "--seed", "1", "--max-norm", "8")): "7db7d0864488601ee3884cc54351ae1e3d379c01",
    ("verify-lemma7", "example1", ("--trials", "1", "--seed", "3", "--max-norm", "8")): "7db7d0864488601ee3884cc54351ae1e3d379c01",
    ("verify-lemma7", "c3d4", ("--trials", "1", "--seed", "2", "--max-norm", "8")): "28a269efa3ead6c56e650c775cc717da87b36a2a",
    # the refusals: C2 * C2 after the first draw, one factor before any
    ("verify-lemma7", "c2c2", ("--trials", "3", "--seed", "2")): "675d233419980c16d8700770edb373d922366ce3",
    ("verify-lemma7", "one_factor", ("--trials", "1")): "df9215b15a3bfe7f2f67d9aaf75cf6a8964248dc",
}


@pytest.mark.parametrize("command, group, extra", GOLDEN_VERIFIERS)
def test_cli_verifier_outputs_are_pinned(capsys, command, group, extra):
    argv = [command, "--group", str(CASES / f"{group}.grp"), *extra]
    assert _verifier_digest(capsys, argv) == GOLDEN_VERIFIERS[command, group, extra]


def test_cli_verifiers_run_their_trials_on_id_strings(capsys, monkeypatch):
    # Lemma 7's trials use no element operation and render no word unless
    # one fails; Lemma 4 parses --f once and a drawn word never.
    calls = {"parse_word": 0, "__mul__": 0, "as_word": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(words, "parse_word", counted("parse_word", words.parse_word))
    for name in ("__mul__", "as_word"):
        monkeypatch.setattr(free_product.FPElement, name,
                            counted(name, getattr(free_product.FPElement, name)))
    p23 = str(CASES / "p23.grp")
    for argv, expected in (
        (["verify-lemma7", "--group", p23, "--trials", "50", "--seed", "3"],
         {"parse_word": 0, "__mul__": 0, "as_word": 0}),
        (["verify-lemma4", "--group", p23, "--trials", "20", "--seed", "3"],
         {"parse_word": 0, "__mul__": 0, "as_word": 0}),
        (["verify-lemma4", "--group", p23, "--trials", "20", "--f", "a b"],
         {"parse_word": 1, "__mul__": 0, "as_word": 0}),
    ):
        calls.update(dict.fromkeys(calls, 0))
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert calls == expected, argv


def test_cli_verify_lemma4_takes_a_generator_that_is_the_identity(capsys, tmp_path):
    # gens=0 makes e the identity: its letter has order 1, exponent 0 and
    # x_j = 1 (this was an internal error, exit 3)
    grp = tmp_path / "idgen.grp"
    grp.write_text("factors: table rows=0,1:1,0 gens=0,1; cyclic 3\nlabels: e,a; b")
    code, report = run_json(capsys, ["verify-lemma4", "--group", str(grp), "--f", "e a b"])
    assert (code, report["witnesses"]) == (0, [{"f": "e a b", "p": 5, "k": [0, 1, 2]}])
    code, report = run_json(capsys, ["verify-lemma4", "--group", str(grp), "--trials", "30"])
    assert code == 0 and report["verdict"] == "verified"
    cons = words.build_lemma4(specfiles.parse_group_spec(grp.read_text()), "a e e b")
    assert cons.exponents == (1, 0, 0, 2)
    assert words.evaluate(cons.equation.lhs, cons.g_solution) == cons.f


def test_cli_axis_renders_linearly(capsys):
    # The conjugator is rendered once and each vertex adds only its own few
    # syllables, so the count grows with the conjugator, not with the
    # vertices times the conjugator.
    counts = []
    for n in (500, 1000, 2000, 4000):
        code, report = run_json(capsys, ["axis", "--group", str(CASES / "p23.grp"), "--word",
                                         AXIS_SHAPES[0].format(n=n), "--window", "2"])
        assert code == 0 and report["verdict"] == "hyperbolic"
        counts.append(report["counters"]["syllables_rendered"])
    assert all(big <= 2.1 * small for small, big in zip(counts, counts[1:]))
    # the conjugator has 2n syllables, the core 4, and the 40 vertices of a
    # window of 2 add 220 syllables after the shared head, whatever n is
    assert counts == [2 * n + 4 + 220 for n in (500, 1000, 2000, 4000)]

    code, report = run_json(capsys, ["axis", "--group", str(CASES / "p23.grp"),
                                     "--word", "b a b^2"])
    assert report["counters"] == {"syllables_rendered": 1}


def test_cli_verify_lemma4_decides_candidates_without_powers(capsys):
    def counters(bound, *extra):
        code, report = run_json(capsys, ["verify-lemma4", "--group", str(CASES / "p23.grp"),
                                         "--power-bound", str(bound), *extra])
        assert code == 0
        return report["infinite_order_checked"], report["counters"]

    # f = a b has infinite order: 2 * bound * 2 + 1 exponent sums, decided
    # from f's order alone
    for bound in (0, 5, 10, 20, 40, 80):
        assert counters(bound, "--f", "a b") == (
            1, {"candidates": 4 * bound + 1, "powers_built": 0})
    # every f checked has infinite order: candidates grow linearly in the
    # bound, 2 * bound * (letters) + 1 per f, and no power is built
    runs = {bound: counters(bound, "--trials", "40", "--seed", "7") for bound in (10, 20, 40)}
    checked = runs[10][0]
    assert checked > 0 and all(r[1]["powers_built"] == 0 for r in runs.values())
    letters = (runs[10][1]["candidates"] - checked) // 20
    for bound, (_, work) in runs.items():
        assert work["candidates"] == 2 * bound * letters + checked


def test_cli_input_errors(capsys, tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("factors: cyclic 1\nlabels: a")
    assert cli.main(["eval", "--group", str(bad), "--word", "a"]) == 2
    assert cli.main(["eval", "--group", str(CASES / "p23.grp"), "--word", "z"]) == 2
    assert cli.main(["eval", "--group", "/nonexistent.grp", "--word", "a"]) == 2
    capsys.readouterr()
    # decompositions that parse but break an invariant: check reports the
    # first error checker.validate finds; a factor out of range is found
    # by the parser, before it reads the part's words
    sub = tmp_path / "bad.sub"
    for text, message in (
        ("free_rank: -1\npart: factor=0 gens=a", "free_rank must be nonnegative"),
        ("free_rank: 0", "decomposition has no parts and no free part"),
        ("part: factor=0 gens=1", "part 0: subgroup is trivial"),
        ("part: factor=9 gens=a", "factor 9 out of range"),
    ):
        sub.write_text(text)
        argv = ["check", "--group", str(CASES / "klein.grp"), "--subgroup", str(sub)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # f = a b has order 6 in example2, so f^6 = 1 and the part <f^6> is trivial
    lemma5 = ["verify-lemma5", "--group", str(CASES / "example2.grp"), "--f", "a b", "--g", "c",
              "--depth", "2"]
    for k1, k2, message in (("6", "2", "--k1 6: f^6 = 1"), ("3", "12", "--k2 12: f^12 = 1")):
        assert cli.main(lemma5 + ["--k1", k1, "--k2", k2]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message} for f = a b, so its ball part is trivial\n"


def test_cli_refuses_inputs_outside_the_lemma_hypotheses(capsys):
    # Lemma 5 needs f in one factor and g outside it.  With g in f's factor
    # the ball parts <f^3> and g <f^2> g^-1 fix one vertex of the
    # Bass-Serre tree, and their "ball" is the finite group <f>.
    lemma5 = ["verify-lemma5", "--group", str(CASES / "example2.grp"), "--f", "a b",
              "--k1", "3", "--k2", "2", "--depth", "3"]
    for g in ("a b", "1", "b^2"):
        assert cli.main(lemma5 + ["--g", g]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: twist {g!r} must lie outside the factor of "
                                "coefficient 'a b'\n")
    assert cli.main(lemma5 + ["--g", "c a"]) == 0
    capsys.readouterr()
    # f = a b has infinite order in C2 * C3: refused before the construction
    argv = ["verify-lemma5", "--group", str(CASES / "p23.grp"), "--f", "a b", "--g", "b",
            "--k1", "1", "--k2", "1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: coefficient 'a b' must lie in a single factor\n"
    # Lemma 7 samples A of infinite order and a conjugate of A that does not
    # commute with it; C2 * C2 has the first but never the second
    assert cli.main(["verify-lemma7", "--group", str(CASES / "c2c2.grp"), "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: in C2 * C2 every element of infinite order commutes with "
                            "all its conjugates\n")


def test_cli_verify_lemma7_refuses_a_one_factor_group():
    # A one-factor group has no element of infinite order.  Run in a child
    # with a timeout, so that a sampler that redraws forever fails the test
    # instead of hanging the suite.
    src = str(Path(cli.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "freeprod", "verify-lemma7", "--group",
         str(CASES / "one_factor.grp"), "--trials", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: a free product of one factor has no element of norm 2 or more\n"


def test_cli_verify_lemma4_huge_power_bound_ends_at_once():
    # The verdict comes from f's order in closed form, so a bound of 10^12
    # covers 4 * 10^12 + 1 exponent sums at no cost.  Run in a child with a
    # timeout, so that a per-sum loop fails the test instead of hanging the
    # suite.
    src = str(Path(cli.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "freeprod", "verify-lemma4", "--group",
         str(CASES / "p23.grp"), "--f", "a b", "--power-bound", "1000000000000", "--json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    report = json.loads(result.stdout)
    assert report["verdict"] == "verified" and report["infinite_order_checked"] == 1
    assert report["counters"] == {"candidates": 4000000000001, "powers_built": 0}


def test_cli_group_spec_errors(capsys, tmp_path):
    # A table generator with a bad id is named by its position in gens=, the
    # same on every call (not by a label made up while parsing).
    grp = tmp_path / "bad.grp"
    grp.write_text("factors: cyclic 2; table rows=0,1:1,0 gens=1,5\nlabels: a; b,c")
    errors = []
    for _ in range(2):
        assert cli.main(["eval", "--group", str(grp), "--word", "a"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == ["error: generator 1 (counting from 0) has bad id 5\n"] * 2
    # a line that may appear once, given twice
    for text, where in (("factors: cyclic 2\nfactors: cyclic 3\nlabels: a", "group"),
                        ("labels: a\nlabels: b\nfactors: cyclic 2", "group"),
                        ("free_rank: 0\nfree_rank: 1\npart: factor=0 gens=a", "subgroup")):
        spec = tmp_path / f"repeated.{where[:3]}"
        spec.write_text(text)
        argv = (["eval", "--group", str(spec), "--word", "a"] if where == "group" else
                ["check", "--group", str(CASES / "p23.grp"), "--subgroup", str(spec)])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: repeated line {text.splitlines()[1]!r}\n"
    with pytest.raises(SpecSyntaxError, match="repeated line"):
        specfiles.parse_group_spec("factors: cyclic 2\nlabels: a\nfactors: cyclic 2")


def test_cli_refuses_oversized_group_specs(capsys, tmp_path):
    # Every table is charged to the spec's cell budget before its rows are
    # built, so each of these is refused at once with one line.
    side = math.isqrt(specfiles.MAX_SPEC_CELLS)
    grp = tmp_path / "big.grp"
    for factors, labels in (
        ("cyclic 1000000000", "a"),
        ("dihedral 1000000000", "a,b"),
        (f"cyclic {side + 1}", "a"),
        ("cyclic " + "9" * 5000, "a"),
        ("product [cyclic 1000, cyclic 1000]", "a,b"),
        ("cyclic 1000; cyclic 1000; cyclic 1000", "a; b; c"),
        ("table rows=" + ":".join(["0"] * (side + 1)) + " gens=1", "a"),
    ):
        grp.write_text(f"factors: {factors}\nlabels: {labels}")
        start = time.perf_counter()
        assert cli.main(["order", "--group", str(grp), "--word", "a"]) == 2, factors
        assert time.perf_counter() - start < 5, factors
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: factor ") and captured.err.count("\n") == 1
        assert captured.err.endswith(
            f" exceeds the {specfiles.MAX_SPEC_CELLS:,} table cells a group spec may build\n")
    # the largest cyclic table within the budget is built
    grp.write_text(f"factors: cyclic {side}; cyclic 2\nlabels: a; b")
    assert cli.main(["order", "--group", str(grp), "--word", "a b"]) == 0
    assert capsys.readouterr().out == "order(a b) = infinite\n"


def test_cli_huge_exponents(capsys):
    p23 = str(CASES / "p23.grp")
    # a has order 2, so the exponent is reduced modulo 2
    code, report = run_json(capsys, ["order", "--group", p23, "--word", "a^100000000000"])
    assert code == 0
    assert report["witnesses"][0] == {
        "word": "a^100000000000", "normal_form": "1", "order": "1",
    }
    # (a b) has infinite order: the power would have 2*10^11 syllables
    assert cli.main(["eval", "--group", p23, "--word", "(a b)^100000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "cap" in captured.err
    # x2 occurs 10^11 times, so the compiled word keeps the power, and
    # powering the infinite-order value a b of x1 x2 goes over the cap
    assert cli.main(["solve", "--group", p23, "--eq", "(x1 x2)^100000000000 = a",
                     "--ball", "a;b", "--depth", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_order_of_a_power_above_the_cap(capsys):
    # (a b)^k has infinite order like a b; its normal form is above the
    # power cap, so the report has no normal form, and eval refuses it.
    p23 = str(CASES / "p23.grp")
    word = "(a b)^6833241672693788912"
    code, report = run_json(capsys, ["order", "--group", p23, "--word", word])
    assert code == 0
    assert report["witnesses"][0] == {"word": word, "normal_form": None, "order": "infinite"}
    assert cli.main(["eval", "--group", p23, "--word", word]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # nested powers and negative exponents follow the same rule
    for nested in ("((a b)^6833241672693788912)^-3", "((b a)^-6833241672693788912)^2"):
        code, report = run_json(capsys, ["order", "--group", p23, "--word", nested])
        assert code == 0 and report["witnesses"][0]["order"] == "infinite"
    # anything else above the cap is still refused
    assert cli.main(["order", "--group", p23, "--word", word + " a"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_power_order_matches_the_normal_form(p23, s3z2):
    # ord(u^k) = ord(u) / gcd(ord(u), k), or infinite with u, checked against
    # the order of the normal form for powers small enough to build
    for group in (p23, s3z2):
        for base in ("a", "b", "a b", "b a b", "a b a", "c a" if group is s3z2 else "b^2"):
            for k in (-7, -6, -4, -3, -2, 2, 3, 4, 5, 6, 12):
                word = parse_word(f"({base})^{k}", group)
                expected = parse_constant(f"({base})^{k}", group).order()
                assert cli._power_order(word.letters, group) == expected


def test_cli_deep_nesting_is_an_input_error(capsys):
    p23 = str(CASES / "p23.grp")
    deep = "(" * 400 + "a" + ")" * 400
    assert cli.main(["eval", "--group", p23, "--word", deep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "nested" in captured.err
    code, report = run_json(capsys, [
        "eval", "--group", p23, "--word", "(" * 250 + "a b" + ")" * 250,
    ])
    assert code == 0 and report["witnesses"][0]["normal_form"] == "a b"


def test_cli_parser_is_shared_between_calls(capsys):
    assert cli._build_parser() is cli._build_parser()
    p23 = str(CASES / "p23.grp")
    code, report = run_json(capsys, ["order", "--group", p23, "--word", "b"])
    assert code == 0 and report["witnesses"][0]["order"] == "3"
    assert cli.main(["eval", "--group", p23, "--word", "q"]) == 2
    assert cli.main(["solve", "--group", p23]) == 2  # --eq and --ball are missing
    capsys.readouterr()
    # no --json and no leftover arguments from the calls before
    assert cli.main(["reduce", "--group", p23, "--word", "b a b^2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("b a b^2 = c * core * c^-1 with c = b, core = a")
    code, report = run_json(capsys, ["eval", "--group", p23, "--word", "a b b"])
    assert code == 0 and report["witnesses"][0]["normal_form"] == "a b^2"


def test_cli_usage_error_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "frobnicate" in captured.err


def test_cli_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["solve", "--help"]) == 0
    captured = capsys.readouterr()
    assert "usage: freeprod solve" in captured.out and captured.err == ""


_P23 = str(CASES / "p23.grp")
_COMMANDS = ("'eval', 'order', 'reduce', 'check', 'solve', 'verify-theorem2', 'verify-lemma4', "
             "'verify-lemma5', 'verify-lemma7', 'axis'")


@pytest.mark.parametrize("argv, err", [
    # leftovers are reported by the top-level parser, as "freeprod", not
    # by the subcommand's own parser
    (["eval", "--group", _P23, "--word", "a", "extra"],
     "error: freeprod: unrecognized arguments: extra\n"),
    (["eval", "--group", _P23, "--word", "a", "--bogus", "1"],
     "error: freeprod: unrecognized arguments: --bogus 1\n"),
    (["solve", "--group", _P23, "--eq", "x1 = a", "--ball", "a;b", "--depth=-1"],
     "error: freeprod solve: argument --depth: must be at least 0, got -1\n"),
    (["frobnicate", "--group", _P23],
     f"error: freeprod: argument command: invalid choice: 'frobnicate' (choose from {_COMMANDS})\n"),
    ([], "error: freeprod: the following arguments are required: command\n"),
], ids=["leftover", "unknown-option", "out-of-range", "unknown-command", "no-command"])
def test_cli_usage_error_lines_are_pinned(capsys, argv, err):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", err)


def test_cli_accepts_an_abbreviated_option(capsys):
    assert cli.main(["eval", "--group", _P23, "--wor", "a b b"]) == 0
    assert capsys.readouterr() == ("a b b  ->  a b^2   (norm 2)\n", "")


def test_cli_solve_help_first_line_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to the terminal
    assert cli.main(["solve", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "usage: freeprod solve [-h] [--json] --group GROUP --eq EQ --ball BALL"
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["verify-theorem2", "--range", "0"],
    ["axis", "--group", str(CASES / "p23.grp"), "--word", "a b", "--window", "-1"],
    ["verify-lemma5", "--group", str(CASES / "example2.grp"), "--f", "a b", "--g", "c",
     "--k2", "2", "--k1", "0"],
    ["verify-lemma7", "--group", str(CASES / "p23.grp"), "--max-power", "1"],
    ["solve", "--group", str(CASES / "p23.grp"), "--eq", "x1 = a", "--ball", "a;b",
     "--depth", "-1"],
    ["verify-lemma4", "--group", str(CASES / "p23.grp"), "--trials", "-1"],
])
def test_cli_numeric_argument_out_of_range_exits_2(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and argv[-2] in captured.err


# -- solve over a ball it need not build ----------------------------------------

EXAMPLE2_BALL = ["--group", str(CASES / "example2.grp"), "--ball", "a,b;a,b@c"]


def test_cli_solve_one_occurrence_does_not_build_the_ball(capsys, monkeypatch):
    # x1 = c over the 39,061-element depth-6 ball: one membership question,
    # answered from the depth-3 half balls.
    depths = []
    real = free_product._ball_elements

    def spy(group, parts, depth):
        depths.append(depth)
        return real(group, parts, depth)

    monkeypatch.setattr(free_product, "_ball_elements", spy)
    code, report = run_json(capsys, ["solve", *EXAMPLE2_BALL, "--eq", "x1 = c", "--depth", "6"])
    assert depths and max(depths) <= 3
    assert code == 1
    assert report.pop("counters") == {"ball_size": None, "membership_queries": 1,
                                      "outer_tuples": 1, "outer_values": 1, "image": None}
    report.pop("timings")
    assert report == {"verdict": "no-solution-in-set", "violations": [], "witnesses": []}
    assert cli.main(["solve", *EXAMPLE2_BALL, "--eq", "x1 = c", "--depth", "6"]) == 1
    assert capsys.readouterr().out == "no solution in the depth-6 ball\n"
    assert cli.main(["solve", *EXAMPLE2_BALL, "--eq", "x1 = c a c b", "--depth", "6"]) == 0
    assert capsys.readouterr().out == "solution in the depth-6 ball:\n  x1 = c a c b\n"
    assert max(depths) <= 3


def test_cli_solve_at_depth_12(capsys):
    # The depth-12 ball holds about 6*10^8 elements.  <a,b> and c<a,b>c
    # generate their free product, so an alternating product of 13 part
    # elements has length 13 there and lies outside the ball.
    twelve = " ".join(["a", "c b c"] * 6)
    for word, expected in ((twelve, 0), (twelve + " b^2", 1)):
        code, report = run_json(capsys, ["solve", *EXAMPLE2_BALL, "--eq", f"x1 = {word}",
                                         "--depth", "12"])
        assert code == expected
        assert report["counters"] == {"ball_size": None, "membership_queries": 1,
                                      "outer_tuples": 1, "outer_values": 1, "image": None}
        if expected == 0:
            assert report["verdict"] == "solved"
            assert report["witnesses"] == [{"x1": word}]
        else:
            assert report["verdict"] == "no-solution-in-set"
            assert report["witnesses"] == []


def test_cli_solve_renders_each_solution_once(capsys, monkeypatch):
    # [x1,x2] = 1 enumerates the ball, so its size is reported; each
    # distinct value in the solutions is rendered once, in both output
    # modes, however many solutions use it.
    calls = 0
    real = free_product.FPElement.as_word

    def as_word(self):
        nonlocal calls
        calls += 1
        return real(self)

    monkeypatch.setattr(free_product.FPElement, "as_word", as_word)
    argv = ["solve", "--group", str(CASES / "p23.grp"), "--eq", "[x1,x2] = 1",
            "--ball", "a;b", "--all"]
    code, report = run_json(capsys, argv + ["--depth", "14"])
    assert code == 0 and len(report["witnesses"]) == 4408
    # [x1,x2] = 1 is not fused: x1 and x1^-1 are its only runs
    assert report["counters"] == {"ball_size": 890, "membership_queries": 0,
                                  "outer_tuples": 890, "outer_values": 890, "image": None}
    assert calls == len({text for w in report["witnesses"] for text in w.values()}) <= 890
    calls = 0
    assert cli.main(argv + ["--depth", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "solution in the depth-4 ball (22 elements):"
    values = {pair.split(" = ")[1] for line in lines[1:] for pair in line.split(", ")}
    assert calls == len(values) < 2 * (len(lines) - 1)
    assert "  x1 = 1, x2 = a" in lines


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_cli_resource_limit_exits_2(capsys, monkeypatch, error):
    def exhausted(path):
        raise error()

    monkeypatch.setattr(cli, "_load_group", exhausted)
    assert cli.main(["eval", "--group", str(CASES / "p23.grp"), "--word", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and error.__name__ in captured.err


def test_cli_internal_error_exits_3(capsys, monkeypatch):
    # An unexpected exception is a fault in freeprod, not a violation (1)
    # or an input error (2): one line on stderr, exit 3.
    def broken(path):
        raise ValueError("not a\nrecognised state")

    monkeypatch.setattr(cli, "_load_group", broken)
    assert cli.main(["eval", "--group", str(CASES / "p23.grp"), "--word", "a"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error (ValueError: not a recognised state)\n"


# -- the exit-code contract on malformed input ----------------------------------

_FUZZ_TOKENS = ["a", "b", "c", "d", "1", "x1", "x2", "z", "(", ")", "[", "]", ",", "^", "-",
                "2", "9", "0", " ", "@", "=", ";", ":", "#", "é", "factor=", "gens=", "conj="]


def _fuzz_word(rng):
    """A valid word with one token put in, or a string of up to 10 tokens."""
    if rng.random() < 0.5:
        word = rng.choice(["a b", "(a b)^3", "[a, b]^2", "b^-1 a", "a^b c"])
        i = rng.randint(0, len(word))
        return word[:i] + rng.choice(_FUZZ_TOKENS) + word[i:]
    return "".join(rng.choice(_FUZZ_TOKENS) for _ in range(rng.randint(0, 10)))


def _fuzz_part(rng):
    """One part of a ball or subgroup spec: the key=value form or the @ form,
    with malformed pieces."""
    gens = ",".join(rng.choice(["a", "b", "c", "1", "a b", _fuzz_word(rng)])
                    for _ in range(rng.randint(1, 3)))
    conj = rng.choice(["", "c", "1", "a b", _fuzz_word(rng)])
    if rng.random() < 0.5:
        factor = rng.choice(["0", "1", "2", "9", "x", ""])
        return f"factor={factor} gens={gens}" + (f" conj={conj}" if conj else "")
    return gens + (f"@{conj}" if conj else "")


def _fuzz_subgroup_spec(rng):
    lines = [rng.choice([f"free_rank: {rng.choice(['0', '1', '-1', 'x', ''])}",
                         f"part: {_fuzz_part(rng)}", _fuzz_word(rng)])
             for _ in range(rng.randint(0, 3))]
    return "\n".join(lines)


def _fuzz_descriptor(rng, nested=False):
    """A factor descriptor of order at most 12, or a malformed one."""
    kind = rng.choice("ccccddtttx" + ("" if nested else "ppp"))
    if kind == "c":
        return f"cyclic {rng.choice(['0', '1', '2', '2', '3', '5', '12', 'x'])}"
    if kind == "d":
        return f"dihedral {rng.choice(['1', '2', '3', '6', 'b'])}"
    if kind == "t":
        rows = rng.choice(["0,1:1,0", "0,1,2:1,2,0:2,0,1", "1,0:0,1", "1,2,0:2,0,1:0,1,2",
                           "0,1:0,1", "0,1,2:1,2,0", "0,1:1,x", "0"])
        gens = rng.choice(["1", "2", "2", "5", "-1", "0", "1,1", "1,2", "x"])
        return f"table rows={rows} gens={gens}"
    if kind == "x":
        return rng.choice(["", "free 2", "cyclic", "product []", "table rows=0,1:1,0"])
    if rng.random() < 0.5:
        return f"product [{_fuzz_descriptor(rng, True)}, cyclic 2]"
    return "product [{}, {}]".format(*rng.choice(
        [("cyclic 2", "cyclic 3"), ("cyclic 2", "cyclic 2"), ("cyclic 3", "cyclic 4"),
         ("cyclic 2", "dihedral 3")]))


def _fuzz_group_spec(rng):
    """Group spec text of one to three factors, each of order at most 12,
    with malformed descriptors, labels and lines."""
    count = rng.randint(1, 3)
    names = iter("abcdefghi")
    labels = [",".join(next(names) if rng.random() < 0.9 else rng.choice(["a", "x1", "1a", ""])
                       for _ in range(rng.choice([1, 1, 2, 2, 3]))) for _ in range(count)]
    lines = [f"factors: {'; '.join(_fuzz_descriptor(rng) for _ in range(count))}",
             f"labels: {'; '.join(labels)}"]
    if rng.random() < 0.3:
        lines.insert(rng.randint(0, 2), rng.choice(["factors: cyclic 2", "labels: a", "# note",
                                                    "free_rank: 0", "junk"]))
    return "\n".join(lines)


def test_cli_malformed_input_exits_0_1_or_2(capsys, tmp_path):
    # Seeded malformed --ball texts, subgroup and group spec files and words:
    # every run ends in exit 0, 1 or 2 (never 3, an internal error), and an
    # input error prints exactly one line on stderr and nothing on stdout.
    rng = random.Random(16)
    groups = [str(CASES / name) for name in ("p23.grp", "example1.grp", "example2.grp",
                                              "klein.grp")]
    runs = [["solve", "--group", str(CASES / "p23.grp"), "--eq", "x1 = a",
             "--ball", "factor=9 gens=1"]]
    for i in range(600):
        group = rng.choice(groups)
        ball = ";".join(_fuzz_part(rng) for _ in range(rng.randint(0, 3)))
        runs.append(["solve", "--group", group, "--eq", rng.choice(["x1 = a", "[x1,x2] = 1"]),
                     f"--ball={ball}", "--depth", str(rng.randint(0, 2))])
        path = tmp_path / f"fuzz{i}.sub"
        path.write_text(_fuzz_subgroup_spec(rng))
        runs.append(["check", "--group", group, "--subgroup", str(path)])
        command = rng.choice(["eval", "order", "reduce", "axis"])
        runs.append([command, "--group", group, f"--word={_fuzz_word(rng)}"])
        runs.append(["solve", "--group", group, f"--eq={_fuzz_word(rng)} = {_fuzz_word(rng)}",
                     "--ball", "a;b" if group == groups[0] else "a;c", "--depth", "1"])
    for i in range(400):
        path = tmp_path / f"fuzz{i}.grp"
        path.write_text(_fuzz_group_spec(rng))
        runs.append([rng.choice(["eval", "order", "axis"]), "--group", str(path),
                     "--word", rng.choice(["a b", "a", "b a c", _fuzz_word(rng)])])
    for argv in runs:
        code = cli.main(argv + rng.choice([[], ["--json"]]))
        captured = capsys.readouterr()
        assert code in (0, 1, 2), (argv, captured.err)
        if code == 2:
            assert captured.out == "" and len(captured.err.splitlines()) == 1, argv


def test_importing_freeprod_makes_cli_an_attribute():
    # In a fresh interpreter, with nothing else imported first.
    src = str(Path(cli.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", "import freeprod; print(freeprod.cli.main.__name__)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "main\n"


def test_importing_freeprod_loads_neither_dataclasses_nor_inspect():
    # Every command is a fresh process, so start-up is paid per call: the
    # records are plain slotted classes, and a bare interpreter (-S) that
    # imports freeprod and its CLI must not load either module.
    package = Path(cli.__file__).resolve().parent
    code = ("import sys, freeprod, freeprod.cli\n"
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(package.parent)}, timeout=60,
    )
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "[]\n")
    for path in sorted(package.glob("*.py")):
        assert not re.search(r"^\s*(from|import)\s+dataclasses\b", path.read_text(), re.M), path


def test_python_m_freeprod_runs_the_command():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "freeprod", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    result = run("order", "--group", str(CASES / "p23.grp"), "--word", "a b")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "order(a b) = infinite\n"
    # a usage error: --word is missing
    result = run("order", "--group", str(CASES / "p23.grp"))
    assert result.returncode == 2
    assert "--word" in result.stderr


def test_run_all_checks_reproduces_every_documented_verdict(capsys):
    # scripts/run_all_checks.py drives every subcommand over the shipped
    # cases; main() returns 0 only when each check exits as documented.
    path = CASES.parent / "scripts" / "run_all_checks.py"
    spec = importlib.util.spec_from_file_location("run_all_checks", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    code = script.main()
    out = capsys.readouterr().out
    assert code == 0, [line for line in out.splitlines() if "UNEXPECTED" in line]
