#!/usr/bin/env python3
"""Drive every verification command over the shipped case files.

Prints each command, its output (a line longer than LINE_CHARS is cut,
with its length noted) and its exit code, and exits nonzero if any check
lands somewhere other than its documented verdict, or if a command run
with --json prints other text than ``json.dumps(report, indent=2)`` of
the report it prints.  Useful as a quick end-to-end smoke run:

    python3 scripts/run_all_checks.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from freeprod import cli  # noqa: E402

CASES = ROOT / "cases"
LINE_CHARS = 400

# a conjugate of 100,003 syllables in D150 * Z2, whose 300 syllable ids do
# not fit in one byte: b is id 298
D150_CONJUGATE = "(b c a)^25000 b c (b c a)^-25000"

# (argv, expected exit code)
CHECKS = [
    (["check", "--group", str(CASES / "example1.grp"),
      "--subgroup", str(CASES / "example1.sub")], 1),
    (["check", "--group", str(CASES / "example2.grp"),
      "--subgroup", str(CASES / "example2.sub")], 1),
    (["check", "--group", str(CASES / "klein.grp"),
      "--subgroup", str(CASES / "klein.sub")], 0),
    # the factor of example1 given as a Cayley table: the one descriptor
    # whose table is validated (Latin square, identity, Light's
    # associativity test, closure); the verdict is example1's
    (["check", "--group", str(CASES / "s3table.grp"),
      "--subgroup", str(CASES / "example1.sub")], 1),
    # an order-300 factor, built with its inverses in closed form
    (["check", "--group", str(CASES / "d150.grp"),
      "--subgroup", str(CASES / "d150.sub")], 0),
    # every f of the order-276 factor scanned against a conjugate table
    # per part order: O(|G| |H_2| + sum of ord f) per pair
    (["check", "--group", str(CASES / "d138.grp"),
      "--subgroup", str(CASES / "d138.sub")], 0),
    # a witness with g = a b != 1 and k2 = 3: f = t a b a, f^2 in <t> and
    # f^3 in the conjugate of <b> by a b
    (["check", "--group", str(CASES / "c3d4.grp"),
      "--subgroup", str(CASES / "c3d4.sub")], 1),
    (["verify-theorem2", "--range", "6"], 0),
    # 8 * 17^3 = 39,304 substitutions, x2 and x3 bound once per (t, s) and
    # (e2, e3), for both values of e1
    (["verify-theorem2", "--range", "8"], 0),
    # 8 * 25^3 = 125,000 substitutions, each step merged once per distinct
    # tuple of its input values in the memo that (e1, e2, 0) and (e1, e2, 1)
    # share
    (["verify-theorem2", "--range", "12"], 0),
    # 8 * 33^3 = 287,496 substitutions, each row of 33 values of x1 decided
    # once per distinct tuple of bound values in the shared memo: the pairs
    # with e2 = 0 collapse to 33 + 32 rows, the others have 33^2 = 1,089
    # + 272
    (["verify-theorem2", "--range", "16"], 0),
    (["verify-lemma4", "--group", str(CASES / "p23.grp"),
      "--trials", "100", "--seed", "0"], 0),
    (["verify-lemma4", "--group", str(CASES / "example1.grp"),
      "--trials", "100", "--seed", "0"], 0),
    # 2 * 80 * (letters) + 1 exponent sums per coefficient of infinite
    # order, all covered by one closed form in f's order
    (["verify-lemma4", "--group", str(CASES / "p23.grp"),
      "--trials", "100", "--seed", "0", "--power-bound", "80"], 0),
    # a bound of 10^12 costs no more: 4,000,000,000,001 sums, no power built
    (["verify-lemma4", "--group", str(CASES / "p23.grp"), "--f", "a b",
      "--power-bound", "1000000000000", "--json"], 0),
    (["verify-lemma5", "--group", str(CASES / "example2.grp"),
      "--f", "a b", "--g", "c", "--k1", "3", "--k2", "2", "--depth", "6"], 0),
    (["verify-lemma5", "--group", str(CASES / "example2.grp"),
      "--f", "a b", "--g", "c", "--k1", "3", "--k2", "2", "--depth", "8"], 0),
    # F = x1 x2 runs over the image ball B_20: one conjugacy test for each of
    # its 7,162 values covers the 47,524 (x1, x2) pairs
    (["verify-lemma5", "--group", str(CASES / "example2.grp"),
      "--f", "a b", "--g", "c", "--k1", "3", "--k2", "2", "--depth", "10"], 0),
    # 28,666 values of F in B_24 cover the 195,364 pairs of the depth-12 ball
    (["verify-lemma5", "--group", str(CASES / "example2.grp"),
      "--f", "a b", "--g", "c", "--k1", "3", "--k2", "2", "--depth", "12"], 0),
    # Lemma 5's equation at depth 6 with F = x1 x2^-1: each pair's key
    # inverts x2, and as B_6^-1 = B_6, F runs over the same 442 values of
    # B_12, none with a solution
    (["solve", "--group", str(CASES / "example2.grp"), "--eq",
      "(x1 x2^-1)^39 x3 (x1 x2^-1)^26 x3^-1 = (a b)^3 c (a b)^2 c",
      "--ball", "(a b)^3;(a b)^2@c", "--depth", "6"], 1),
    (["verify-lemma7", "--group", str(CASES / "p23.grp"),
      "--trials", "1000", "--seed", "0"], 0),
    # product factors, three labels: a drawn label is its generator's
    # syllable, and each trial runs on id strings
    (["verify-lemma4", "--group", str(CASES / "example2.grp"),
      "--trials", "100", "--seed", "0"], 0),
    (["verify-lemma4", "--group", str(CASES / "c3d4.grp"),
      "--trials", "100", "--seed", "0", "--max-len", "8"], 0),
    (["verify-lemma7", "--group", str(CASES / "example2.grp"),
      "--trials", "500", "--seed", "0"], 0),
    (["verify-lemma7", "--group", str(CASES / "c3d4.grp"),
      "--trials", "500", "--seed", "0", "--max-norm", "8"], 0),
    (["axis", "--group", str(CASES / "p23.grp"),
      "--word", "a b", "--window", "1"], 0),
    # a conjugate of 16,004 syllables: its 8,000-syllable conjugator is
    # rendered once, and each of the 24 window vertices adds its own few
    # syllables after it
    (["axis", "--group", str(CASES / "p23.grp"),
      "--word", "(a b)^4000 b a b^2 a (a b)^-4000", "--window", "1"], 0),
    # the same shape at 20,002 syllables as a JSON report: its 0.75 MB of
    # rendered vertices hold no character that JSON escapes
    (["axis", "--group", str(CASES / "p23.grp"),
      "--word", "(a b^2)^5000 b a b^2 a (a b^2)^-5000", "--window", "1", "--json"], 0),
    (["reduce", "--group", str(CASES / "d150.grp"), "--word", D150_CONJUGATE], 0),
    (["order", "--group", str(CASES / "d150.grp"), "--word", D150_CONJUGATE], 0),
    (["axis", "--group", str(CASES / "d150.grp"), "--word", D150_CONJUGATE,
      "--window", "1"], 0),
    # 10^7 syllables, the power cap, are built and rendered; one more
    # period is refused before anything is built: a resource limit, exit 2
    (["eval", "--group", str(CASES / "p23.grp"), "--word", "(a b)^5000000"], 0),
    (["eval", "--group", str(CASES / "p23.grp"), "--word", "(a b)^5000001"], 2),
    (["order", "--group", str(CASES / "p23.grp"),
      "--word", "a^100000000000"], 0),
    # infinite order, read from the base; the normal form is above the cap
    (["order", "--group", str(CASES / "p23.grp"),
      "--word", "(a b)^6833241672693788912"], 0),
    # c lies outside the 39,061-element ball: one membership question
    # certifies it
    (["solve", "--group", str(CASES / "example2.grp"), "--eq", "x1 = c",
      "--ball", "a,b;a,b@c", "--depth", "6"], 1),
    # the depth-12 ball holds about 6*10^8 elements; a lone one-occurrence
    # variable is answered by meet-in-the-middle membership without it:
    # 12 alternating part elements lie in the ball, 13 do not
    (["solve", "--group", str(CASES / "example2.grp"),
      "--eq", "x1 = " + " ".join(["a", "c b c"] * 6),
      "--ball", "a,b;a,b@c", "--depth", "12"], 0),
    (["solve", "--group", str(CASES / "example2.grp"),
      "--eq", "x1 = " + " ".join(["a", "c b c"] * 6) + " b^2",
      "--ball", "a,b;a,b@c", "--depth", "12"], 1),
    # a factor of order 10^9: refused before its table is built, exit 2
    (["order", "--group", str(CASES / "refused" / "oversized.grp"), "--word", "a"], 2),
    # nested deeper than the parser's recursion can go: an input error
    (["eval", "--group", str(CASES / "p23.grp"),
      "--word", "(" * 400 + "a" + ")" * 400], 2),
    # all 4,408 commuting pairs in the 890-element ball, each x2 looked up
    # in the centralizer of x1
    (["solve", "--group", str(CASES / "p23.grp"), "--eq", "[x1,x2] = 1",
      "--ball", "a;b", "--depth", "14", "--all"], 0),
    # the commutator's inverse is spliced into the compiled word, inverted,
    # so it takes the centralizer-coset path too, with the same witnesses
    (["solve", "--group", str(CASES / "p23.grp"), "--eq", "[x1,x2]^-1 = 1",
      "--ball", "a;b", "--depth", "8", "--all"], 0),
    # x1 twice with one sign is searched, not looked up as x1 = a b: a b is
    # not a square, so no ball element solves it
    (["solve", "--group", str(CASES / "p23.grp"), "--eq", "x1^2 = a b",
      "--ball", "a;b", "--depth", "8"], 1),
    # a commutator used twice, with exponents 2 and 1: the general path's
    # compiled word merges its body once per tuple
    (["solve", "--group", str(CASES / "p23.grp"), "--eq", "[x1,x2]^2 x1 [x1,x2] = a",
      "--ball", "a;b", "--depth", "6", "--all"], 0),
    # x3 occurs once, squared, so each of its candidates is tried, but once
    # per value of the run x1 x2, not once per pair; 2,472 solutions
    (["solve", "--group", str(CASES / "p23.grp"), "--eq", "(x1 x2)^2 x3^2 = 1",
      "--ball", "a;b", "--depth", "6", "--all"], 0),
    # x2 occurs three times, once inside a power with exponent -2: the
    # general path's compiled word refers to the step x2^-1 x1 squared and
    # inverted; 22 solutions
    (["solve", "--group", str(CASES / "p23.grp"), "--eq", "(x2^-1 x1)^-2 x2 = b",
      "--ball", "a;b", "--depth", "8", "--all"], 0),
    # x1 and x2 occur only as the product x1 x2: the 96,721 pairs of the
    # 311-element ball give 39,061 products, each decided once; all 3,096
    # solutions are still listed and re-checked
    (["solve", "--group", str(CASES / "example2.grp"), "--eq", "x3 x1 x2 x3^-1 = c a c",
      "--ball", "a,b;a,b@c", "--depth", "3", "--all"], 0),
    # one subgroup given twice: the ball is the 6 elements of <a,b> at every
    # depth from 1, and building it extends only new elements, where
    # extending every sequence of alternating part elements would form about
    # 6*10^8 products; all 36 commuting pairs
    (["solve", "--group", str(CASES / "example2.grp"), "--eq", "[x1,x2] = 1",
      "--ball", "a,b;a,b", "--depth", "12", "--all"], 0),
    # the same overlapping parts under the image walk: x1 x2 runs over B_10,
    # 6 values, none conjugate to c
    (["solve", "--group", str(CASES / "example2.grp"), "--eq", "x3 x1 x2 x3^-1 = c",
      "--ball", "a,b;a,b", "--depth", "5"], 1),
    # y = x2 with sign -1 on both split paths: the coset lookup solves
    # y T y^-1 = B, B and T swapped, and the single-occurrence lookup
    # inverts T
    (["solve", "--group", str(CASES / "p23.grp"), "--eq", "x2^-1 x1 x2 = a b a b",
      "--ball", "a;b", "--depth", "6"], 0),
    (["solve", "--group", str(CASES / "p23.grp"), "--eq", "x1 x2^-1 = a b a",
      "--ball", "a;b", "--depth", "6"], 0),
    # B = x1^2 is a proper power and T = x1^-3 rhs: both are built from
    # one cyclic split of x1 per key, B's split with it, and the keys whose
    # cores have one norm reach the rotation test; 6 solutions, all with
    # x1 = a b
    (["solve", "--group", str(CASES / "p23.grp"), "--eq",
      "x1^3 x2 x1^2 x2^-1 = a b a b a b^2 a b a", "--ball", "a;b", "--depth", "6", "--all"], 0),
    # the re-check fills a variable of each sign, a constant and the kept
    # power x1^2 (the parser writes (x1 a x2^-1)^-1 out as x2 a^-1 x1^-1);
    # 10 solutions
    (["solve", "--group", str(CASES / "p23.grp"), "--eq", "(x1 a x2^-1)^-1 x1^2 = b",
      "--ball", "a;b", "--depth", "3", "--all"], 0),
    # B = x1^-1 b and T = b^2 x1^-1 are never conjugate (their images in
    # C2 x C3 differ in b), so no pair solves it
    (["solve", "--group", str(CASES / "p23.grp"), "--eq", "x2^-1 x1^-1 b x2 x1 = b^2",
      "--ball", "a;b", "--depth", "6"], 1),
    # numeric arguments out of range: usage errors
    (["verify-theorem2", "--range", "0"], 2),
    (["axis", "--group", str(CASES / "p23.grp"),
      "--word", "a b", "--window", "-1"], 2),
    (["verify-lemma5", "--group", str(CASES / "example2.grp"),
      "--f", "a b", "--g", "c", "--k1", "0", "--k2", "2"], 2),
    (["verify-lemma7", "--group", str(CASES / "p23.grp"), "--max-power", "1"], 2),
    (["solve", "--group", str(CASES / "p23.grp"), "--eq", "x1 = a",
      "--ball", "a;b", "--depth", "-1"], 2),
    (["verify-lemma4", "--group", str(CASES / "p23.grp"), "--trials", "-1"], 2),
    # a ball part in a factor the group does not have: an input error
    (["solve", "--group", str(CASES / "p23.grp"), "--eq", "x1 = a",
      "--ball", "factor=9 gens=1"], 2),
    # f = a b has order 6, so --k1 6 makes the ball part <f^6> trivial: an
    # input error that names the argument
    (["verify-lemma5", "--group", str(CASES / "example2.grp"),
      "--f", "a b", "--g", "c", "--k1", "6", "--k2", "2", "--depth", "2"], 2),
    # g in f's factor: the two ball parts fix one vertex of the Bass-Serre
    # tree and generate the finite group <f>, not their free product
    (["verify-lemma5", "--group", str(CASES / "example2.grp"),
      "--f", "a b", "--g", "a b", "--k1", "3", "--k2", "2", "--depth", "3"], 2),
    # f = a b has infinite order in C2 * C3, so f^N != f: refused before the
    # equation is built
    (["verify-lemma5", "--group", str(CASES / "p23.grp"),
      "--f", "a b", "--g", "b", "--k1", "1", "--k2", "1"], 2),
    # one factor: no element of infinite order to sample
    (["verify-lemma7", "--group", str(CASES / "one_factor.grp"), "--trials", "1"], 2),
    # C2 * C2: each element of infinite order commutes with its conjugates
    (["verify-lemma7", "--group", str(CASES / "c2c2.grp"), "--trials", "1"], 2),
]


def _is_indented_json(text: str) -> bool:
    try:
        return text == json.dumps(json.loads(text), indent=2) + "\n"
    except ValueError:
        return False


def main() -> int:
    failures = 0
    for argv, expected in CHECKS:
        print(f"$ freeprod {' '.join(argv)}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        text = out.getvalue()
        for line in text.splitlines():
            if len(line) > LINE_CHARS:
                line = f"{line[:LINE_CHARS]} ... ({len(line):,} characters)"
            print(line)
        status = "ok" if code == expected else f"UNEXPECTED exit {code} (wanted {expected})"
        if code == expected and "--json" in argv and not _is_indented_json(text):
            status = "UNEXPECTED JSON text (not the indented dump of its report)"
        if status != "ok":
            failures += 1
        print(f"  -> exit {code} [{status}]\n")
    if failures:
        print(f"{failures} check(s) off their documented verdict")
        return 1
    print("all checks reproduce their documented verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
