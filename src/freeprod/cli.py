"""Command-line front end.

Every subcommand reads plain-text spec files (see specfiles), prints a
human-readable summary, and with --json emits a report of the fixed shape

    {"verdict": str, "violations": [...], "witnesses": [...], "timings": {...}}

(solve adds "counters", its work counts).  Exit codes: 0 = pass/solved,
1 = violation or no solution found, 2 = input/usage error or a resource
limit (out of memory, recursion too deep), 3 = internal error (an
unexpected exception, reported on one line).  main() returns the code in
every case; it does not raise SystemExit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from pathlib import Path

from . import checker, specfiles, tree, words
from .errors import GroupError, PowerTooLargeError
# enumerate_ball is not called here, but bench/ traces it in this namespace
from .free_product import INFINITE, Ball, FreeProduct, Part, enumerate_ball  # noqa: F401
from .sampling import (
    random_cyclically_reduced,
    random_noncommuting_conjugator,
    random_word_text,
)

REPORT_SCHEMA = {
    "type": "object",
    "required": ["verdict", "violations", "witnesses", "timings"],
    "properties": {
        "verdict": {"type": "string"},
        "violations": {"type": "array", "items": {"type": "object"}},
        "witnesses": {"type": "array", "items": {"type": "object"}},
        "timings": {
            "type": "object",
            "required": ["total_s"],
            "properties": {"total_s": {"type": "number"}},
        },
        # solve only: its work counts, independent of the machine
        "counters": {
            "type": "object",
            "required": ["ball_size", "membership_queries"],
            "properties": {
                "ball_size": {"type": ["integer", "null"]},
                "membership_queries": {"type": "integer"},
                "outer_tuples": {"type": "integer"},
                "outer_values": {"type": "integer"},
            },
        },
    },
}


def _report(verdict, violations=(), witnesses=(), started=None):
    return {
        "verdict": verdict,
        "violations": list(violations),
        "witnesses": list(witnesses),
        "timings": {"total_s": time.perf_counter() - started if started else 0.0},
    }


def _load_group(path: str) -> FreeProduct:
    return specfiles.parse_group_spec(Path(path).read_text())


def _violation_dict(v: checker.Violation, ambient: FreeProduct) -> dict:
    out = {"kind": v.kind}
    if v.kind == checker.CONDITION1:
        out["free_rank"] = v.free_rank
    else:
        g = ambient.factors[v.factor]
        out.update(
            factor=v.factor,
            parts=list(v.part_indices),
            f=" ".join(g.element_words[v.witness_f]) or "1",
            g=" ".join(g.element_words[v.witness_g]) or "1",
            k1=v.k1,
            k2=v.k2,
        )
    return out


def _violation_line(v: dict) -> str:
    """The text of a violation, from its _violation_dict."""
    if v["kind"] == checker.CONDITION1:
        return f"free part has rank {v['free_rank']}, expected 0"
    j1, j2 = v["parts"]
    return (
        f"parts {j1} and {j2} in factor {v['factor']}: f = {v['f']} with f^{v['k1']} "
        f"in part {j1} and f^{v['k2']} in conjugate of part {j2} by g = {v['g']}"
    )


def _emit(args, report, lines):
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


# --------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, report, human_lines)


def _cmd_eval(args):
    t0 = time.perf_counter()
    ambient = _load_group(args.group)
    value = words.parse_constant(args.word, ambient)
    text = value.as_word()
    witness = {"word": args.word, "normal_form": text, "norm": value.norm}
    return 0, _report("ok", witnesses=[witness], started=t0), [
        f"{args.word}  ->  {text}   (norm {value.norm})"
    ]


def _power_order(items, ambient: FreeProduct) -> int | float:
    """Order of a variable-free word without building its normal form when
    the word is one power u^k: u^k has order ord(u) / gcd(ord(u), k), and
    infinite order iff u has."""
    if len(items) == 1 and isinstance(items[0], words.Pow):
        body_order = _power_order(items[0].body, ambient)
        if body_order == INFINITE:
            return INFINITE
        return body_order // math.gcd(body_order, items[0].k)
    return words.evaluate(words.MixedWord(ambient, items), {}).order()


def _cmd_order(args):
    t0 = time.perf_counter()
    ambient = _load_group(args.group)
    try:
        value = words.parse_constant(args.word, ambient)
    except PowerTooLargeError:
        # The normal form is above the power cap; the order of a single
        # power still follows from its base.
        word = words.parse_word(args.word, ambient)
        order, normal_form = _power_order(word.letters, ambient), None
    else:
        order, normal_form = value.order(), value.as_word()
    text = "infinite" if order == INFINITE else str(order)
    witness = {"word": args.word, "normal_form": normal_form, "order": text}
    return 0, _report("ok", witnesses=[witness], started=t0), [f"order({args.word}) = {text}"]


def _cmd_reduce(args):
    t0 = time.perf_counter()
    ambient = _load_group(args.group)
    value = words.parse_constant(args.word, ambient)
    red = value.cyclic_reduce()
    conj, core = red.conjugator.as_word(), red.core.as_word()
    witness = {"word": args.word, "conjugator": conj, "core": core, "core_norm": red.core.norm}
    return 0, _report("ok", witnesses=[witness], started=t0), [
        f"{args.word} = c * core * c^-1 with c = {conj}, core = {core} (norm {red.core.norm})"
    ]


def _cmd_check(args):
    t0 = time.perf_counter()
    ambient = _load_group(args.group)
    data = specfiles.parse_subgroup_spec(Path(args.subgroup).read_text(), ambient)
    verdict = checker.check_all(data)
    vios = [_violation_dict(v, ambient) for v in verdict.violations]
    if verdict.passes_necessary:
        report = _report("passes-necessary-inconclusive", started=t0)
        return 0, report, [
            "passes the necessary conditions (inconclusive: they are not sufficient)"
        ]
    lines = ["fails the necessary conditions:"] + ["  " + _violation_line(v) for v in vios]
    return 1, _report("fails-necessary", violations=vios, started=t0), lines


def _cmd_solve(args):
    t0 = time.perf_counter()
    ambient = _load_group(args.group)
    eq = words.parse_equation(args.eq, ambient)
    parts = specfiles.parse_ball_spec(args.ball, ambient)
    ball = Ball(ambient, parts, args.depth)
    candidates = {v: ball for v in eq.lhs.free_variables()}
    mode = "all" if args.all else "first"
    work: dict = {}
    found = words.solve_bounded(eq, candidates, mode=mode, counters=work)
    solutions = found if args.all else ([found] if found else [])
    witnesses = [
        {f"x{i}": v.as_word() for i, v in sub.assignment} for sub in solutions
    ]
    # The search enumerates the ball unless a lone one-occurrence variable
    # is answered by membership alone.
    size = len(ball) if ball.enumerated else None
    if solutions:
        report = _report("solved", witnesses=witnesses, started=t0)
        sized = f" ({size} elements)" if size is not None else ""
        lines = [f"solution in the depth-{args.depth} ball{sized}:"]
        for w in witnesses:
            rendered = ", ".join(f"{x} = {text}" for x, text in w.items())
            lines.append("  " + (rendered or "(no variables)"))
        code = 0
    else:
        report = _report("no-solution-in-set", started=t0)
        if size is None:
            lines = [f"no solution in the depth-{args.depth} ball"]
        else:
            lines = [f"no solution among the {size} ball elements (depth {args.depth})"]
        code = 1
    report["counters"] = {
        "ball_size": size, "membership_queries": ball.membership_queries, **work
    }
    return code, report, lines


def _cmd_verify_theorem2(args):
    t0 = time.perf_counter()
    rep = words.theorem2_report(args.range)
    d = rep.to_dict()
    witnesses = [
        {"cases": d["cases"], "embedding_image_matches": d["embedding_image_matches"]}
    ]
    violations = []
    for c in rep.case_results:
        for m in c.mismatches:
            violations.append({"kind": "case-mismatch", "epsilons": list(c.epsilons), "kts": list(m)})
    for hit in rep.target_hits:
        violations.append({"kind": "target-hit", "kts": list(hit[:3]), "epsilons": list(hit[3])})
    if not rep.embedding_image_matches:
        violations.append({"kind": "embedding-image-mismatch"})
    verdict = "verified" if rep.ok else "failed"
    lines = [
        f"{rep.total_evaluations} evaluations over k,t,s in [-{args.range},{args.range}]: "
        f"{'all case formulas confirmed, 0 matches against the target' if rep.ok else 'FAILED'}"
    ]
    flagged = [c for c in rep.case_results if c.sign_variant_consistent is False]
    for c in flagged:
        lines.append(
            f"  note: case {c.epsilons} sign-variant {c.sign_variant_coeffs} is "
            f"excluded by direct evaluation; verified form is {c.exponent_coeffs}"
        )
    return (0 if rep.ok else 1), _report(verdict, violations, witnesses, t0), lines


def _cmd_verify_lemma4(args):
    t0 = time.perf_counter()
    ambient = _load_group(args.group)
    rng = random.Random(args.seed)
    failures = []
    samples = []
    infinite_checked = 0
    for _ in range(args.trials):
        f_word = args.f or random_word_text(rng, ambient, 1, args.max_len)
        cons = words.build_lemma4(ambient, f_word)
        ok = words.evaluate(cons.equation.lhs, cons.g_solution) == cons.equation.rhs
        if not ok:
            failures.append({"kind": "construction", "f": f_word})
        if cons.equation.rhs.order() == INFINITE:
            infinite_checked += 1
            if words.cyclic_power_solution_exists(cons, args.power_bound):
                failures.append({"kind": "cyclic-power-solution", "f": f_word})
        if len(samples) < 3:
            samples.append(
                {"f": f_word, "p": cons.prime, "k": list(cons.exponents)}
            )
        if args.f:
            break
    verdict = "verified" if not failures else "failed"
    lines = [
        f"{args.trials if not args.f else 1} construction(s) verified, "
        f"{infinite_checked} infinite-order coefficient(s) checked against "
        f"cyclic-power substitutions (|n| <= {args.power_bound}): "
        f"{'ok' if not failures else 'FAILED'}"
    ]
    return (0 if not failures else 1), _report(verdict, failures, samples, t0), lines


def _cmd_verify_lemma5(args):
    t0 = time.perf_counter()
    ambient = _load_group(args.group)
    cons = words.build_lemma5(ambient, args.f, args.g, args.k1, args.k2)
    sol_ok = words.evaluate(cons.equation.lhs, cons.g_solution) == cons.equation.rhs

    f_elem = words.parse_constant(args.f, ambient)
    g_elem = words.parse_constant(args.g, ambient)
    if f_elem.norm != 1:
        raise GroupError(f"coefficient {args.f!r} must lie in a single factor")
    factor, fe = f_elem.syllables[0]
    power = ambient.factors[factor].power
    parts = [Part.of(ambient, factor, [power(fe, args.k1)]),
             Part.of(ambient, factor, [power(fe, args.k2)], g_elem)]
    ball = Ball(ambient, parts, args.depth)
    candidates = {v: ball for v in cons.equation.lhs.free_variables()}
    work: dict = {}
    found = words.solve_bounded(cons.equation, candidates, mode="first", counters=work)

    ok = sol_ok and found is None
    witnesses = [
        {
            "N": cons.N,
            "rhs": cons.equation.rhs.as_word(),
            "generator_solution_ok": sol_ok,
            "ball_size": len(ball),
            "ball_search": "no-solution-in-set" if found is None else "solved",
            **work,
        }
    ]
    violations = []
    if not sol_ok:
        violations.append({"kind": "generator-solution-fails"})
    if found is not None:
        violations.append(
            {"kind": "unexpected-solution",
             "solution": {f"x{i}": v.as_word() for i, v in found.assignment}}
        )
    # When F = f(x) is a product of the m other variables, each once, and
    # g(x) holds none of them, the search decided every value F takes over
    # the ball: by B_d^m = B_md, one per element of B_md.
    outer = list(cons.equation.lhs.free_variables()[:-1])
    f_vars = sorted(l.index for l in cons.f_word.letters if isinstance(l, words.Var))
    m, d = len(outer), args.depth
    if found is not None:
        outcome = "SOLUTION FOUND"
    elif f_vars != outer or len(cons.f_word.letters) != m or m < 2 or any(
        v in outer for v in cons.g_word.free_variables()
    ):
        outcome = "no solution"
    else:
        outcome = (
            f"no F = {cons.f_word} in B_{m * d} ({work['outer_values']:,} values) "
            f"has a solution; by {'*'.join([f'B_{d}'] * m)} = B_{m * d} "
            f"this covers all {work['outer_tuples']:,} {'pairs' if m == 2 else 'tuples'}"
        )
    lines = [
        f"N = {cons.N}; generator substitution "
        f"{'satisfies' if sol_ok else 'FAILS'} the equation; "
        f"search over the depth-{args.depth} ball ({len(ball)} elements): {outcome}"
    ]
    return (0 if ok else 1), _report("verified" if ok else "failed", violations, witnesses, t0), lines


def _cmd_verify_lemma7(args):
    t0 = time.perf_counter()
    ambient = _load_group(args.group)
    rng = random.Random(args.seed)
    failures = []
    worst = None
    for _ in range(args.trials):
        a = random_cyclically_reduced(rng, ambient, 2, args.max_norm)
        g = random_noncommuting_conjugator(rng, ambient, a)
        n1, n2 = rng.randint(2, args.max_power), rng.randint(2, args.max_power)
        x = a.power(n1) * a.conjugate(g).power(n2)
        core = x.cyclic_reduce().core
        bound = (n1 + n2 - 4) * a.norm
        margin = core.norm - bound
        if worst is None or margin < worst:
            worst = margin
        if core.norm <= bound:
            failures.append(
                {"A": a.as_word(), "g": g.as_word(), "N1": n1, "N2": n2,
                 "core_norm": core.norm, "bound": bound}
            )
    ok = not failures
    witnesses = [{"trials": args.trials, "min_margin": worst}]
    lines = [
        f"{args.trials} trials: core norm exceeded (N1+N2-4)*|A| in "
        f"{'all' if ok else 'NOT all'} cases (min margin {worst})"
    ]
    return (0 if ok else 1), _report("verified" if ok else "failed", failures, witnesses, t0), lines


def _cmd_axis(args):
    t0 = time.perf_counter()
    ambient = _load_group(args.group)
    value = words.parse_constant(args.word, ambient)
    cls = tree.classify(value)
    if isinstance(cls, tree.Elliptic):
        vertex = cls.fixed_vertex.render()
        witness = {"type": "elliptic", "fixed_vertex": vertex}
        return 0, _report("elliptic", witnesses=[witness], started=t0), [
            f"{args.word} is elliptic; fixes {vertex}"
        ]
    verts = [v.render() for v in tree.axis_vertices(value, args.window)]
    witness = {
        "type": "hyperbolic",
        "translation_edges": cls.axis.translation_length_edges,
        "conjugator": cls.axis.conjugator.as_word(),
        "core": cls.axis.core.as_word(),
        "vertices": verts,
    }
    lines = [
        f"{args.word} is hyperbolic; translation length "
        f"{cls.axis.translation_length_edges} edges",
        "axis window: " + "  ".join(verts),
    ]
    return 0, _report("hyperbolic", witnesses=[witness], started=t0), lines


# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error, a bad numeric argument included, as one line
    on stderr and exits with code 2."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _int_at_least(least: int):
    """argparse type: an integer >= least."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every main() call can share it."""
    parser = _Parser(
        prog="freeprod",
        description="exact computation in free products of finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    p = add("eval", _cmd_eval, help="normal form of a word")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)

    p = add("order", _cmd_order, help="order of an element")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)

    p = add("reduce", _cmd_reduce, help="cyclic reduction of a word")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)

    p = add("check", _cmd_check, help="necessary-condition check on a decomposition")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True)

    p = add("solve", _cmd_solve, help="bounded equation search over a subgroup ball")
    p.add_argument("--group", required=True)
    p.add_argument("--eq", required=True, help="e.g. '[x1,x2] = 1'")
    p.add_argument("--ball", required=True, help="';'-separated parts, e.g. 'a;b@c'")
    p.add_argument("--depth", type=_int_at_least(0), default=2)
    p.add_argument("--all", action="store_true", help="find all solutions")

    p = add("verify-theorem2", _cmd_verify_theorem2,
            help="exhaustive case check of the two-involution equation")
    p.add_argument("--range", type=_int_at_least(1), default=6)

    p = add("verify-lemma4", _cmd_verify_lemma4,
            help="power-equation construction on random coefficient words")
    p.add_argument("--group", required=True)
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=_int_at_least(1), default=5)
    p.add_argument("--power-bound", type=_int_at_least(0), default=20)
    p.add_argument("--f", help="check one fixed coefficient word instead")

    p = add("verify-lemma5", _cmd_verify_lemma5,
            help="twisted power equation: generator solution + ball search")
    p.add_argument("--group", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--k1", type=_int_at_least(1), required=True)
    p.add_argument("--k2", type=_int_at_least(1), required=True)
    p.add_argument("--depth", type=_int_at_least(0), default=6)

    p = add("verify-lemma7", _cmd_verify_lemma7,
            help="norm bound for the cyclic core of A^N1 (A^g)^N2")
    p.add_argument("--group", required=True)
    p.add_argument("--trials", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-norm", type=_int_at_least(2), default=6)
    p.add_argument("--max-power", type=_int_at_least(2), default=5)

    p = add("axis", _cmd_axis, help="classify an element and print its axis window")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--window", type=_int_at_least(0), default=1)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # A usage error (2) or --help (0); the parser has printed it.
        return exc.code or 0
    try:
        code, report, lines = args.handler(args)
        _emit(args, report, lines)
    except (GroupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        # A resource limit, not a violation: one line, never a traceback.
        print(f"error: resource limit reached ({type(exc).__name__})", file=sys.stderr)
        return 2
    except Exception as exc:
        # A fault in freeprod itself: its own code, never 1 ("violation").
        message = " ".join(str(exc).split())
        print(f"error: internal error ({type(exc).__name__}: {message})", file=sys.stderr)
        return 3
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
