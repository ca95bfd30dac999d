"""Command-line front end.

Every subcommand reads plain-text spec files (see specfiles) and builds one
report of the fixed shape

    {"verdict": str, "violations": [...], "witnesses": [...], "timings": {...}}

A handler maps (args, the --group file's FreeProduct, or None) to (exit
code, report); it renders no text, reads no clock and opens no group file.
main() loads --group once, stamps timings.total_s around the load and the
handler, and prints the JSON with --json (the bytes of
json.dumps(report, indent=2), see _json_text), else the lines of the
command's formatter, a function of (args, report) alone.

main() hands an argv that starts with a known command straight to that
command's subparser, as the top-level parser would after matching the
name, so each call runs one parser, not two; arguments the subparser
leaves over go to the top-level parser's error(), which words them as
parse_args does ("error: freeprod: unrecognized arguments: ...").  Any
other argv (no command, -h, an unknown name) goes through parse_args.

Keys beyond the fixed shape: solve's "counters", its work counts, where
"image" is the run and depth of the image walk, or null; check's
"counters", the same-factor "pairs" condition 2 scanned and the
"table_entries" of their conjugate tables; verify-lemma5's
witness "F" (f(x) in the variables) and "image"; verify-lemma4's
"infinite_order_checked" and "counters", the exponent sums covered
("candidates") and the powers built to compare ("powers_built"); axis's
"counters", the "syllables_rendered" into text.

Exit codes: 0 = pass/solved, 1 = violation or no solution found, 2 =
input/usage error or a resource limit (out of memory, recursion too deep),
3 = internal error (an unexpected exception, reported on one line).
main() returns the code in every case; it does not raise SystemExit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from . import checker, specfiles, tree, words
from .errors import GroupError, PowerTooLargeError, TrivialSubgroupError
# enumerate_ball is not called here, but bench/ traces it in this namespace
from .free_product import (  # noqa: F401
    INFINITE,
    Ball,
    FPElement,
    FreeProduct,
    Part,
    _cyclic_split,
    _product,
    enumerate_ball,
    power_syllables,
)
from .sampling import _conjugate, _cyclically_reduced, random_word_text

_IMAGE = {"type": ["object", "null"], "required": ["run", "depth"],
          "properties": {"run": {"type": "string"}, "depth": {"type": "integer"}}}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["verdict", "violations", "witnesses", "timings"],
    "properties": {
        "verdict": {"type": "string"},
        "violations": {"type": "array", "items": {"type": "object"}},
        # verify-lemma5's witness adds F = f(x) and its search's image
        "witnesses": {"type": "array", "items": {
            "type": "object", "properties": {"F": {"type": "string"}, "image": _IMAGE}}},
        "timings": {
            "type": "object",
            "required": ["total_s"],
            "properties": {"total_s": {"type": "number"}},
        },
        # solve's, check's, verify-lemma4's and axis's work counts,
        # independent of the machine
        "counters": {
            "type": "object",
            "anyOf": [{"required": ["ball_size", "membership_queries"]},
                      {"required": ["pairs", "table_entries"]},
                      {"required": ["candidates", "powers_built"]},
                      {"required": ["syllables_rendered"]}],
            "properties": {
                "ball_size": {"type": ["integer", "null"]},
                "membership_queries": {"type": "integer"},
                "outer_tuples": {"type": "integer"},
                "outer_values": {"type": "integer"},
                "image": _IMAGE,
                "pairs": {"type": "integer"},
                "table_entries": {"type": "integer"},
                "candidates": {"type": "integer"},
                "powers_built": {"type": "integer"},
                "syllables_rendered": {"type": "integer"},
            },
        },
        # verify-lemma4 only: the coefficients of infinite order checked
        "infinite_order_checked": {"type": "integer"},
    },
}


def _report(verdict, violations=(), witnesses=()):
    return {"verdict": verdict, "violations": list(violations), "witnesses": list(witnesses)}


def _load_group(path: str) -> FreeProduct:
    with open(path) as f:
        return specfiles.parse_group_spec(f.read())


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


# --------------------------------------------------------------------------
# subcommands: each handler, then its formatter (see the module docstring)


def _cmd_eval(args, ambient):
    value = words.parse_constant(args.word, ambient)
    witness = {"word": args.word, "normal_form": value.as_word(), "norm": value.norm}
    return 0, _report("ok", witnesses=[witness])


def _text_eval(args, report):
    w = report["witnesses"][0]
    return [f"{args.word}  ->  {w['normal_form']}   (norm {w['norm']})"]


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


def _cmd_order(args, ambient):
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
    return 0, _report("ok", witnesses=[witness])


def _text_order(args, report):
    return [f"order({args.word}) = {report['witnesses'][0]['order']}"]


def _cmd_reduce(args, ambient):
    red = words.parse_constant(args.word, ambient).cyclic_reduce()
    witness = {"word": args.word, "conjugator": red.conjugator.as_word(),
               "core": red.core.as_word(), "core_norm": red.core.norm}
    return 0, _report("ok", witnesses=[witness])


def _text_reduce(args, report):
    w = report["witnesses"][0]
    return [f"{args.word} = c * core * c^-1 with c = {w['conjugator']}, core = {w['core']} "
            f"(norm {w['core_norm']})"]


def _cmd_check(args, ambient):
    with open(args.subgroup) as f:
        data = specfiles.parse_subgroup_spec(f.read(), ambient)
    verdict = checker.check_all(data)
    vios = [_violation_dict(v, ambient) for v in verdict.violations]
    report = _report("fails-necessary" if vios else "passes-necessary-inconclusive",
                     violations=vios)
    report["counters"] = {"pairs": verdict.pairs, "table_entries": verdict.table_entries}
    return (1 if vios else 0), report


def _text_check(args, report):
    if not report["violations"]:
        return ["passes the necessary conditions (inconclusive: they are not sufficient)"]
    lines = ["fails the necessary conditions:"]
    for v in report["violations"]:
        if v["kind"] == checker.CONDITION1:
            lines.append(f"  free part has rank {v['free_rank']}, expected 0")
            continue
        j1, j2 = v["parts"]
        lines.append(f"  parts {j1} and {j2} in factor {v['factor']}: f = {v['f']} with "
                     f"f^{v['k1']} in part {j1} and f^{v['k2']} in conjugate of part {j2} "
                     f"by g = {v['g']}")
    return lines


def _cmd_solve(args, ambient):
    eq = words.parse_equation(args.eq, ambient)
    ball = Ball(ambient, specfiles.parse_ball_spec(args.ball, ambient), args.depth)
    candidates = {v: ball for v in eq.lhs.free_variables()}
    work: dict = {}
    found = words.solve_bounded(eq, candidates, mode="all" if args.all else "first",
                                counters=work)
    solutions = found if args.all else ([found] if found else [])
    # each variable's name is made once, and each distinct value rendered once
    names = {i: f"x{i}" for i in eq.lhs.free_variables()}
    texts = {v.ids: v for sub in solutions for _, v in sub.assignment}
    texts = {s: v.as_word() for s, v in texts.items()}
    witnesses = [{names[i]: texts[v.ids] for i, v in sub.assignment} for sub in solutions]
    report = _report("solved" if solutions else "no-solution-in-set", witnesses=witnesses)
    # The search enumerates the ball unless a lone one-occurrence variable
    # is answered by membership alone.
    report["counters"] = {
        "ball_size": len(ball) if ball.enumerated else None,
        "membership_queries": ball.membership_queries,
        **work,
    }
    return (0 if solutions else 1), report


def _text_solve(args, report):
    size = report["counters"]["ball_size"]
    if report["verdict"] != "solved":
        if size is None:
            return [f"no solution in the depth-{args.depth} ball"]
        return [f"no solution among the {size} ball elements (depth {args.depth})"]
    sized = f" ({size} elements)" if size is not None else ""
    lines = [f"solution in the depth-{args.depth} ball{sized}:"]
    for w in report["witnesses"]:
        rendered = ", ".join(f"{x} = {text}" for x, text in w.items())
        lines.append("  " + (rendered or "(no variables)"))
    return lines


def _cmd_verify_theorem2(args, ambient):
    rep = words.theorem2_report(args.range)
    d = rep.to_dict()
    witnesses = [{"cases": d["cases"], "embedding_image_matches": d["embedding_image_matches"]}]
    violations = [{"kind": "case-mismatch", "epsilons": list(c.epsilons), "kts": list(m)}
                  for c in rep.case_results for m in c.mismatches]
    violations += [{"kind": "target-hit", "kts": list(hit[:3]), "epsilons": list(hit[3])}
                   for hit in rep.target_hits]
    if not rep.embedding_image_matches:
        violations.append({"kind": "embedding-image-mismatch"})
    return (0 if rep.ok else 1), _report("verified" if rep.ok else "failed", violations, witnesses)


def _text_verify_theorem2(args, report):
    cases = report["witnesses"][0]["cases"]
    ok = report["verdict"] == "verified"
    lines = [f"{sum(c['evaluations'] for c in cases)} evaluations over k,t,s in "
             f"[-{args.range},{args.range}]: "
             f"{'all case formulas confirmed, 0 matches against the target' if ok else 'FAILED'}"]
    for c in cases:
        if c.get("sign_variant_consistent") is False:
            lines.append(f"  note: case {tuple(c['epsilons'])} sign-variant "
                         f"{tuple(c['sign_variant_coeffs'])} is excluded by direct evaluation; "
                         f"verified form is {tuple(c['exponent_coeffs'])}")
    return lines


def _cmd_verify_lemma4(args, ambient):
    rng = random.Random(args.seed)
    failures = []
    samples = []
    infinite_checked = 0
    work = {"candidates": 0, "powers_built": 0}
    # a drawn word is labels, each its generator's syllable: it is not parsed
    symbols = ambient.codec.symbols
    syllable = {label: symbols[f][e] for label, (f, e) in ambient.generator_map.items()}
    for _ in range(args.trials):
        if args.f:
            f_word, letters = args.f, words._lemma4_letters(ambient, args.f)
        else:
            f_word = random_word_text(rng, ambient, 1, args.max_len)
            letters = [syllable[label] for label in f_word.split()]
        cons = words._build_lemma4(ambient, letters)
        reduction = cons.f.cyclic_reduce()
        if reduction.order() == INFINITE:
            infinite_checked += 1
            if words.cyclic_power_solution_exists(cons, args.power_bound, reduction, work):
                failures.append({"kind": "cyclic-power-solution", "f": f_word})
        if len(samples) < 3:
            samples.append({"f": f_word, "p": cons.prime, "k": list(cons.exponents)})
        if args.f:
            break
    report = _report("verified" if not failures else "failed", failures, samples)
    report["infinite_order_checked"] = infinite_checked
    report["counters"] = work
    return (0 if not failures else 1), report


def _text_verify_lemma4(args, report):
    return [f"{args.trials if not args.f else 1} construction(s) verified, "
            f"{report['infinite_order_checked']} infinite-order coefficient(s) checked against "
            f"cyclic-power substitutions (|n| <= {args.power_bound}): "
            f"{'ok' if report['verdict'] == 'verified' else 'FAILED'}"]


def _cmd_verify_lemma5(args, ambient):
    cons = words.build_lemma5(ambient, args.f, args.g, args.k1, args.k2)
    factor, fe = cons.f.syllables[0]
    power = ambient.factors[factor].power
    parts = []
    for flag, k, conj in (("--k1", args.k1, None), ("--k2", args.k2, cons.g)):
        if power(fe, k) == 0:
            raise TrivialSubgroupError(f"{flag} {k}: f^{k} = 1 for f = {args.f}, so its ball "
                                       "part is trivial")
        parts.append(Part.of(ambient, factor, [power(fe, k)], conj))
    ball = Ball(ambient, parts, args.depth)
    candidates = {v: ball for v in cons.equation.lhs.free_variables()}
    work: dict = {}
    found = words.solve_bounded(cons.equation, candidates, mode="first", counters=work)

    # build_lemma5 has re-checked the generator substitution
    witness = {
        "N": cons.N,
        "rhs": cons.equation.rhs.as_word(),
        "F": str(cons.f_word),
        "generator_solution_ok": True,
        "ball_size": len(ball),
        "ball_search": "no-solution-in-set" if found is None else "solved",
        **work,
    }
    if found is None:
        return 0, _report("verified", witnesses=[witness])
    violation = {"kind": "unexpected-solution",
                 "solution": {f"x{i}": v.as_word() for i, v in found.assignment}}
    return 1, _report("failed", [violation], [witness])


def _text_verify_lemma5(args, report):
    w = report["witnesses"][0]
    image, d = w["image"], args.depth
    if w["ball_search"] == "solved":
        outcome = "SOLUTION FOUND"
    elif image is None or image["run"] != w["F"]:
        outcome = "no solution"
    else:
        # The image walk ran over F itself: it decided every value F takes
        # over the ball, one per element of B_md, as B_d^m = B_md.
        m, md = len(w["F"].split()), image["depth"]
        outcome = (f"no F = {w['F']} in B_{md} ({w['outer_values']:,} values) has a solution; "
                   f"by {'*'.join([f'B_{d}'] * m)} = B_{md} this covers all "
                   f"{w['outer_tuples']:,} {'pairs' if m == 2 else 'tuples'}")
    return [f"N = {w['N']}; generator substitution satisfies the equation; "
            f"search over the depth-{d} ball ({w['ball_size']} elements): {outcome}"]


def _cmd_verify_lemma7(args, ambient):
    # Each trial runs on id strings: A, g and c = g A g^-1 as drawn, then
    # A^N1 c^N2 and its cyclic core; words are rendered for a failure only.
    rng = random.Random(args.seed)
    codec = ambient.codec
    failures = []
    worst = None
    for _ in range(args.trials):
        a = _cyclically_reduced(rng, ambient, 2, args.max_norm)
        g, c = _conjugate(rng, ambient, a)
        n1, n2 = rng.randint(2, args.max_power), rng.randint(2, args.max_power)
        x = _product(codec, power_syllables(codec, a, n1), power_syllables(codec, c, n2))
        core_norm = len(_cyclic_split(codec, x)[1])
        bound = (n1 + n2 - 4) * len(a)
        margin = core_norm - bound
        if worst is None or margin < worst:
            worst = margin
        if core_norm <= bound:
            failures.append({"A": FPElement(ambient, a).as_word(),
                             "g": FPElement(ambient, g).as_word(), "N1": n1, "N2": n2,
                             "core_norm": core_norm, "bound": bound})
    ok = not failures
    witnesses = [{"trials": args.trials, "min_margin": worst}]
    return (0 if ok else 1), _report("verified" if ok else "failed", failures, witnesses)


def _text_verify_lemma7(args, report):
    return [f"{args.trials} trials: core norm exceeded (N1+N2-4)*|A| in "
            f"{'all' if report['verdict'] == 'verified' else 'NOT all'} cases "
            f"(min margin {report['witnesses'][0]['min_margin']})"]


def _cmd_axis(args, ambient):
    value = words.parse_constant(args.word, ambient)
    cls = tree.classify(value)
    if isinstance(cls, tree.Elliptic):
        witness = {"type": "elliptic", "fixed_vertex": cls.fixed_vertex.render()}
        report = _report("elliptic", witnesses=[witness])
        report["counters"] = {"syllables_rendered": tree._vertex_rep(cls.fixed_vertex).norm}
        return 0, report
    axis = cls.axis
    conjugator, vertices, rendered = tree._render_window(
        axis.conjugator, tree._axis_window(axis, args.window))
    witness = {
        "type": "hyperbolic",
        "translation_edges": axis.translation_length_edges,
        "conjugator": conjugator,
        "core": axis.core.as_word(),
        "vertices": vertices,
    }
    report = _report("hyperbolic", witnesses=[witness])
    report["counters"] = {"syllables_rendered": rendered + axis.core.norm}
    return 0, report


def _text_axis(args, report):
    w = report["witnesses"][0]
    if w["type"] == "elliptic":
        return [f"{args.word} is elliptic; fixes {w['fixed_vertex']}"]
    return [
        f"{args.word} is hyperbolic; translation length {w['translation_edges']} edges",
        "axis window: " + "  ".join(w["vertices"]),
    ]


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
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subparsers by command name, built once
    per process: parsing leaves them unchanged, so every main() call can
    share them."""
    parser = _Parser(
        prog="freeprod",
        description="exact computation in free products of finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, text, group=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler, text=text)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if group:
            p.add_argument("--group", required=True)
        return p

    p = add("eval", _cmd_eval, _text_eval, help="normal form of a word")
    p.add_argument("--word", required=True)

    p = add("order", _cmd_order, _text_order, help="order of an element")
    p.add_argument("--word", required=True)

    p = add("reduce", _cmd_reduce, _text_reduce, help="cyclic reduction of a word")
    p.add_argument("--word", required=True)

    p = add("check", _cmd_check, _text_check, help="necessary-condition check on a decomposition")
    p.add_argument("--subgroup", required=True)

    p = add("solve", _cmd_solve, _text_solve, help="bounded equation search over a subgroup ball")
    p.add_argument("--eq", required=True, help="e.g. '[x1,x2] = 1'")
    p.add_argument("--ball", required=True, help="';'-separated parts, e.g. 'a;b@c'")
    p.add_argument("--depth", type=_int_at_least(0), default=2)
    p.add_argument("--all", action="store_true", help="find all solutions")

    p = add("verify-theorem2", _cmd_verify_theorem2, _text_verify_theorem2, group=False,
            help="exhaustive case check of the two-involution equation")
    p.add_argument("--range", type=_int_at_least(1), default=6)

    p = add("verify-lemma4", _cmd_verify_lemma4, _text_verify_lemma4,
            help="power-equation construction on random coefficient words")
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=_int_at_least(1), default=5)
    p.add_argument("--power-bound", type=_int_at_least(0), default=20)
    p.add_argument("--f", help="check one fixed coefficient word instead")

    p = add("verify-lemma5", _cmd_verify_lemma5, _text_verify_lemma5,
            help="twisted power equation: generator solution + ball search")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--k1", type=_int_at_least(1), required=True)
    p.add_argument("--k2", type=_int_at_least(1), required=True)
    p.add_argument("--depth", type=_int_at_least(0), default=6)

    p = add("verify-lemma7", _cmd_verify_lemma7, _text_verify_lemma7,
            help="norm bound for the cyclic core of A^N1 (A^g)^N2")
    p.add_argument("--trials", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-norm", type=_int_at_least(2), default=6)
    p.add_argument("--max-power", type=_int_at_least(2), default=5)

    p = add("axis", _cmd_axis, _text_axis, help="classify an element and print its axis window")
    p.add_argument("--word", required=True)
    p.add_argument("--window", type=_int_at_least(0), default=1)

    return parser, sub.choices


_SCALARS = (str, int, float, type(None))  # bool is an int


def _flat_dicts(obj) -> bool:
    """Whether ``obj`` is a list of two or more non-empty dicts whose
    values are all scalars, such as the witnesses of ``solve --all``: the
    dicts are checked first, then all their values in one pass."""
    return (isinstance(obj, list) and len(obj) > 1 and all(map(isinstance, obj, repeat(dict)))
            and all(obj) and all(map(isinstance, chain.from_iterable(d.values() for d in obj),
                                     repeat(_SCALARS))))


# A string longer than this is quoted as it is when it is ASCII and holds
# none of the characters ensure_ascii escapes (_ESCAPED, one memchr-speed
# ``in`` each).  The 35 tests cost about 0.9 us, what encode_basestring_ascii
# spends on about 400 characters of a rendered word; at 4,096 characters
# they take 2.0 us against its 9.1 us (2-core x86-64 host, Python 3.11.7).
_LONG_STRING = 400
_ESCAPED = (*map(chr, range(0x20)), '"', "\\", "\x7f")
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _quote(s: str) -> str:
    """``encode_basestring_ascii(s)``: the JSON text of a string."""
    if len(s) > _LONG_STRING and s.isascii():
        for c in _ESCAPED:
            if c in s:
                break
        else:
            return f'"{s}"'
    return encode_basestring_ascii(s)


class _NotLaidOut(Exception):
    """A value _lay_out leaves to json.dumps: a non-str key, a tuple, a
    subclass of a JSON type."""


def _lay_out(out: list, value, nl: str) -> None:
    """Append the text of ``json.dumps(value, indent=2)`` to ``out``, for a
    value whose first line starts at the indent of ``nl`` ("\\n" and its
    spaces).  A list of flat dicts (see _flat_dicts) is encoded by the C
    encoder, which ``indent`` turns off, in one call with the item
    separator "\\x1f", which ensure_ascii escapes inside strings; each
    separator is then replaced: one preceded by "}" and followed by "{"
    ends a dict (a value inside a dict is a scalar and never ends with
    "}"), any other is inside one."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is dict:
        inner = nl + "  "
        if not value:
            out.append("{}")
        else:
            sep = "{" + inner
            for key, item in value.items():
                if type(key) is not str:
                    raise _NotLaidOut
                out.append(f"{sep}{_quote(key)}: ")
                _lay_out(out, item, inner)
                sep = "," + inner
            out.append(nl + "}")
    elif kind is list:
        inner = nl + "  "
        if not value:
            out.append("[]")
        elif _flat_dicts(value):
            row = inner + "  "
            text = json.dumps(value, separators=("\x1f", ": "))[2:-2]
            text = text.replace("}\x1f{", f"{inner}}},{inner}{{{row}").replace("\x1f", "," + row)
            out += (f"[{inner}{{{row}", text, f"{inner}}}{nl}]")
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _lay_out(out, item, inner)
                sep = "," + inner
            out.append(nl + "]")
    elif kind is int:
        out.append(repr(value))
    elif kind is float:
        text = repr(value)
        out.append(_NONFINITE.get(text, text))
    elif kind is bool:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    else:
        raise _NotLaidOut


def _json_text(report) -> str:
    """``json.dumps(report, indent=2)``, byte for byte, laid out by
    _lay_out; a report it leaves (or one nested too deeply for it) goes to
    ``json.dumps`` itself."""
    out: list = []
    try:
        _lay_out(out, report, "\n")
    except (_NotLaidOut, RecursionError):
        return json.dumps(report, indent=2)
    return "".join(out)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``: a known command is parsed by its own
    subparser, as the top-level parser would hand it on, and anything left
    over is reported by the top-level parser."""
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # A usage error (2) or --help (0); the parser has printed it.
        return exc.code or 0
    try:
        t0 = time.perf_counter()
        ambient = _load_group(args.group) if "group" in args else None
        code, report = args.handler(args, ambient)
        report["timings"] = {"total_s": time.perf_counter() - t0}
        print(_json_text(report) if args.json else "\n".join(args.text(args, report)))
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
