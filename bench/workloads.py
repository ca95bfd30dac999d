"""The benchmark's workloads: seeded job lists, expected answers, checks.

A job is one call a user makes: a ``freeprod`` command line run through
``freeprod.cli.main(argv)``, or one call of the public Python API.  Every
job carries an oracle that computes its expected answer with the
independent arithmetic in ``oracle.py`` (or states it from how the job
was built); the oracle runs once per job before timing starts.

Each seed permutes the jobs and picks their words, conjugators, targets and
verifier seeds, but sizes come from fixed log-spaced grids, so every seed
asks for about the same amount of work.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle as orc

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "cases"

WORKLOADS = ("lemma5_certificate", "commuting_pairs", "theorem2_sweep", "query_mix")


@dataclass
class Expectation:
    code: int | None  # expected exit code; None for API jobs
    check: Callable[[object], str | None]  # report or return value -> problem


@dataclass
class Job:
    kind: str  # CLI subcommand, or the API function's name
    argv: list[str] | None = None  # CLI arguments without --json
    api_arg: int | None = None
    oracle: Callable[[], Expectation] | None = None
    expect: Expectation | None = None


@dataclass
class Outcome:
    seconds: float
    start: float  # perf_counter() at the call and after it
    end: float
    code: int | None
    raised: str | None  # exception type that escaped the call
    output: object  # captured stdout text, or the API return value


@dataclass
class Verdict:
    failure: str | None  # None, "raised", "exit_code" or "answer"
    wrong: bool  # an answer was given and it is not the expected one
    digest: str
    detail: str = ""


# -- running and judging --------------------------------------------------------


def execute(job: Job, fp) -> Outcome:
    """Run one job against the freeprod package ``fp`` and time only the
    program call.  Exceptions are caught and reported, never re-raised."""
    if job.argv is None:
        fn = getattr(fp, job.kind)
        t0 = time.perf_counter()
        try:
            result, raised = fn(job.api_arg), None
        except Exception as exc:
            result, raised = None, type(exc).__name__
        t1 = time.perf_counter()
        return Outcome(t1 - t0, t0, t1, None, raised, result)
    out, err = io.StringIO(), io.StringIO()
    argv = job.argv + ["--json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = fp.cli.main(argv)
            raised = None
        except SystemExit as exc:  # argparse rejects the command line
            code, raised = exc.code, None
        except Exception as exc:
            code, raised = None, type(exc).__name__
        t1 = time.perf_counter()
    return Outcome(t1 - t0, t0, t1, code, raised, out.getvalue())


def _digest(obj) -> str:
    return hashlib.sha1(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def judge(job: Job, outcome: Outcome) -> Verdict:
    expect = job.expect
    if outcome.raised is not None:
        return Verdict("raised", False, _digest(["raised", outcome.raised]), outcome.raised)
    if job.argv is None:
        problem = expect.check(outcome.output)
        digest = _digest(outcome.output.to_dict())
        return Verdict("answer" if problem else None, bool(problem), digest, problem or "")
    if outcome.code != expect.code:
        # Exit 0/1 claims an answer; any other code is a refusal.
        wrong = outcome.code in (0, 1)
        kind = "answer" if wrong else "exit_code"
        return Verdict(kind, wrong, _digest(["exit", outcome.code]), f"exit {outcome.code}")
    try:
        report = json.loads(outcome.output)
    except ValueError:
        return Verdict("answer", True, _digest(["text", outcome.output]), "report is not JSON")
    report.pop("timings", None)
    try:
        problem = expect.check(report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problem = f"malformed report: {exc!r}"
    return Verdict("answer" if problem else None, bool(problem), _digest([outcome.code, report]), problem or "")


def _first_problem(*pairs) -> str | None:
    for ok, message in pairs:
        if not ok:
            return message
    return None


# -- helpers --------------------------------------------------------------------


def _grid(lo: float, hi: float, count: int) -> list[float]:
    """``count`` sizes spread log-uniformly over [lo, hi], one at the middle
    of each of ``count`` equal slices.  Sizes are fixed rather than drawn:
    costs grow up to cubically with size, so drawn sizes would let the seed,
    not the program, set the wall time and the p90."""
    ratio = math.log(hi / lo)
    return [lo * math.exp(ratio * (i + 0.5) / count) for i in range(count)]


def _verified() -> Expectation:
    def check(report):
        return _first_problem(
            (report["verdict"] == "verified", f"verdict {report['verdict']!r}"),
            (report["violations"] == [], "violations reported"),
        )

    return Expectation(0, check)


# -- lemma5_certificate -----------------------------------------------------------


def _lemma5_job(k1: int, k2: int, depth: int) -> Job:
    def expected() -> Expectation:
        m = orc.example2()
        f, g = m.word("a b"), m.word("c")
        rhs = m.mul(m.power(f, k1), g, m.power(f, k2), m.inv(g))
        (fi, fx), = f
        factor = m.factors[fi]
        h1 = orc.generated_subgroup(factor, [factor.power(fx, k1)])
        h2 = orc.generated_subgroup(factor, [factor.power(fx, k2)])
        ball = m.ball([(fi, h1, ()), (fi, h2, g)], depth)
        n_const = 6 * 2 + 1  # 1 + product of the factor orders

        def check(report):
            w = report["witnesses"][0]
            return _first_problem(
                (report["verdict"] == "verified", f"verdict {report['verdict']!r}"),
                (w["N"] == n_const, f"N = {w['N']}"),
                (m.word(w["rhs"]) == rhs, f"rhs {w['rhs']!r}"),
                (w["generator_solution_ok"] is True, "generator solution rejected"),
                (w["ball_size"] == len(ball), f"ball size {w['ball_size']} != {len(ball)}"),
                (w["ball_search"] == "no-solution-in-set", w["ball_search"]),
            )

        return Expectation(0, check)

    argv = ["verify-lemma5", "--group", str(CASES / "example2.grp"), "--f", "a b",
            "--g", "c", "--k1", str(k1), "--k2", str(k2), "--depth", str(depth)]
    return Job("verify-lemma5", argv, oracle=expected)


def lemma5_certificate(rng: random.Random, workdir: Path) -> list[Job]:
    pairs = [(3, 2), (2, 3), (3, 4)]
    rng.shuffle(pairs)
    return [_lemma5_job(k1, k2, 6) for k1, k2 in pairs]


# -- commuting_pairs --------------------------------------------------------------


def _commuting_job(depth: int, ball_text: str) -> Job:
    def expected() -> Expectation:
        m = orc.p23()
        parts = [(0, {0, 1}, ()), (1, {0, 1, 2}, ())]
        ball = m.ball(parts, depth)
        count = m.commuting_pairs(sorted(ball))

        def check(report):
            pairs = [(m.word(w["x1"]), m.word(w["x2"])) for w in report["witnesses"]]
            return _first_problem(
                (report["verdict"] == "solved", f"verdict {report['verdict']!r}"),
                (len(pairs) == count, f"{len(pairs)} solutions, expected {count}"),
                (len(set(pairs)) == len(pairs), "repeated solution"),
                (all(x in ball and y in ball for x, y in pairs), "solution outside the ball"),
                (all(m.mul(x, y) == m.mul(y, x) for x, y in pairs), "non-commuting pair"),
            )

        return Expectation(0, check)

    argv = ["solve", "--group", str(CASES / "p23.grp"), "--eq", "[x1,x2] = 1",
            "--ball", ball_text, "--depth", str(depth), "--all"]
    return Job("solve", argv, oracle=expected)


def commuting_pairs(rng: random.Random, workdir: Path) -> list[Job]:
    depths = [12, 13, 14]
    rng.shuffle(depths)
    return [_commuting_job(d, rng.choice(["a;b", "b;a"])) for d in depths]


# -- theorem2_sweep ---------------------------------------------------------------


def _theorem2_job(k_range: int) -> Job:
    def expected() -> Expectation:
        per_case = (2 * k_range + 1) ** 3

        def check(rep):
            return _first_problem(
                (rep.ok, "report not ok"),
                (rep.total_evaluations == 8 * per_case,
                 f"{rep.total_evaluations} evaluations, expected {8 * per_case}"),
                (len(rep.case_results) == 8, "not 8 epsilon cases"),
                (all(c.evaluations == per_case and not c.mismatches for c in rep.case_results),
                 "case mismatch"),
                (not rep.target_hits, "target hit"),
                (rep.embedding_image_matches, "companion identity fails"),
            )

        return Expectation(None, check)

    return Job("theorem2_report", api_arg=k_range, oracle=expected)


def theorem2_sweep(rng: random.Random, workdir: Path) -> list[Job]:
    ranges = [6, 7, 8]
    rng.shuffle(ranges)
    return [_theorem2_job(r) for r in ranges]


# -- query_mix --------------------------------------------------------------------

P23 = str(CASES / "p23.grp")
# Conjugators and middles for v^k x v^-k in C2 * C3.  Strata alternate
# between elliptic and hyperbolic middles, so every seed has the same mix;
# some middles partly cancel against v.
_CONJ_BASES = ["a b", "b a", "a b^2", "b^2 a"]
_ELLIPTIC = ["a", "b^2", "b a b^2"]
_HYPERBOLIC = ["a b a b^2", "a b^2 a b", "b a b^2 a"]
# Bases of infinite order (long normal forms) and of finite order (short).
_POWER_BASES = (["a b", "a b^2"], ["a b a", "b^2 a b"])
_Z6_WORDS = ["a", "b", "b^2", "a b", "a b^2"]  # the nonidentity elements of C2 x C3


def _conjugate_job(cmd: str, v: str, k: int, x: str) -> Job:
    text = f"({v})^{k} {x} ({v})^-{k}"

    def expected() -> Expectation:
        m = orc.p23()
        vk = m.power(m.word(v), k)
        value = m.mul(vk, m.word(x), m.inv(vk))
        return _element_expectation(m, cmd, value)

    argv = [cmd, "--group", P23, "--word", text]
    if cmd == "axis":
        argv += ["--window", "1"]
    return Job(cmd, argv, oracle=expected)


def _element_expectation(m: orc.Model, cmd: str, value) -> Expectation:
    """Expected answer of eval/reduce/order/axis on a known element."""
    conj, core = m.cyclic_reduce(value)
    order = m.order(value)

    def check(report):
        w = report["witnesses"][0]
        if cmd == "eval":
            return _first_problem(
                (m.word(w["normal_form"]) == value, "normal form"),
                (w["norm"] == len(value), f"norm {w['norm']} != {len(value)}"),
            )
        if cmd == "order":
            return _first_problem((w["order"] == str(order), f"order {w['order']}"))
        if cmd == "reduce":
            return _first_problem(
                (m.word(w["conjugator"]) == conj, "conjugator"),
                (m.word(w["core"]) == core, "core"),
                (w["core_norm"] == len(core), f"core norm {w['core_norm']}"),
            )
        if len(core) <= 1:
            fixed = ("E", ()) if not core else (core[0][0], m.coset_rep(conj, core[0][0]))
            return _first_problem(
                (w["type"] == "elliptic", f"type {w['type']}"),
                (m.vertex(w["fixed_vertex"]) == fixed, "fixed vertex"),
            )
        return _first_problem(
            (w["type"] == "hyperbolic", f"type {w['type']}"),
            (w["translation_edges"] == 2 * len(core), "translation length"),
            (m.word(w["conjugator"]) == conj, "axis conjugator"),
            (m.word(w["core"]) == core, "axis core"),
            ([m.vertex(t) for t in w["vertices"]] == m.axis_window(conj, core, 1),
             "axis vertices"),
        )

    return Expectation(0, check)


def _power_job(cmd: str, base: str, n: int) -> Job:
    def expected() -> Expectation:
        m = orc.p23()
        b = m.word(base)
        if m.order(b) == orc.INFINITE:
            value = m.power(b, n) if cmd == "eval" else b  # order(b^n) = order(b)
        else:
            value = m.power_of_any_size(b, n)
        return _element_expectation(m, cmd, value)

    return Job(cmd, [cmd, "--group", P23, "--word", f"({base})^{n}"], oracle=expected)


def _check_job(workdir: Path, n: int, shape: str, d: int, idx: int) -> Job:
    """Condition-2 check of a two-part decomposition in D_n * C2.

    shape "reflections": <a> and <b>^c (violated exactly when n is odd);
    "rotations": <ab> and <(ab)^d>^c (always violated);
    "mixed": <a> and <ab>^c (never violated)."""
    group = workdir / f"dihedral{n}.grp"
    if not group.exists():
        group.write_text(f"factors: dihedral {n}; cyclic 2\nlabels: a,b; c\n")
    gens = {
        "reflections": ("a", "b"),
        "rotations": ("(a)(b)", f"((a)(b))^{d}"),
        "mixed": ("a", "(a)(b)"),
    }[shape]
    sub = workdir / f"check{idx}.sub"
    sub.write_text(
        "free_rank: 0\n"
        f"part: factor=0 gens={gens[0]} conj=1\n"
        f"part: factor=0 gens={gens[1]} conj=c\n"
    )

    def expected() -> Expectation:
        m = orc.dihedral_c2(n)
        dn = m.factors[0]
        refl_a, refl_b, rho = (0, 1), (n - 1, 1), (1, 0)
        gen_values = {
            "reflections": ([refl_a], [refl_b]),
            "rotations": ([rho], [dn.power(rho, d)]),
            "mixed": ([refl_a], [rho]),
        }[shape]
        subs = [orc.generated_subgroup(dn, g) for g in gen_values]
        elements = [(r, s) for r in range(n) for s in (0, 1)]

        def conjugates(h):
            return {dn.mul(dn.mul(g, x), dn.inv(g)) for g in elements for x in h}

        def powers(f):
            return {dn.power(f, k) for k in range(1, dn.element_order(f))}

        def violated(h1, h2):
            into_h2 = conjugates(h2) - {dn.identity}
            return any(powers(f) & h1 and powers(f) & into_h2 for f in elements)

        pairs = [(j1, j2) for j1 in (0, 1) for j2 in (0, 1) if j1 != j2]
        expected_pairs = [p for p in pairs if violated(subs[p[0]], subs[p[1]])]

        def witness_ok(v):
            j1, j2 = v["parts"]
            f = _factor_value(m, v["f"])
            g = _factor_value(m, v["g"])
            fk1, fk2 = dn.power(f, v["k1"]), dn.power(f, v["k2"])
            conj_h2 = {dn.mul(dn.mul(g, x), dn.inv(g)) for x in subs[j2]}
            return (fk1 != dn.identity and fk1 in subs[j1]
                    and fk2 != dn.identity and fk2 in conj_h2)

        def check(report):
            vios = report["violations"]
            want = "fails-necessary" if expected_pairs else "passes-necessary-inconclusive"
            return _first_problem(
                (report["verdict"] == want, f"verdict {report['verdict']!r}"),
                (sorted(tuple(v["parts"]) for v in vios) == expected_pairs, "violated pairs"),
                (all(v["kind"] == "condition2" and witness_ok(v) for v in vios),
                 "witness does not verify"),
            )

        return Expectation(1 if expected_pairs else 0, check)

    return Job("check", ["check", "--group", str(group), "--subgroup", str(sub)], oracle=expected)


def _factor_value(m: orc.Model, text: str):
    value = m.word(text)
    return value[0][1] if value else m.factors[0].identity


@functools.lru_cache(maxsize=None)
def _example2_ball() -> frozenset:
    m = orc.example2()
    full = orc.generated_subgroup(m.factors[0], [(1, 0), (0, 1)])
    return frozenset(m.ball([(0, full, ()), (0, full, m.word("c"))], 6))


def _solve_job(word: str) -> Job:
    """x1 = word over the depth-6 ball of <a,b> * c<a,b>c in (C2 x C3) * C2."""

    def expected() -> Expectation:
        m = orc.example2()
        ball = _example2_ball()
        value = m.word(word)
        solvable = value in ball

        def check(report):
            if not solvable:
                return _first_problem(
                    (report["verdict"] == "no-solution-in-set", f"verdict {report['verdict']!r}"),
                    (report["witnesses"] == [], "witnesses for an unsolvable equation"),
                )
            ws = report["witnesses"]
            return _first_problem(
                (report["verdict"] == "solved", f"verdict {report['verdict']!r}"),
                (len(ws) == 1 and m.word(ws[0]["x1"]) == value, "solution"),
            )

        return Expectation(0 if solvable else 1, check)

    argv = ["solve", "--group", str(CASES / "example2.grp"), "--eq", f"x1 = {word}",
            "--ball", "a,b;a,b@c", "--depth", "6"]
    return Job("solve", argv, oracle=expected)


def query_mix(rng: random.Random, workdir: Path) -> list[Job]:
    jobs: list[Job] = []
    # 64 conjugates v^k x v^-k, norms log-uniform over 1e2 .. 4e4.
    for cmd in ("eval", "reduce", "order", "axis"):
        for i, norm in enumerate(_grid(1e2, 4e4, 16)):
            v, x = rng.choice(_CONJ_BASES), rng.choice((_ELLIPTIC, _HYPERBOLIC)[i % 2])
            jobs.append(_conjugate_job(cmd, v, max(1, round(norm / 4)), x))
    # 10 powers that expand to 1e3 .. 1e5 copies of their base; the largest
    # is fixed, as it sets the peak memory.
    for i, n in enumerate(_grid(1e3, 1e5, 9)):
        base = rng.choice(_POWER_BASES[i // 2 % 2])
        jobs.append(_power_job(("eval", "order")[i % 2], base, round(n)))
    jobs.append(_power_job("eval", "a b", 10**5))
    # 6 astronomically large exponents.  Each lies beyond what a tuple of
    # base copies can index, so expanding it fails before allocating.
    huge = [
        ("order", "a", 2e18, 9e18), ("eval", "b", 2e18, 9e18),
        ("order", "a b", 5e18, 9e18), ("eval", "a b a", 4e18, 9e18),
        ("order", "b", 1e20, 1e21), ("eval", "a", 1e20, 1e21),
    ]
    for cmd, base, lo, hi in huge:
        jobs.append(_power_job(cmd, base, rng.randrange(int(lo), int(hi))))
    # 16 condition checks in D_n * C2, group order 2n log-uniform over 4 .. 200.
    shapes = ["reflections", "rotations", "mixed"]
    for i, order in enumerate(_grid(4, 200, 16)):
        n = max(2, round(order / 2))
        d = rng.randint(1, min(n - 1, 4))
        jobs.append(_check_job(workdir, n, shapes[i % 3], d, i))
    # 8 one-variable searches: targets of 1..5 part elements lie early in the
    # ball's search order; three targets outside the ball make the search
    # exhaustive.
    part = _Z6_WORDS
    for length in range(1, 6):
        first = rng.randrange(2)
        pieces = [rng.choice(part) if (first + j) % 2 == 0 else f"c {rng.choice(part)} c"
                  for j in range(length)]
        jobs.append(_solve_job(" ".join(pieces)))
    for pieces in ([rng.choice(part), "c"], ["c", rng.choice(part)], ["c"]):
        jobs.append(_solve_job(" ".join(pieces)))
    # 16 small verifier runs.
    for _ in range(8):
        group = rng.choice(["p23", "example1"])
        jobs.append(Job("verify-lemma4", ["verify-lemma4", "--group", str(CASES / f"{group}.grp"),
                                          "--trials", str(rng.randint(15, 20)),
                                          "--seed", str(rng.randrange(10**6))],
                        oracle=_verified))
    for _ in range(8):
        trials = rng.randint(40, 60)

        def lemma7(trials=trials) -> Expectation:
            def check(report):
                w = report["witnesses"][0]
                return _first_problem(
                    (report["verdict"] == "verified", f"verdict {report['verdict']!r}"),
                    (w["trials"] == trials, "trial count"),
                    (w["min_margin"] > 0, "norm bound not exceeded"),
                )

            return Expectation(0, check)

        jobs.append(Job("verify-lemma7", ["verify-lemma7", "--group", P23, "--trials",
                                          str(trials), "--seed", str(rng.randrange(10**6))],
                        oracle=lemma7))
    rng.shuffle(jobs)
    return jobs


GENERATORS = {
    "lemma5_certificate": lemma5_certificate,
    "commuting_pairs": commuting_pairs,
    "theorem2_sweep": theorem2_sweep,
    "query_mix": query_mix,
}


def generate(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's job list for ``seed``; writes any spec files it needs
    into ``workdir``."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)
