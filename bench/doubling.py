#!/usr/bin/env python3
"""Doubling series for freeprod's kernels (informational, not gated).

    python3 bench/doubling.py

Times each kernel at sizes n, 2n, 4n and 8n and prints t(2n)/t(n): about 2
for linear time, 4 for quadratic, 8 for cubic.  The sizes are measured in
rounds, each round visiting every size once, and each time is taken at
reference speed (see run.py), so drift in the host's speed falls on all
sizes alike.  Writes bench/out/doubling.json.
"""

from __future__ import annotations

import json
import statistics
import time

import run  # sets up the import path to src/

import freeprod  # noqa: E402
from freeprod import specfiles  # noqa: E402

P23 = (run.ROOT / "cases" / "p23.grp").read_text()


def _p23():
    return specfiles.parse_group_spec(P23)


def cyclic_reduce_series():
    g = _p23()
    elems = {n: freeprod.parse_constant(f"(a b)^{n // 4} a b a b^2 (a b)^-{n // 4}", g)
             for n in (5000, 10000, 20000, 40000)}
    return "cyclic_reduce", "syllables", {n: (lambda e=e: e.cyclic_reduce()) for n, e in elems.items()}


def mul_series():
    g = _p23()
    half = {n: freeprod.parse_constant(f"(a b)^{n // 4}", g) for n in (10000, 20000, 40000, 80000)}
    return "mul", "syllables in", {n: (lambda x=x: x * x) for n, x in half.items()}


def evaluate_series():
    g = _p23()
    b = g.generator("b")
    words = {n: freeprod.parse_word(f"(x1 a)^{n // 2}", g) for n in (10000, 20000, 40000, 80000)}
    return "evaluate", "letters", {n: (lambda w=w: freeprod.evaluate(w, {1: b})) for n, w in words.items()}


def enumerate_ball_series():
    g = _p23()
    parts = specfiles.parse_ball_spec("a;b", g)
    sizes = {d: len(freeprod.enumerate_ball(g, parts, d)) for d in (10, 12, 14, 16)}
    return "enumerate_ball", "elements", {
        sizes[d]: (lambda d=d: freeprod.enumerate_ball(g, parts, d)) for d in sizes}


def from_cayley_table_series():
    tables = {n: [[(i + j) % n for j in range(n)] for i in range(n)] for n in (25, 50, 100, 200)}
    return "from_cayley_table", "group order", {
        n: (lambda rows=rows: freeprod.from_cayley_table(rows, [("a", 1)])) for n, rows in tables.items()}


def solve_bounded_series():
    g = _p23()
    ball = freeprod.enumerate_ball(g, specfiles.parse_ball_spec("a;b", g), 16)
    # a b is not a commutator (its image in C2 x C3 is nontrivial), so every
    # tuple is tried.
    eq = freeprod.parse_equation("[x1,x2] = a b", g)
    runs = {}
    for n in (4096, 8192, 16384, 32768):
        cands = {1: ball[:32], 2: ball[: n // 32]}
        runs[n] = lambda c=cands: freeprod.solve_bounded(eq, c, mode="all")
    return "solve_bounded", "tuples", runs


ROUNDS = 5

SERIES = [cyclic_reduce_series, mul_series, evaluate_series, enumerate_ball_series,
          from_cayley_table_series, solve_bounded_series]


def _timed(fn) -> float:
    """Seconds at reference speed for one call, repeated until at least
    0.05 s of work has been timed."""
    before = run.reference_chunk()
    reps, t0 = 0, time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= 0.05:
            break
    after = run.reference_chunk()
    return elapsed / reps * run.REFERENCE_S / ((before + after) / 2)


def main() -> int:
    report = {"provenance": run.provenance(), "reference_s": run.REFERENCE_S, "series": {}}
    for make in SERIES:
        name, unit, fns = make()
        samples = {n: [] for n in fns}
        for _ in range(ROUNDS):
            for n, fn in fns.items():
                samples[n].append(_timed(fn))
        sizes = sorted(fns)
        times = [statistics.median(samples[n]) for n in sizes]
        ratios = [t2 / t1 for t1, t2 in zip(times, times[1:])]
        report["series"][name] = {
            "unit": unit,
            "sizes": sizes,
            "seconds": times,
            "seconds_per_unit": [t / n for t, n in zip(times, sizes)],
            "doubling_ratios": ratios,
        }
        print(f"{name:18s} {unit:12s} " + "  ".join(
            f"{n}:{t * 1e3:.3f}ms" for n, t in zip(sizes, times))
            + "   t(2n)/t(n): " + " ".join(f"{r:.2f}" for r in ratios))
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "doubling.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
