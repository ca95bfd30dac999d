"""Tests of the benchmark itself (not of freeprod).

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import freeprod  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _traced(fn, *args):
    tracer = spans.Tracer()
    tracer.install(freeprod)
    try:
        result = fn(*args)
    finally:
        tracer.uninstall()
    return tracer, result


def test_evaluate_span_count_is_exact():
    # 8 epsilon cases x 3^3 sweep points, plus the companion evaluation.
    tracer, rep = _traced(lambda r: freeprod.theorem2_report(r), 1)
    assert rep.total_evaluations == 8 * 27
    assert tracer.totals()["words.evaluate"]["calls"] == 217


def test_wrappers_reach_every_namespace_and_are_restored():
    originals = (freeprod.cli.enumerate_ball, freeprod.evaluate, freeprod.words.evaluate,
                 freeprod.specfiles.parse_constant, freeprod.FPElement.__mul__)
    tracer = spans.Tracer()
    tracer.install(freeprod)
    try:
        assert freeprod.cli.enumerate_ball is not originals[0]
        assert freeprod.evaluate is freeprod.words.evaluate
        assert freeprod.specfiles.parse_constant.__wrapped__ is originals[3]
        assert freeprod.FPElement.__mul__.__wrapped__ is originals[4]
    finally:
        tracer.uninstall()
    assert (freeprod.cli.enumerate_ball, freeprod.evaluate, freeprod.words.evaluate,
            freeprod.specfiles.parse_constant, freeprod.FPElement.__mul__) == originals


def test_self_times_partition_the_root_spans():
    tracer, _ = _traced(lambda: freeprod.cli.main(
        ["solve", "--group", str(workloads.CASES / "p23.grp"), "--eq", "[x1,x2] = 1",
         "--ball", "a;b", "--depth", "4", "--all", "--json"]))
    totals = tracer.totals()
    roots = sum(tracer.end[i] - tracer.start[i]
                for i in range(len(tracer.start)) if tracer.parent[i] < 0)
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(roots)
    assert totals["cli.main"]["calls"] == 1
    assert totals["free_product.enumerate_ball"]["elements_out"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_answers_agree(tmp_path, workload):
    jobs = workloads.generate(workload, 3, tmp_path)
    if workload == "query_mix":
        jobs = jobs[:40]
    else:  # the smallest instance only, to keep the test short
        jobs = jobs[:1]
        if workload == "theorem2_sweep":
            jobs = [workloads._theorem2_job(2)]
    for job in jobs:
        job.expect = job.oracle()
    plain = [workloads.judge(j, workloads.execute(j, freeprod)) for j in jobs]
    tracer = spans.Tracer()
    tracer.install(freeprod)
    try:
        traced = [workloads.judge(j, workloads.execute(j, freeprod)) for j in jobs]
    finally:
        tracer.uninstall()
    assert [v.digest for v in plain] == [v.digest for v in traced]
    assert not any(v.wrong for v in plain)
    assert all(v.failure in (None, "raised") for v in plain)


def test_query_mix_is_deterministic_per_seed(tmp_path):
    def inputs(seed, sub):
        path = tmp_path / sub
        path.mkdir()
        jobs = workloads.generate("query_mix", seed, path)
        argvs = [[a.replace(str(path), "") for a in j.argv] for j in jobs]
        return argvs, sorted((p.name, p.read_text()) for p in path.iterdir())

    first = inputs(5, "a")
    assert first == inputs(5, "b")
    assert first != inputs(6, "c")
    assert len(first[0]) >= 100


def test_wrong_answers_and_refusals_are_told_apart(tmp_path):
    job = workloads._power_job("order", "a", 3)
    job.expect = job.oracle()
    good = workloads.Outcome(0.0, 0.0, 0.0, 0, None, json.dumps(
        {"verdict": "ok", "violations": [], "timings": {},
         "witnesses": [{"word": "(a)^3", "normal_form": "a", "order": "2"}]}))
    lie = workloads.Outcome(0.0, 0.0, 0.0, 0, None, good.output.replace('"order": "2"', '"order": "1"'))
    refusal = workloads.Outcome(0.0, 0.0, 0.0, 2, None, "")
    crash = workloads.Outcome(0.0, 0.0, 0.0, None, "MemoryError", "")
    assert workloads.judge(job, good).failure is None
    assert (workloads.judge(job, lie).failure, workloads.judge(job, lie).wrong) == ("answer", True)
    assert (workloads.judge(job, refusal).failure, workloads.judge(job, refusal).wrong) == ("exit_code", False)
    assert (workloads.judge(job, crash).failure, workloads.judge(job, crash).wrong) == ("raised", False)


def test_oracle_cyclic_reduction_pins_the_documented_conjugator():
    m = oracle.p23()
    rng = random.Random(0)
    for _ in range(200):
        word = " ".join(rng.choice(["a", "b", "b^2"]) for _ in range(rng.randint(0, 12)))
        value = m.word(word)
        conj, core = m.cyclic_reduce(value)
        assert m.mul(conj, core, m.inv(conj)) == value
        assert len(core) < 2 or core[0][0] != core[-1][0]
        # The same split through freeprod.
        g = freeprod.specfiles.parse_group_spec((workloads.CASES / "p23.grp").read_text())
        red = freeprod.parse_constant(word or "1", g).cyclic_reduce()
        assert m.word(red.conjugator.as_word()) == conj
        assert m.word(red.core.as_word()) == core


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
