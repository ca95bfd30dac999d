#!/usr/bin/env python3
"""freeprod benchmark: seeded workloads, checked answers, end-to-end and
per-module metrics.

Run from the repository root:

    python3 bench/run.py --workload query_mix --seed 1 --seconds 20 --trace 0

One client runs the workload's jobs one after another (a closed loop, no
threads), in passes over the seeded job list, for about ``--seconds``.
Every answer is checked against an independent oracle (see workloads.py).

``--trace 0`` measures with tracing off and reports the end-to-end metrics;
``--trace 1`` alternates untraced passes with traced ones, in which every
public freeprod function is wrapped (see spans.py), and reports per-module
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with provenance, goes to ``bench/out/``; traced runs also write their
spans there.

The measuring itself happens in fresh child processes of this script:
several that only set up (for ``setup_s``) and one that runs the workload
(its own peak RSS is ``peak_rss_mb``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (after the path set-up above)

SETUP_PROBES = 5  # set-up-only children; with the measuring child, 6 samples
MIN_PASSES = 3
TIME_LIMIT_S = 170  # the whole run, children included

# Times are reported at a fixed reference speed.  The host's speed drifts
# by up to 2x within seconds, so the runner times one chunk of fixed
# pure-Python work, shaped like freeprod's seam-merge loop, just before and
# just after every job and every SAMPLE_EVERY_S inside it from a SIGALRM
# handler.  A job's wall time, less the handler's time, is
# scaled by REFERENCE_S / (mean chunk time around and inside the job).  Raw
# wall times go to the result record.
REFERENCE_S = 0.0002  # nominal time of one chunk, near its median on a 2-core x86-64 host
SAMPLE_EVERY_S = 0.02
_TABLES = (((0, 1), (1, 0)), ((0, 1, 2), (1, 2, 0), (2, 0, 1)))


def reference_chunk() -> float:
    """Seconds one fixed piece of interpreter work takes now."""
    t0 = time.perf_counter()
    out: list[tuple[int, int]] = []
    for i in range(500):
        f = (i * 7 + (i >> 3)) % 2
        e = 1 + (i * 13) % (f + 1)
        if out and out[-1][0] == f:
            m = _TABLES[f][out[-1][1]][e]
            if m == 0:
                out.pop()
            else:
                out[-1] = (f, m)
        else:
            out.append((f, e))
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the reference chunk every SAMPLE_EVERY_S from SIGALRM."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, chunk)
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        chunk = reference_chunk()
        self.samples.append((t0, time.perf_counter(), chunk))

    def __enter__(self):
        self.samples.clear()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def inside(self, outcome) -> tuple[float, list[float]]:
        """Handler seconds and chunk times that fell inside the job's call."""
        hits = [(e - s, c) for s, e, c in self.samples if s >= outcome.start and e <= outcome.end]
        return sum(h for h, _ in hits), [c for _, c in hits]


SUBCOMMANDS = ("eval", "order", "reduce", "check", "solve", "verify-theorem2",
               "verify-lemma4", "verify-lemma5", "verify-lemma7", "axis")

# (name, unit, better); the order is the order of the output.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
]


def _per_layer() -> list[tuple[str, str, str]]:
    rows = []

    def add(name, unit="s", better="lower"):
        rows.append((name, unit, better))

    def calls_self(name, *counts):
        add(f"{name}.calls", "count")
        add(f"{name}.self_s")
        for c in counts:
            add(f"{name}.{c}", "count")

    calls_self("finite_group.from_cayley_table", "cells")
    add("finite_group.direct_product.self_s")
    for f in ("parse_group_spec", "parse_subgroup_spec", "parse_ball_spec"):
        add(f"specfiles.{f}.self_s")
    calls_self("free_product.mul", "syllables_in")
    calls_self("free_product.inverse")
    calls_self("free_product.power")
    calls_self("free_product.cyclic_reduce", "syllables_in")
    calls_self("free_product.enumerate_ball", "elements_out")
    calls_self("words.parse_word", "letters_out")
    calls_self("words.evaluate", "letters_in")
    calls_self("words.solve_bounded", "search_space", "solutions")
    add("words.solve_bounded.tuples_per_s", "1/s", "higher")
    add("words.build_lemma5.self_s")
    add("words.theorem2_report.self_s")
    calls_self("checker.check_all", "violations")
    calls_self("tree.classify")
    calls_self("tree.axis_vertices", "vertices_out")
    calls_self("tree.axes_intersection")
    calls_self("tree.vertex_distance")
    calls_self("cli.main")
    for sub in SUBCOMMANDS:
        add(f"cli.{sub}.total_s")
    for kind in ("raised", "exit_code", "answer"):
        add(f"cli.failures.{kind}", "count")
    add("cli.failed_frac", "ratio")
    for module in ("finite_group", "specfiles", "free_product", "words", "checker",
                   "tree", "sampling", "cli", "harness"):
        add(f"{module}.self_s")
    add("trace.overhead_frac", "ratio")
    add("trace.wall_s")
    add("trace.accounted_frac", "ratio", "higher")
    return rows


PER_LAYER = _per_layer()


# -- the measuring child ----------------------------------------------------------


def _workdir() -> Path:
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _set_up(args):
    """Import freeprod and build the workload's inputs; the timed set-up.
    Returns the set-up time raw and at reference speed."""
    import importlib

    workdir = _workdir()
    before = reference_chunk()
    t0 = time.perf_counter()
    fp = importlib.import_module("freeprod")
    importlib.import_module("freeprod.cli")
    jobs = workloads.generate(args.workload, args.seed, workdir)
    raw = time.perf_counter() - t0
    return fp, jobs, workdir, raw, raw * REFERENCE_S / ((before + reference_chunk()) / 2)


def _run_pass(jobs, fp, tracer, pass_no, record):
    """Run every job once.  Returns the program's seconds raw and at
    reference speed, and the elapsed seconds outside reference chunks."""
    raw = scaled = 0.0
    sampler = SpeedSampler()
    t0 = time.perf_counter()
    before = in_chunks = reference_chunk()
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = pass_no * len(jobs) + idx
            span = tracer.open("harness.job")
        with sampler:
            outcome = workloads.execute(job, fp)
        if tracer is not None:
            check = tracer.open("harness.check")
        verdict = workloads.judge(job, outcome)
        if tracer is not None:
            tracer.close(check)
            tracer.close(span)
        after = reference_chunk()
        in_chunks += after
        handler_s, chunks = sampler.inside(outcome)
        seconds = (outcome.seconds - handler_s) * REFERENCE_S / statistics.mean(chunks + [before, after])
        before = after
        raw += outcome.seconds
        scaled += seconds
        record(idx, seconds, verdict)
    return raw, scaled, time.perf_counter() - t0 - in_chunks


def _measure(args) -> int:
    fp, jobs, workdir, setup_raw, setup_s = _set_up(args)
    try:
        t = time.perf_counter()
        for job in jobs:
            job.expect = job.oracle()
        oracle_s = time.perf_counter() - t
        # Keep the collector off the harness's own objects (expected answers
        # hold whole balls), so a job's collections cost what they would in
        # a fresh freeprod process.
        gc.collect()
        gc.freeze()

        latencies: list[float] = []
        job_seconds: dict[int, list[float]] = {}
        digests: dict[int, set] = {}
        failures: dict[str, int] = {}
        wrong = []
        attempted = 0

        def record(idx, seconds, verdict, timed=True):
            nonlocal attempted
            attempted += 1
            if timed:
                latencies.append(seconds)
                job_seconds.setdefault(idx, []).append(seconds)
            digests.setdefault(idx, set()).add(verdict.digest)
            if verdict.failure:
                key = verdict.failure
                if key == "raised":
                    key += ":" + verdict.detail
                failures[key] = failures.get(key, 0) + 1
            if verdict.wrong:
                job = jobs[idx]
                wrong.append(f"{job.argv or [job.kind, job.api_arg]}: {verdict.detail}")

        walls, raw_walls, traced_walls, traced_raw, traced_elapsed = [], [], [], [], []
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        start = time.perf_counter()
        pass_no = 0
        while True:
            if args.trace and pass_no % 2 == 1:
                tracer.install(fp)
                try:
                    raw, wall, elapsed = _run_pass(jobs, fp, tracer, pass_no,
                                                   lambda i, s, v: record(i, s, v, timed=False))
                finally:
                    tracer.uninstall()
                traced_raw.append(raw)
                traced_walls.append(wall)
                traced_elapsed.append(elapsed)
            else:
                raw, wall, _ = _run_pass(jobs, fp, None, pass_no, record)
                raw_walls.append(raw)
                walls.append(wall)
            pass_no += 1
            spent = time.perf_counter() - start
            enough = (traced_walls and walls) if args.trace else len(walls) >= MIN_PASSES
            if enough and spent + spent / pass_no > args.seconds:
                break

        failed = sum(failures.values())
        result = {
            "correct": not wrong and all(len(d) == 1 for d in digests.values()),
            "attempted": attempted,
            "failed": failed,
            "setup_s": setup_s,
            "details": {
                "jobs_per_pass": len(jobs),
                "passes": len(walls),
                "traced_passes": len(traced_walls),
                "pass_wall_s": walls,
                "pass_wall_raw_s": raw_walls,
                "traced_pass_wall_s": traced_walls,
                "traced_pass_wall_raw_s": traced_raw,
                "setup_raw_s": setup_raw,
                "latency_samples": len(latencies),
                "job_median_s": [[jobs[i].kind, statistics.median(t)]
                                 for i, t in sorted(job_seconds.items())],
                "oracle_s": oracle_s,
                "failures": failures,
                "wrong_answers": wrong[:20],
            },
        }
        if args.trace:
            job_kinds = [j.kind for j in jobs] * pass_no
            result["metrics"] = _layer_metrics(tracer, job_kinds, walls, traced_walls, traced_raw,
                                               traced_elapsed, failures, attempted, pass_no)
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz", job_kinds)
        else:
            result["metrics"] = {
                "wall_s": statistics.median(walls),
                "query_p50_ms": 1000 * statistics.median(latencies),
                "query_p90_ms": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": 1 - failed / attempted,
            }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_metrics(tracer, job_kinds, walls, traced_walls, traced_raw, traced_elapsed,
                   failures, attempted, passes) -> dict:
    """Per-module values per traced pass, in raw seconds; the overhead
    compares traced and untraced passes at reference speed.  Self times
    include the speed sampler's handler, about 0.5% of a job."""
    n = len(traced_walls)
    totals = tracer.totals()
    values: dict[str, float] = {}
    for name, row in totals.items():
        for key, v in row.items():
            values[f"{name}.{key}"] = v / n
    solve = totals.get("words.solve_bounded")
    values["words.solve_bounded.tuples_per_s"] = (
        solve["search_space"] / solve["total_s"] if solve and solve["total_s"] else 0.0)
    for name, row in totals.items():
        module = name.split(".", 1)[0]
        values[f"{module}.self_s"] = values.get(f"{module}.self_s", 0.0) + row["self_s"] / n
    main_id = tracer.names.index("cli.main") if "cli.main" in tracer.names else -1
    for i in range(len(tracer.start)):
        if tracer.name[i] == main_id:
            key = f"cli.{job_kinds[tracer.job[i]]}.total_s"
            values[key] = values.get(key, 0.0) + (tracer.end[i] - tracer.start[i]) / n
    kinds = {"raised": 0, "exit_code": 0, "answer": 0}
    for key, count in failures.items():
        kinds[key.split(":", 1)[0]] += count
    for kind, count in kinds.items():
        values[f"cli.failures.{kind}"] = count / passes
    values["cli.failed_frac"] = sum(kinds.values()) / attempted
    accounted = sum(row["self_s"] for row in totals.values())
    values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
    values["trace.wall_s"] = statistics.median(traced_raw)
    values["trace.accounted_frac"] = accounted / sum(traced_elapsed)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}


def _setup_probe(args) -> int:
    _, _, workdir, raw, setup_s = _set_up(args)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s, "setup_raw_s": raw}))
    return 0


# -- the driving parent -------------------------------------------------------------


def _child(args, role: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A fixed string-hash seed gives every child the same dict layouts,
    # which otherwise shift a job's time by several percent per process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(**run_args) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "unix_time": time.time(),
        **run_args,
    }


def _drive(args) -> int:
    missing = [p for p in ("src/freeprod/__init__.py", "cases/p23.grp") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a "
              "freeprod checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        probes = []
        if not args.trace:
            probes = [_child(args, "setup", deadline) for _ in range(SETUP_PROBES)]
        child = _child(args, "measure", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = child["metrics"]
    if args.trace:
        out_metrics = metrics
    else:
        metrics["setup_s"] = statistics.median([p["setup_s"] for p in probes] + [child["setup_s"]])
        out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in END_TO_END}
    line = {"correct": child["correct"], "attempted": child["attempted"],
            "failed": child["failed"], "metrics": out_metrics}
    record = {
        "provenance": provenance(workload=args.workload, seed=args.seed,
                                 seconds=args.seconds, trace=args.trace),
        "setup_probes": probes,
        "reference_s": REFERENCE_S,
        "details": child["details"],
        **line,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("drive", "setup", "measure"), default="drive",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "setup":
        return _setup_probe(args)
    if args.role == "measure":
        return _measure(args)
    return _drive(args)


if __name__ == "__main__":
    sys.exit(main())
