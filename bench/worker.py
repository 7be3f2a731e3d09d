"""One workload run in a fresh interpreter; run.py starts it.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --out-dir DIR [--setup-only]

In-process workloads import ``twistlab.cli`` first, then build their seeded
inputs.  BLAS runs on one thread (run.py sets the pins).  With
``--setup-only`` the worker stops there.  Otherwise it runs one untimed
warm-up pass and then timed passes until ``--seconds`` have gone by.  The
cli-cold client never imports twistlab: each of its jobs is a fresh CLI
process.  Untraced in-process runs time the reference loop of calib.py
before and after every pass and record each pass's wall and CPU time both
raw and scaled to the reference speed; cli-cold's times stay raw.  The last
line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calib
import tracer as tr
import workloads

MIN_PASSES = 2
CLI_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def cpu_now():
    """User + system CPU seconds of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def schedule(seconds, trace):
    """Yield (pass index, traced) until the time is up.

    A traced run alternates untraced and traced passes so that both see the
    same machine conditions.  At least MIN_PASSES of each kind run."""
    start = time.perf_counter()
    kinds = 2 if trace else 1
    i = 0
    while i < MIN_PASSES * kinds or time.perf_counter() - start < seconds:
        yield i, bool(trace) and i % 2 == 1
        i += 1


class Outcomes:
    """Attempted jobs, failures, and the pass-to-pass determinism check."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}
        self.golden = {}

    def add(self, job_id, pass_id, verdict, output):
        self.attempted += 1
        if verdict.ok and self.golden.setdefault(job_id, output) != output:
            verdict = workloads.Verdict(False, "output differs from the first pass")
        if not verdict.ok:
            entry = self.failures.setdefault(
                job_id, {"passes": [], "detail": verdict.detail, "known": verdict.known})
            entry["passes"].append(pass_id)


def scale_to_reference(rec, loop_times):
    """Add the pass's wall and CPU time at the reference host speed."""
    k = calib.factor(loop_times)
    rec.update(wall_ref=rec["wall"] * k, cpu_ref=rec["cpu"] * k,
               loop_s=statistics.median(loop_times))


def summarize_trace(rec, spans_out, workload):
    """Replace a traced pass's spans by per-layer totals; keep the spans."""
    spans = rec.pop("spans")
    self_s, calls, unattributed, problems = tr.self_times(spans, rec["start"], rec["end"])
    rec.update(self_s=self_s, calls=calls, unattributed=unattributed,
               problems=rec.get("problems", []) + problems)
    for idx, (name, start, end, parent) in enumerate(spans):
        spans_out.append([workload, rec["pass"], idx, parent, name, start, end])


def write_spans(path, spans_out):
    with open(path, "w", encoding="utf-8") as fh:
        for row in spans_out:
            fh.write(json.dumps(row) + "\n")


def run_in_process(args):
    import twistlab.cli  # noqa: F401

    jobs = workloads.in_process_jobs(args.workload, args.seed)
    ready = time.perf_counter()
    if args.setup_only:
        return {"ready": ready}

    tracer = tr.Tracer()
    outcomes = Outcomes()
    records = []
    spans_out = []

    def one_pass(pass_id, traced):
        if traced:
            tracer.install()
        outs = []
        c0 = cpu_now()
        t0 = time.perf_counter()
        for job in jobs:
            try:
                outs.append(job.run())
            except Exception as exc:  # a failing job is counted, not fatal
                outs.append(exc)
        t1 = time.perf_counter()
        rec = {"pass": pass_id, "wall": t1 - t0, "cpu": cpu_now() - c0, "traced": traced}
        if traced:
            tracer.uninstall()
            rec.update(start=t0, end=t1, spans=tracer.spans, counts=dict(tracer.counts))
            summarize_trace(rec, spans_out, args.workload)
        for job, out in zip(jobs, outs):
            if isinstance(out, Exception):
                verdict = workloads.Verdict(False, f"raised {type(out).__name__}: {out}")
            else:
                verdict = job.check(out)
            outcomes.add(job.id, pass_id, verdict, workloads.canonical(out))
        return rec

    one_pass("warm-up", False)
    before = [] if args.trace else calib.sample()
    for i, traced in schedule(args.seconds, args.trace):
        records.append(one_pass(i, traced))
        if not args.trace:
            after = calib.sample()
            scale_to_reference(records[-1], before + after)
            before = after
    if args.trace:
        write_spans(os.path.join(args.out_dir, f"spans-{args.workload}.jsonl"), spans_out)
    return {
        "records": records, "attempted": outcomes.attempted,
        "failures": outcomes.failures, "jobs_per_pass": len(jobs),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_cli_cold(args):
    if args.setup_only:
        import twistlab.cli  # noqa: F401
        return {"ready": time.perf_counter()}
    launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
    jobs = workloads.cli_jobs(args.seed, args.out_dir)
    outcomes = Outcomes()
    records = []
    spans_out = []

    def invoke(job, threads, span_file):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        cmd = ([sys.executable, launcher, span_file] if span_file
               else [sys.executable, "-m", "twistlab.cli"])
        proc = subprocess.Popen(cmd + job.argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        try:
            out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return None, out, err
        return proc.returncode, out, err

    for i, traced in schedule(args.seconds, args.trace):
        # BLAS threads alternate 1, 2 from job to job and from pass to pass
        # (pair of passes when traced), so each job runs with both settings
        # and stdout must not change with them, while every pass runs the
        # same mix of settings
        flip = i // 2 if args.trace else i
        threads = [str(1 + (flip + j) % 2) for j in range(len(jobs))]
        span_files = [os.path.join(args.out_dir, f"launcher-{j}.json") if traced else None
                      for j in range(len(jobs))]
        results = []
        c0 = cpu_now()
        t0 = time.perf_counter()
        for job, n, span_file in zip(jobs, threads, span_files):
            results.append(invoke(job, n, span_file))
        t1 = time.perf_counter()
        rec = {"pass": i, "wall": t1 - t0, "cpu": cpu_now() - c0, "traced": traced,
               "threads": "".join(threads)}
        if traced:
            rec.update(start=t0, end=t1, spans=[], counts={}, problems=[],
                       stdout_bytes=sum(len(out) for _, out, _ in results))
            for path in span_files:
                merge_launcher_spans(rec, path)
            summarize_trace(rec, spans_out, args.workload)
        records.append(rec)
        for job, (code, out, err) in zip(jobs, results):
            verdict = workloads.check_cli(job, code, out.decode(errors="replace"),
                                          err.decode(errors="replace"))
            outcomes.add(job.id, i, verdict, out)
    if args.trace:
        write_spans(os.path.join(args.out_dir, f"spans-{args.workload}.jsonl"), spans_out)
    return {
        "records": records, "attempted": outcomes.attempted,
        "failures": outcomes.failures, "jobs_per_pass": len(jobs),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def merge_launcher_spans(rec, path):
    """Append one launcher's spans and counts to the pass, re-indexing parents."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        os.remove(path)
    except (OSError, json.JSONDecodeError) as exc:
        rec["problems"].append(f"no spans from the launcher: {exc}")
        return
    offset = len(rec["spans"])
    for name, start, end, parent in data["spans"]:
        rec["spans"].append((name, start, end, parent + offset if parent >= 0 else -1))
    for key, n in data["counts"].items():
        rec["counts"][key] = rec["counts"].get(key, 0) + n


def versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main():
    args = parse_args()
    if args.workload == "cli-cold":
        result = run_cli_cold(args)
    else:
        result = run_in_process(args)
    if not args.setup_only:
        result["versions"] = versions()
        result["pins"] = {var: os.environ.get(var) for var in workloads.PIN_VARS}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
