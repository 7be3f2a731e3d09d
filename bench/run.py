"""twistlab benchmark: one workload run, end-to-end or traced.

    python3 bench/run.py --workload free-f2 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every run starts fresh interpreters (see
worker.py), so set-up time and peak memory belong to the workload alone.
The end-to-end times are scaled to a reference host speed (calib.py); the
raw medians are printed beside them.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics from a separate traced run.  The last
line of stdout is one JSON object; the lines before it are for people.
Spans, launcher files and generated inputs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 40
DEADLINE_S = 175
# seed on which a later performance claim must also hold
CLAIM_CHECK_SEED = 7919


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_state():
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}

    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"sha": None, "dirty": None, "note": f"git unavailable: {exc}"}


def spawn_worker(args, out_dir, env, timeout, setup_only=False):
    """Run worker.py to completion; return (spawn time, parsed last line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"worker timed out after {timeout:.0f}s")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        fail(f"worker exited with {proc.returncode}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def measure_setup(args, out_dir, env):
    """Fresh interpreter to inputs ready, several times; the medians are steadier.

    Returns the raw samples, the samples at the reference host speed and the
    reference-loop timings."""
    raw, scaled = [], []
    before = calib.sample()
    loop_times = list(before)
    for _ in range(SETUP_SAMPLES):
        t_spawn, res = spawn_worker(args, out_dir, env, SETUP_TIMEOUT_S, setup_only=True)
        after = calib.sample()
        raw.append(res["ready"] - t_spawn)
        scaled.append(raw[-1] * calib.factor(before + after))
        loop_times += after
        before = after
    return raw, scaled, loop_times


def end_to_end(spec, result, setup):
    recs = result["records"]
    # cli-cold's passes run in child processes that the loop in this
    # worker does not follow; its wall and CPU times stay raw
    scaled = "wall_ref" in recs[0]
    raw = {"setup_s": setup[0], "wall_s": [r["wall"] for r in recs],
           "cpu_s": [r["cpu"] for r in recs]}
    samples = {"setup_s": setup[1],
               "wall_s": [r["wall_ref" if scaled else "wall"] for r in recs],
               "cpu_s": [r["cpu_ref" if scaled else "cpu"] for r in recs],
               "peak_rss_mib": [result["maxrss_kib"] / 1024.0]}
    metrics = {}
    passes = (f"{statistics.median(r['loop_s'] for r in recs):.6f} s around the passes"
              if scaled else "passes not scaled")
    lines = [f"host speed: reference loop median {statistics.median(setup[2]):.6f} s in "
             f"set-up, {passes}; scaled times are at {calib.REF_S} s"]
    for m in spec["end_to_end"]:
        q1, med, q3 = quartiles(samples[m["name"]])
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        line = (f"{m['name']:<14} {med:12.6f} {m['unit']:<6} median of "
                f"{len(samples[m['name']])}, quartiles {q1:.6f} .. {q3:.6f}")
        if m["name"] in raw:
            line += f"; raw median {statistics.median(raw[m['name']]):.6f}"
        lines.append(line)
    return metrics, lines


def layer_value(name, rec):
    if name == "unattributed_s":
        return rec["unattributed"]
    if name == "cli.import_s":
        return rec["self_s"].get("cli.import", 0.0)
    if name == "cli.stdout_bytes":
        return rec.get("stdout_bytes", 0)
    if name in tracer.COUNTS:
        return rec["counts"].get(name, 0)
    if name.endswith(".self_s"):
        return rec["self_s"].get(name[: -len(".self_s")], 0.0)
    if name.endswith(".calls"):
        return rec["calls"].get(name[: -len(".calls")], 0)
    raise KeyError(f"no rule for per-layer metric {name!r}")


def per_layer(spec, result):
    traced = [r for r in result["records"] if r["traced"]]
    plain = [r["wall"] for r in result["records"] if not r["traced"]]
    overhead = statistics.median(r["wall"] for r in traced) - statistics.median(plain)
    metrics = {}
    lines = [f"traced passes {len(traced)}, untraced passes {len(plain)}; "
             f"values are medians over traced passes of per-pass totals"]
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            value = overhead
        else:
            value = statistics.median(layer_value(name, r) for r in traced)
        metrics[name] = {"value": value, "unit": m["unit"]}
        lines.append(f"{name:<48} {value:14.6f} {m['unit']}")
    problems = [p for r in traced for p in r["problems"]]
    return metrics, lines, problems


def main():
    args = parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "twistlab" / "cli.py").is_file() or not (ROOT / "data").is_dir():
        fail(f"no twistlab sources (src/twistlab, data/) under {ROOT}")
    t_begin = time.perf_counter()
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **{var: "1" for var in workloads.PIN_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "claim_check_seed": CLAIM_CHECK_SEED,
        "loop": workloads.LOOP, "why": workloads.WORKLOADS[args.workload],
        "git": git_state(), "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
    }
    setup = measure_setup(args, out_dir, env) if not args.trace else None
    remaining = DEADLINE_S - (time.perf_counter() - t_begin)
    _, result = spawn_worker(args, out_dir, env, remaining)
    meta.update(loadavg_end=os.getloadavg(), versions=result["versions"],
                thread_pins=result["pins"])

    problems = []
    if args.trace:
        metrics, lines, problems = per_layer(spec, result)
    else:
        metrics, lines = end_to_end(spec, result, setup)
    failures = result["failures"]
    failed = sum(len(f["passes"]) for f in failures.values())
    attempted = result["attempted"]
    unexpected = {j: f for j, f in failures.items() if not f["known"]}

    print(f"twistlab benchmark: {args.workload}, seed {args.seed}, "
          f"{len(result['records'])} passes of {result['jobs_per_pass']} jobs")
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in lines:
        print(line)
    print(f"{'failed_frac':<14} {failed / attempted:12.6f} ratio  "
          f"({failed} failed of {attempted} attempted)")
    for job_id, f in sorted(failures.items()):
        tag = f"known baseline failure ({f['known']})" if f["known"] else "UNEXPECTED failure"
        print(f"{tag}: {job_id} in passes {f['passes']}: {f['detail']}")
    for p in problems:
        print(f"trace check failed: {p}")
    print(json.dumps({"correct": not unexpected and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
