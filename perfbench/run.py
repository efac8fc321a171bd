#!/usr/bin/env python3
"""Benchmark of the aspp studies and the resident detection service.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py compare BASE.jsonl CHANGED.jsonl

A measuring run builds the `aspp` binary and the `perfbench` harness from
source (into $CARGO_TARGET_DIR, default `.bench_build`), runs the workload,
checks its outputs, prints every metric by name with its unit, appends a
result record (environment, raw samples, metrics) to `--out`, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, from one
untraced harness process. On a batch workload its repeats alternate
between all allowed CPUs and the first of them alone (the affinity mask
taskset sets); serve-ingest runs every session on the first CPU.
--trace 1 reports the per-layer metrics from one traced run of the obs
build and writes its spans next to the result record.

`compare` reads two result files and prints, for each workload and metric,
both medians, both quartile ranges and the ratio changed / base. It gates
nothing; the bounds in BENCHMARK.json do.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170

# Topology generations per set-up of a batch run, which sets up once
# before the warm-up and again before every pair of repeats; setup_s is
# the median of all of them. A serve-ingest run sets up once per session.
SETUP_REPS = {"internet-study": 1, "paper-figures": 20}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def target_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def cargo(args, target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--target-dir", target] + args
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def build():
    """Builds `aspp` and both harness variants; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail(f"{ROOT} is not an aspp checkout: the program's sources are missing")
    target = target_dir()
    manifest = ["--manifest-path", os.path.join(HERE, "Cargo.toml")]
    cargo(["--bin", "aspp"], target)
    cargo(manifest, target)
    cargo(manifest + ["--features", "obs"], os.path.join(target, "obs"))
    return {
        "aspp": os.path.join(target, "release", "aspp"),
        "plain": os.path.join(target, "release", "perfbench"),
        "obs": os.path.join(target, "obs", "release", "perfbench"),
    }


def run_child(cmd):
    """Runs one harness process and returns its JSON result line."""
    env = {k: v for k, v in os.environ.items() if k not in ("ASPP_LOG", "ASPP_MANIFEST")}
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"timed out after {CHILD_TIMEOUT_S} s: {' '.join(cmd)}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"exit {done.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def quantile(values, q):
    """Quantile with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def environment(workload, seed, obs):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = lambda *a: subprocess.run(["git", *a], cwd=ROOT, capture_output=True, text=True).stdout
        revision = git("rev-parse", "HEAD").strip() + ("-dirty" if git("status", "--porcelain") else "")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_revision": revision,
        "source_sha256": source_digest(),
        "profile": "release",
        "obs": obs,
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
    }


def source_digest():
    """SHA-256 over the program's sources, which identifies the code
    measured where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs
        )
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def end_to_end(args, bins, work):
    w = args.workload
    a = run_child(
        [bins["plain"], "e2e", "--workload", w, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-reps", str(SETUP_REPS.get(w, 1)),
         "--aspp", bins["aspp"], "--work", work]
    )
    study = statistics.median(a["study_s"])
    if w == "serve-ingest":
        # Every serve-ingest session runs on one CPU (src/main.rs says
        # why), so study_s and study_s.1core are the same sessions.
        study_1core = study
        latency = a["ingest_ms"]
        rate = a["ingest_rec_per_s"]
    else:
        study_1core = statistics.median(a["study_s_1core"])
        latency = [s * 1e3 for s in a["study_s"]]
        rate = a["cells"] / study
    metrics = {
        "setup_s": statistics.median(a["setup_s"]),
        "study_s": study,
        "study_s.1core": study_1core,
        "ingest_rec_per_s": rate,
        "ingest_ms.p50": statistics.median(latency),
        "ingest_ms.p90": quantile(latency, 0.9),
        "peak_rss_mb": a["peak_rss_mb"],
    }
    checks = {k: a[k] for k in ("attempted", "failed", "errors")}
    samples = {k: a[k] for k in ("setup_s", "study_s", "study_s_1core", "ingest_rec_per_s") if k in a}
    samples["latency_samples"] = len(latency)
    return metrics, checks, a["sizes"], samples


def per_layer(args, bins, work, out_dir):
    spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    t = run_child(
        [bins["obs"], "trace", "--workload", args.workload, "--seed", str(args.seed),
         "--aspp", bins["aspp"], "--work", work, "--spans", spans]
    )
    checks = {"attempted": t["attempted"], "failed": t["failed"], "errors": t["errors"]}
    if not t["obs"]:
        checks["failed"] += 1
        checks["errors"].append("the traced harness was built without engine counters")
    return t["metrics"], checks, t["sizes"], {"spans": os.path.relpath(spans, ROOT)}


def measure(args):
    spec = load_spec()
    names = [wl["name"] for wl in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    bins = build()
    out = args.out or os.path.join(ROOT, ".bench_out", "results.jsonl")
    out_dir = os.path.dirname(os.path.abspath(out))
    os.makedirs(out_dir, exist_ok=True)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    started = time.time()
    try:
        if args.trace:
            metrics, checks, sizes, samples = per_layer(args, bins, work, out_dir)
        else:
            metrics, checks, sizes, samples = end_to_end(args, bins, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        checks["failed"] += 1
        checks["errors"].append(f"metrics not measured: {missing}")
    attempted, failed = checks["attempted"], checks["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.workload, args.seed, bool(args.trace)),
        "sizes": sizes,
        "samples": samples,
        "failed_ratio": failed / attempted,
        "errors": checks["errors"],
        "wall_s": time.time() - started,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in wanted},
    }
    with open(out, "a") as f:
        f.write(json.dumps(record) + "\n")

    for m in wanted:
        print(f"{args.workload:>15} {m['name']:<34} {metrics.get(m['name'])!s:>24} {m['unit']}")
    print(f"{args.workload:>15} {'failed_ratio':<34} {failed / attempted:>24} ({failed} of {attempted})")
    for e in checks["errors"]:
        print(f"{args.workload:>15} check failed: {e}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))


def compare(base_path, changed_path):
    """Prints both medians, both quartile ranges and changed / base."""
    def load(path):
        groups = {}
        with open(path) as f:
            for line in f:
                if line.strip():
                    r = json.loads(line)
                    for name, m in r["metrics"].items():
                        if m["value"] is not None:
                            key = (r["workload"], r["trace"], name, m["unit"])
                            groups.setdefault(key, []).append(m["value"])
        return groups

    def summary(values):
        if not values:
            return None, None
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        return statistics.median(values), (q[0], q[2])

    base, changed = load(base_path), load(changed_path)
    print(f"base    = {base_path}\nchanged = {changed_path}")
    print(f"{'workload':<15} {'metric':<34} {'n':>5} {'base median':>14} {'base q1..q3':>25} "
          f"{'changed median':>14} {'changed q1..q3':>25} {'changed/base':>12}")
    for key in sorted(set(base) | set(changed)):
        workload, _, name, unit = key
        bm, bq = summary(base.get(key, []))
        cm, cq = summary(changed.get(key, []))
        ratio = f"{cm / bm:.4f}" if bm and cm is not None else "n/a"
        fmt = lambda v: "n/a" if v is None else f"{v:.6g}"
        fq = lambda q: "n/a" if q is None else f"{q[0]:.6g}..{q[1]:.6g}"
        n = f"{len(base.get(key, []))}/{len(changed.get(key, []))}"
        print(f"{workload:<15} {name + ' [' + unit + ']':<34} {n:>5} {fmt(bm):>14} {fq(bq):>25} "
              f"{fmt(cm):>14} {fq(cq):>25} {ratio:>12}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare BASE.jsonl CHANGED.jsonl")
        compare(sys.argv[2], sys.argv[3])
        return
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="result file to append to (default .bench_out/results.jsonl)")
    measure(p.parse_args())


if __name__ == "__main__":
    main()
