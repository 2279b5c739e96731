#!/usr/bin/env python3
"""The repository benchmark: build, run, check, collect and compare.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload tcp_echo --seed 1 --seconds 20 --trace 0

builds `perfbench/` (a cargo package of its own) from source, runs one
workload for `--seconds`, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The line before it is the
full result record with provenance, also appended to
`.bench_out/results.jsonl`.

Other modes:

    --collect PREFIX [--base DIR] [--runs 10]
        runs every workload with seeds 1..runs as interleaved pairs of a base
        and this checkout (the base defaults to this checkout), alternating
        which side runs first; writes PREFIX.base.jsonl and
        PREFIX.change.jsonl, prints each side's quartile spread of every
        end-to-end metric against its bound, then compares the sides in
        both directions
    --compare BASE.jsonl CHANGE.jsonl
        the two-sided comparison of two collected sets (see README.md)
    --self-test
        every workload at a tiny size, in both modes, plus a corrupted result
        that the output check must catch
"""

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 160
# Idle time before each measured run. A previous run's sustained load leaves
# this kind of shared host slower for seconds afterwards (tcp_churn right
# after tcp_raytrace read up to 45% more CPU per task until it recovered);
# an idle pause lets it recover before measuring.
SETTLE_S = 5
# Everything the benchmark binary is built from, for the source digest.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_layers():
    with open(os.path.join(HERE, "layers.json")) as f:
        return json.load(f)


def build(root=ROOT):
    """Builds the benchmark binary of the checkout at `root`; returns its
    path, or None on failure. Another checkout than this one builds into its
    own `.bench_build/`."""
    env = dict(os.environ)
    if root != ROOT or "CARGO_TARGET_DIR" not in env:
        env["CARGO_TARGET_DIR"] = os.path.join(root, ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
           os.path.join(root, "perfbench", "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        print(f"build failed: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "pando-perfbench")


def run_binary(binary, args, root):
    """Runs the binary in `root`; returns (stdout lines, exit code). Kills
    it, and waits for it, if it outlives the run timeout."""
    proc = subprocess.Popen([binary] + args, cwd=root,
                            stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print(f"benchmark run exceeded {RUN_TIMEOUT_S}s and was stopped", file=sys.stderr)
        return out.splitlines(), 124
    return out.splitlines(), proc.returncode


def source_digest(root):
    digest = hashlib.sha256()
    for top in SOURCE_ROOTS:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            for f in fs if not any(p in ("target", ".bench_build") for p in d.split(os.sep)))
        for name in files:
            if name.endswith((".rs", ".toml", ".lock", ".py", ".json")):
                digest.update(os.path.relpath(name, root).encode())
                with open(name, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def command_output(cmd, root):
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def provenance(args, lines, root):
    config = {}
    for line in lines:
        if line.startswith("config "):
            config = dict(part.split("=", 1) for part in line[len("config "):].split() if "=" in part)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_revision": command_output(["git", "rev-parse", "HEAD"], root),
        "source_digest": source_digest(root),
        "rustc": command_output(["rustc", "--version"], root),
        "config": config,
    }


def run_once(binary, args, extra=(), settle=True, root=ROOT):
    """One benchmark run; returns (record, result) or (None, None). A result
    whose metric names and units differ from BENCHMARK.json's catalogue for
    the mode counts as no result."""
    if settle:
        time.sleep(SETTLE_S)
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)] + list(extra)
    lines, code = run_binary(binary, flags, root)
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        print(f"benchmark exited with code {code}", file=sys.stderr)
        return None, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("benchmark printed no result line", file=sys.stderr)
        return None, None
    spec = load_spec()
    want = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != want:
        print(f"metrics {sorted(got.items())} differ from BENCHMARK.json's {sorted(want.items())}",
              file=sys.stderr)
        return None, None
    record = dict(provenance(args, lines, root), **result)
    for line in lines:
        if line.startswith("rounds "):
            record["rounds"] = json.loads(line[len("rounds "):])
        if line.startswith("ungated "):
            record["ungated"] = json.loads(line[len("ungated "):])
    return record, result


def append_record(path, record):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def spreads(records):
    """Prints each end-to-end metric's spread per workload against its bound;
    returns 1 if any is wider than its bound."""
    spec = load_spec()
    print(f"{'workload':14} {'metric':22} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        rows = [r for r in records if r["workload"] == workload]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            s = spread(values)
            verdict = "ok" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
            worst |= s > m["bound"]
            print(f"{workload:14} {m['name']:22} {statistics.median(values):14.6g} {s:8.4f} "
                  f"{m['bound']:6.3f}  {verdict}")
    return int(worst)


def collect(binary, opts):
    """Runs `--runs` seeds of every workload on the base and this checkout as
    interleaved pairs, alternating which side runs first, so that a drift of
    the host's speed lands on both sides alike."""
    spec = load_spec()
    base_root = opts.base or ROOT
    base_binary = binary if base_root == ROOT else build(base_root)
    if base_binary is None:
        return 1
    sides = {"base": (base_binary, base_root), "change": (binary, ROOT)}
    paths = {side: f"{opts.collect}.{side}.jsonl" for side in sides}
    if any(os.path.exists(path) for path in paths.values()):
        print(f"{' or '.join(paths.values())} exists; choose another prefix", file=sys.stderr)
        return 1
    records = {side: [] for side in sides}
    for seed in range(1, opts.runs + 1):
        order = ["base", "change"] if seed % 2 else ["change", "base"]
        for workload in [w["name"] for w in spec["workloads"]]:
            for side in order:
                args = argparse.Namespace(workload=workload, seed=seed, seconds=spec["run_seconds"],
                                          trace=opts.trace)
                record, _ = run_once(sides[side][0], args, root=sides[side][1])
                if record is None:
                    return 1
                append_record(paths[side], record)
                records[side].append(record)
                print(f"# {side} {workload} seed {seed}: correct={record['correct']}", flush=True)
    worst = 0
    if not opts.trace:
        for side in sides:
            print(f"== spread of {side} ({base_root if side == 'base' else ROOT})")
            worst |= spreads(records[side])
    print("== base -> change")
    worst |= compare(paths["base"], paths["change"])
    print("== change -> base")
    worst |= compare(paths["change"], paths["base"])
    return worst


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(base_path, change_path):
    """Applies the two-sided rule: per workload and metric, each side's median
    and quartiles, the change's win share over pairs matched by seed, and a
    verdict against the metric's bound. Returns 1 if a gated metric got worse
    by more than its bound on some workload."""
    spec = load_spec()
    layers = load_layers()
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load_records(base_path), load_records(change_path)

    def value(record, name):
        found = record["metrics"].get(name) or record.get("ungated", {}).get(name)
        return None if found is None else found["value"]

    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs = {r["seed"]: r for r in base if r["workload"] == workload}
        c_runs = {r["seed"]: r for r in change if r["workload"] == workload}
        if not b_runs or not c_runs:
            continue
        seeds = sorted(set(b_runs) & set(c_runs))
        runs = list(b_runs.values()) + list(c_runs.values())
        print(f"== {workload}: {len(b_runs)} base runs, {len(c_runs)} change runs, {len(seeds)} pairs")
        print(f"{'metric':38} {'base q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>6} {'delta':>8}  verdict")
        names = sorted({n for r in runs for n in list(r["metrics"]) + list(r.get("ungated", {}))},
                       key=lambda n: (n not in meta or "bound" not in meta[n], n))
        for name in names:
            if any(value(r, name) is None for r in runs):
                continue
            m = meta.get(name, {"better": "lower"})
            lower = m["better"] == "lower"
            bv = [value(b_runs[s], name) for s in sorted(b_runs)]
            cv = [value(c_runs[s], name) for s in sorted(c_runs)]
            bq, cq = quartiles(bv), quartiles(cv)
            pairs = [(value(b_runs[s], name), value(c_runs[s], name)) for s in seeds]
            wins = sum(1 for b, c in pairs if c != b and (c < b) == lower)
            share = wins / len(seeds) if seeds else 0.0
            delta = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worsening = delta if lower else -delta
            base_spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
            better_all = (max(cv) < min(bv)) if lower else (min(cv) > max(bv))
            bound = m.get("bound")
            if name not in meta:
                verdict = "(ungated tail percentile)"
            elif bound is None:
                moves = layers.get(name, {}).get("moves", "")
                verdict = f"(per-layer; should move {moves})" if moves else "(per-layer)"
            elif worsening > bound:
                verdict = "WORSE"
                worse = 1
            elif share >= 0.9 and abs(cq[1] - bq[1]) > (bq[2] - bq[0]):
                verdict = "better"
            elif base_spread > bound and not better_all:
                verdict = "unresolved"
            elif better_all:
                verdict = "better"
            else:
                verdict = "unchanged"
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{name:38} {fmt(bq):>32} {fmt(cq):>32} {share:6.2f} {delta:+8.3%}  {verdict}")
    return worse


def self_test(binary):
    """Tiny runs of every workload: every metric present with its unit and a
    non-zero end-to-end value, outputs correct; then a corrupted result that
    the output check must reject."""
    spec = load_spec()
    layers = load_layers()
    failures = []
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    if missing:
        failures.append(f"layers.json lacks {missing}")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1, trace=trace)
            _, result = run_once(binary, args, ["--smoke"], settle=False)
            label = f"{workload} trace={trace}"
            if result is None:
                failures.append(f"{label}: no result")
                continue
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{label}: output check failed")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
                if zero:
                    failures.append(f"{label}: end-to-end metrics not above zero: {zero}")
        args = argparse.Namespace(workload=workload, seed=7, seconds=1, trace=0)
        _, result = run_once(binary, args, ["--smoke", "--corrupt"], settle=False)
        if result is None or result["correct"] or result["failed"] == 0:
            failures.append(f"{workload}: the corrupted result was not caught")
        else:
            print(f"# {workload}: corrupted result caught ({result['failed']} failed)")
    for failure in failures:
        print(f"SELF-TEST FAIL {failure}")
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--collect", metavar="PREFIX")
    parser.add_argument("--base", metavar="DIR", help="checkout to pair with this one in --collect")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    # Paths given on the command line are relative to where it was typed.
    opts.compare = opts.compare and [os.path.abspath(p) for p in opts.compare]
    opts.collect = opts.collect and os.path.abspath(opts.collect)
    opts.base = opts.base and os.path.abspath(opts.base)
    os.chdir(ROOT)
    if opts.compare:
        return compare(*opts.compare)
    if not (opts.self_test or opts.collect or opts.workload):
        parser.error("one of --workload, --collect, --compare or --self-test is required")
    binary = build()
    if binary is None:
        return 1
    if opts.self_test:
        return self_test(binary)
    if opts.collect:
        return collect(binary, opts)
    if opts.workload not in [w["name"] for w in load_spec()["workloads"]]:
        parser.error(f"unknown workload {opts.workload}")
    opts.seconds = opts.seconds or load_spec()["run_seconds"]
    record, result = run_once(binary, opts)
    if record is None:
        return 1
    append_record(os.path.join(OUT_DIR, "results.jsonl"), record)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
