#!/usr/bin/env python3
"""Serving-stack benchmark: build, run one workload, report its metrics.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload cold-batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR [--claim WORKLOAD:METRIC]

A run builds the `perfbench` binary from source (into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs it, checks the outputs and the ledgers,
writes a result file with its provenance under
`<target>/perfbench/results/` (or `--out`), and prints one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.
Compare mode reads two directories of untraced result files. See
README.md next to this file.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

# The binary must finish well inside the 180 s a run may take.
BINARY_TIMEOUT_S = 170
# Directories whose sources make up the measured program.
SOURCE_DIRS = ("crates", "vendor", "perfbench")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
            return json.load(f)
    except OSError as e:
        fail(f"BENCHMARK.json: {e}")


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def command_output(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the measured sources, so results identify the code
    they measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in SOURCE_DIRS:
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("target", "__pycache__"))
            for name in sorted(files):
                if name.endswith(".pyc") or name == "Cargo.lock":
                    continue
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def provenance(raw, args):
    git = command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None
    return {
        "nproc": raw["nproc"],
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": git,
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "workload": args.workload,
        "load_threads": raw["load_threads"],
        "unix_time": time.time(),
    }


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def run(args):
    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)
    if not os.path.isdir("crates"):
        fail("run from the root of a checkout of the repository (no crates/ here)", 2)
    target = target_dir()
    binary = build(target)
    workdir = os.path.relpath(os.path.join(target, "perfbench", f"run-{os.getpid()}"))
    os.makedirs(workdir, exist_ok=True)
    raw_path = os.path.join(workdir, "raw.json")
    try:
        result = subprocess.run(
            [
                binary,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--workdir", workdir,
                "--out", raw_path,
            ],
            stdout=sys.stderr,
            timeout=BINARY_TIMEOUT_S,
        )
        if result.returncode != 0:
            fail(f"benchmark binary exited with {result.returncode}")
        with open(raw_path) as f:
            raw = json.load(f)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary did not finish in {BINARY_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if raw["load_threads"] > raw["nproc"]:
        fail(f"refusing a run with {raw['load_threads']} load threads on {raw['nproc']} cores")
    try:
        if args.trace:
            values = stats.per_layer(raw)
            declared = bench["per_layer"]
        else:
            values = stats.end_to_end(raw)
            declared = bench["end_to_end"]
    except stats.InsufficientSamples as e:
        fail(str(e))

    phase = raw["phases"][-1]
    attempted = sum(p["ledger"]["submitted"] for p in raw["phases"])
    failed = sum(stats.failures(p) for p in raw["phases"])
    mismatches = [m for p in raw["phases"] for m in stats.reconcile(p)]
    for check, caller, service in mismatches:
        print(f"perfbench: ledger mismatch: {check}: {caller} vs {service}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    line = {
        "correct": all(p["wrong"] == 0 for p in raw["phases"]) and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(
        line,
        provenance=provenance(raw, args),
        ledger=phase["ledger"],
        service=phase["stats"],
        setup_s=raw["setup_s"],
    )
    out = args.out or os.path.join(
        target, "perfbench", "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time() * 1000)}.json",
    )
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(line))


def load_results(directory):
    results = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                record = json.load(f)
            if not record["provenance"]["traced"]:
                results.append(record)
    return results


def compare(args):
    bench = load_benchmark()
    parent = load_results(args.parent)
    change = load_results(args.change)
    claim = tuple(args.claim.split(":", 1)) if args.claim else None

    def summary(values):
        q1, q2, q3 = stats.quartiles(values)
        return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"

    print(f"{'workload':<13} {'metric':<15} {'parent median [q1, q3]':<38} "
          f"{'change median [q1, q3]':<38} {'bound':<6} verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs = [r for r in parent if r["provenance"]["workload"] == workload]
        c_runs = [r for r in change if r["provenance"]["workload"] == workload]
        if not p_runs or not c_runs:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            v = stats.verdict(p, c, metric["bound"], metric["better"])
            print(f"{workload:<13} {name:<15} {summary(p):<38} {summary(c):<38} "
                  f"{metric['bound']:<6} {v}")
            if claim == (workload, name):
                by_seed = {r["provenance"]["seed"]: r["metrics"][name]["value"] for r in p_runs}
                pairs = [(by_seed[r["provenance"]["seed"]], r["metrics"][name]["value"])
                         for r in c_runs if r["provenance"]["seed"] in by_seed]
                wins = stats.pair_wins(pairs, metric["better"])
                met = stats.claim_met(pairs, metric["better"])
                print(f"  claim {workload}:{name}: change wins {wins}/{len(pairs)} seed-matched "
                      f"pairs; {'met' if met else 'not met'} (needs >= 9/10 and a median move "
                      f"beyond the parent's quartile distance)")


def main(argv):
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent", help="directory of the parent's result files")
        parser.add_argument("change", help="directory of the change's result files")
        parser.add_argument("--claim", help="WORKLOAD:METRIC a change claims to improve")
        compare(parser.parse_args(argv[1:]))
        return
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: under <target>/perfbench/results/)")
    run(parser.parse_args(argv))


if __name__ == "__main__":
    main(sys.argv[1:])
