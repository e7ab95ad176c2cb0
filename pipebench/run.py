#!/usr/bin/env python3
"""Run one BenchPress pipeline workload and print its metrics.

    python3 pipebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 pipebench/run.py --self-test

Run from the repository root. The script builds the benchmark program
(pipebench/Cargo.toml, a package of its own that depends on the
repository's crates by path) with cargo into $CARGO_TARGET_DIR (default
.bench_build), then runs it in a child process under a memory ceiling and a
time limit. It relays the child's report and ends its standard output with
one JSON line: correct, attempted, failed and metrics.

Failure accounting: the child counts an operation that returns an error or
panics as failed. If the child itself dies -- for instance because a query
hit the memory ceiling -- the operations of the pass it was running are
counted as failed, the run is reported as not correct, and the script exits
with code 1. It exits with code 1 without printing a result when the
program cannot be built (for example outside a full checkout).

--self-test runs every workload at a tiny size, traced and untraced, and
checks that every metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Address-space ceiling for the child: a runaway join fails its pass
# instead of exhausting the machine. Choosing study seeds generates
# Laptop-scale candidates whose star joins peak at about 1.5 GiB resident.
MEMORY_CEILING_BYTES = 4 * 1024**3
CHILD_TIMEOUT_S = 170


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST,
    ]
    result = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        return None
    return os.path.join(target, "release", "pipebench")


def limit_memory():
    resource.setrlimit(
        resource.RLIMIT_AS, (MEMORY_CEILING_BYTES, MEMORY_CEILING_BYTES)
    )


def run_child(binary, workload, seed, seconds, trace, size="full", echo=True):
    """Run one workload.

    Returns the exit status, the parsed result (None if the child died),
    the child's progress lines and the raw result line.
    """
    command = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--size", size,
    ]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv")
        command += ["--spans", spans]
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, preexec_fn=limit_memory,
    )
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        out, err = child.communicate()
    lines = out.splitlines()
    result = None
    if child.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if echo:
        for line in lines if result is None else lines[:-1]:
            print(line)
    progress = [l for l in err.splitlines() if l.startswith("pipebench-progress ")]
    if result is None:
        sys.stderr.write(err)
    return child.returncode, result, progress, lines[-1] if result else None


def crashed_result(status, progress):
    """Failure accounting for a child that died mid-run."""
    attempted = failed = pass_ops = 0
    for line in progress:
        fields = dict(f.split("=", 1) for f in line.split()[1:])
        attempted = int(fields.get("attempted", attempted))
        failed = int(fields.get("failed", failed))
        pass_ops = int(fields.get("pass_ops", pass_ops))
    in_flight = max(pass_ops, 1)
    attempted += in_flight
    failed += in_flight
    print(f"child exited with status {status}: the pass in flight "
          f"({in_flight} operations) is counted as failed")
    print(f"failed_frac = {failed / attempted} ({failed} of {attempted} operations)")
    return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}


def self_test(binary):
    with open(SPEC) as spec_file:
        spec = json.load(spec_file)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            status, result, _, _ = run_child(
                binary, workload, 7, 1, trace, "tiny", echo=False
            )
            if status != 0 or result is None:
                print(f"FAIL {workload} trace={trace}: exit status {status}")
                ok = False
                continue
            problems = []
            if result.get("correct") is not True:
                problems.append("outputs failed their checks")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            metrics = result.get("metrics", {})
            for metric in listed:
                got = metrics.get(metric["name"])
                if got is None:
                    problems.append(f"{metric['name']} missing")
                elif got.get("unit") != metric["unit"]:
                    problems.append(f"{metric['name']} unit {got.get('unit')}")
                elif not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{metric['name']} value {got.get('value')}")
            extra = set(metrics) - {m["name"] for m in listed}
            if extra:
                problems.append(f"unlisted metrics {sorted(extra)}")
            verdict = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {len(listed)} metrics {verdict}")
            ok = ok and not problems
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    binary = build()
    if binary is None:
        print("pipebench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    status, result, progress, raw = run_child(
        binary, args.workload, args.seed, args.seconds, args.trace
    )
    if result is None:
        print(json.dumps(crashed_result(status, progress)))
        return 1
    print(raw)
    return 0


if __name__ == "__main__":
    sys.exit(main())
