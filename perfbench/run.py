#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source tree.  The executable is built with dune
into the tree's own _build directory; the benchmark's last stdout line
is its JSON result.  A tree without the program's sources fails the
build, and the script then exits non-zero without printing a result.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
OUT = os.path.join(ROOT, "perfbench", "out")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def child_env():
    env = dict(os.environ)
    # Keep dune's shared cache out of the picture: every write stays in
    # the tree.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(OUT, "cache")
    env["PERFBENCH_NPROC"] = str(os.cpu_count() or 0)
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE"] = source_digest()
    return env


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """sha256 over the program's sources, so a result names what it measured
    even in a tree that is not a git checkout."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for f in sorted(filenames):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def build(env):
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project here; run from the root of the source tree",
              file=sys.stderr)
        return False
    os.makedirs(OUT, exist_ok=True)
    try:
        r = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
                           cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def run_exe(args, env):
    """Run the benchmark executable; returns (returncode, stdout)."""
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    return r.returncode, r.stdout


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def self_test(env):
    """The benchmark's own checks: metric presence and units on a small
    pass of every workload, determinism of the simulated metrics, and a
    corrupted native checksum surfacing as a failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []

    def run(workload, seed, trace, extra=()):
        code, out = run_exe(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                             "--trace", str(trace), "--tiny", *extra], env)
        res = result_of(out) if code == 0 else None
        if res is None:
            problems.append(f"{workload} seed {seed} trace {trace}: no result (exit {code})")
        return res

    def expect_metrics(workload, res, wanted):
        got = res["metrics"]
        for m in wanted:
            if m["name"] not in got:
                problems.append(f"{workload}: metric {m['name']} missing")
            elif got[m["name"]]["unit"] != m["unit"]:
                problems.append(f"{workload}: metric {m['name']} has unit "
                                f"{got[m['name']]['unit']}, expected {m['unit']}")

    sim_keys = ("ops_per_s", "speedup", "lat_p50_ms", "lat_p99_ms")
    for w in spec["workloads"]:
        name = w["name"]
        a = run(name, 1, 0)
        t = run(name, 1, 1)
        if a is None or t is None:
            continue
        for res in (a, t):
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{name}: {res['failed']} failed checks on a clean run")
        expect_metrics(name, a, spec["end_to_end"])
        expect_metrics(name, t, spec["per_layer"])
        if name.startswith("sim-"):
            b = run(name, 1, 0)
            c = run(name, 2, 0)
            if b is None or c is None:
                continue
            vals = lambda r: [r["metrics"][k]["value"] for k in sim_keys]
            if vals(a) != vals(b):
                problems.append(f"{name}: simulated metrics differ between two runs of seed 1")
            if vals(a) == vals(c):
                problems.append(f"{name}: simulated metrics identical for seeds 1 and 2")
    bad = run("native-pipe", 1, 0, ("--corrupt-checksum",))
    if bad is not None and (bad["failed"] == 0 or bad["correct"]):
        problems.append("native-pipe: a corrupted checksum did not count as a failure")
    for p in problems:
        print(f"self-test: FAIL {p}")
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main(argv):
    env = child_env()
    if not build(env):
        return 1
    if argv == ["--self-test"]:
        return self_test(env)
    code, out = run_exe(argv, env)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
