"""The HistPC benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload tuning_loop --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds the runner (perfbench/, which
compiles the library sources under src/) into .bench_build/, runs the
workload and prints, as its last stdout line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 prints the end-to-end
metrics; --trace 1 runs the same workload with spans around every module
call and prints the per-layer metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)

import report  # noqa: E402
import specgen  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("tuning_loop", "large_spmd", "serve_mixed")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the runner; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("HistPC sources not found: expected src/ next to perfbench/")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target", "histpc_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "histpc_perfbench")


def build_type(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_root = os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(bench_root, "cmake")
    try:
        runner = build(build_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    work = os.path.join(bench_root, "work", "%s-%d-%d-%d"
                        % (args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", work, "--out", os.path.join(work, "raw.json")]
        if args.workload == "large_spmd":
            specs = os.path.join(work, "specs")
            specgen.write_specs(args.seed, specs)
            cmd += ["--specs", specs]
        started = time.monotonic()
        proc = subprocess.run(cmd, timeout=args.seconds + 140)
        if proc.returncode != 0:
            log("perfbench: runner exited with %d" % proc.returncode)
            return 3
        log("perfbench: runner took %.1f s" % (time.monotonic() - started))
        with open(os.path.join(work, "raw.json")) as f:
            raw = json.load(f)

        print("stamp: workload=%s seed=%d seconds=%g trace=%d nproc=%d compiler=%s "
              "build_type=%s build=%s"
              % (args.workload, args.seed, args.seconds, args.trace, os.cpu_count() or 1,
                 raw["compiler"].replace(" ", "_"), build_type(build_dir), raw["build"]))
        for note in raw["failure_notes"]:
            print("failure: " + note)
        correct = raw["failed"] == 0
        if args.trace:
            values = report.per_layer(raw, read_spans(os.path.join(work, "spans.jsonl")))
            names = report.per_layer_names()
        else:
            values, notes, floor_ok = report.end_to_end(raw)
            for note in notes:
                print(note)
            correct = correct and floor_ok
            names = report.END_TO_END
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
        print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                          "failed": int(raw["failed"]), "metrics": metrics}))
        return 0
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
