"""Seeded WorkloadSpec generator for the large_spmd workload.

Each spec is a synthetic SPMD program of tens of ranks and dozens of
functions, with bottlenecks injected by construction:

  * hot functions: a compute kernel that is heavy on one subset of ranks;
  * sync-wait imbalance: the ranks outside that subset wait for it in the
    halo exchange that follows;
  * periodic I/O: a checkpoint every few iterations;
  * slow nodes: a few machine nodes run at a fraction of nominal speed.

Next to the spec goes a manifest: the (hypothesis, focus) pairs the
Performance Consultant must report for each injected bottleneck. Every
magnitude is chosen so the injected pair sits well above the 20% default
threshold, and filler kernels stay well below it.

Only random.Random(seed).random() is used (its sequence is fixed across
Python 3 versions), and every float is rounded before it is written, so
the same seed always gives the same bytes.

Run `python3 specgen.py SEED OUT_DIR` to write the specs and manifests.
"""

import json
import os
import random
import sys

SPECS_PER_SEED = 3
CPU = "CPUbound"
SYNC = "ExcessiveSyncWaitingTime"
IO = "ExcessiveIOBlockingTime"
# Virtual seconds per unit of step cost: long enough runs for the search to
# refine down to the injected functions and nodes before the trace ends.
TIME_SCALE = 4.0
RANKS = (24, 28, 32)
PATTERNS = ("ring", "pairs", "butterfly")


def _focus(code="/Code", machine="/Machine", process="/Process"):
    return "<%s,%s,%s,/SyncObject>" % (code, machine, process)


class _Draw:
    """Small helpers over random() only, so the stream never depends on
    the library's integer or choice algorithms."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self._rng.random()

    def below(self, n):
        return min(int(self._rng.random() * n), n - 1)

    def pick(self, items):
        return items[self.below(len(items))]


def _r(x):
    return round(x, 6)


def make_spec(seed, index):
    """One spec and its manifest, a pure function of (seed, index)."""
    d = _Draw(seed * 1000003 + index)
    name = "spmd%d_%d" % (seed, index)
    # The shape — and so the work of one op — depends on the index only;
    # the seed places and sizes the bottlenecks.
    ranks = RANKS[index % len(RANKS)]
    pattern = PATTERNS[index % len(PATTERNS)]
    iterations = 920
    n_filler = 22
    n_modules = 6

    body = []
    # Filler kernels: many small functions over several modules, each well
    # below the threshold on its own.
    for k in range(n_filler):
        body.append({
            "op": "compute",
            "seconds": _r(TIME_SCALE * d.uniform(0.0015, 0.0025)),
            "function": "kern%02d" % k,
            "module": "mod%d.c" % (k % n_modules),
        })

    # Hot function: heavy on a contiguous block of ranks (two fifths of
    # them), light elsewhere. Its whole-program share stays above the
    # threshold; the light ranks then wait for the heavy block.
    hot_ranks = (2 * ranks) // 5
    start = d.below(ranks)
    hot_set = {(start + i) % ranks for i in range(hot_ranks)}
    hot_seconds = _r(TIME_SCALE * d.uniform(0.72, 0.78))
    body.append({
        "op": "compute",
        "seconds": hot_seconds,
        "function": "hot_solve",
        "module": "hot.c",
        "factors": [1.0 if r in hot_set else 0.05 for r in range(ranks)],
    })
    # The halo exchange where the light ranks wait for the heavy ones.
    body.append({
        "op": "exchange",
        "pattern": pattern,
        "tag": 1,
        "bytes": d.pick([4096, 16384, 65536]),
        "function": "halo",
        "module": "comm.c",
    })
    body.append({"op": "allreduce", "bytes": 8, "function": "norm", "module": "comm.c"})
    # Periodic I/O: a checkpoint every few iterations, heavy enough that
    # its time-averaged share clears the threshold.
    every = 2
    body.append({
        "op": "io",
        "seconds": _r(TIME_SCALE * every * d.uniform(0.32, 0.36)),
        "every": every,
        "function": "checkpoint",
        "module": "io.c",
    })

    # Slow nodes: two nodes of the light ranks at 18-22% speed. They stay
    # off the critical path, so the other injected bottlenecks keep their
    # share, but their CPU share is about twice that of the other light
    # ranks and clears the threshold.
    speeds = [1.0] * ranks
    light = [r for r in range(ranks) if r not in hot_set]
    slow = sorted({d.pick(light), d.pick(light)})
    for r in slow:
        speeds[r] = _r(d.uniform(0.18, 0.22))

    spec = {
        "name": name,
        "ranks": ranks,
        "iterations": iterations,
        "machine": {"node_prefix": "node", "process_prefix": name, "speeds": speeds},
        "network": {"latency": 4e-05, "bandwidth": 90000000.0, "eager_limit": 16384},
        "body": body,
    }
    injected = [
        {"kind": "hot_function", "hypothesis": CPU,
         "focus": _focus(code="/Code/hot.c")},
        {"kind": "sync_imbalance", "hypothesis": SYNC,
         "focus": _focus(code="/Code/comm.c")},
        {"kind": "periodic_io", "hypothesis": IO,
         "focus": _focus(code="/Code/io.c")},
    ]
    for r in slow:
        injected.append({"kind": "slow_node", "hypothesis": CPU,
                         "focus": _focus(machine="/Machine/node%02d" % (r + 1))})
    return spec, {"name": name, "injected": injected}


def write_specs(seed, out_dir):
    """Write spec_<i>.json and manifest_<i>.json for each spec; returns the
    list of (spec_path, manifest_path)."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i in range(SPECS_PER_SEED):
        spec, manifest = make_spec(seed, i)
        spec_path = os.path.join(out_dir, "spec_%d.json" % i)
        manifest_path = os.path.join(out_dir, "manifest_%d.json" % i)
        for path, doc in ((spec_path, spec), (manifest_path, manifest)):
            with open(path, "w") as f:
                f.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        paths.append((spec_path, manifest_path))
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: specgen.py SEED OUT_DIR")
    for spec_path, manifest_path in write_specs(int(sys.argv[1]), sys.argv[2]):
        print(spec_path, manifest_path)
