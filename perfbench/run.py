#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of hbn_cli place, simulate and serve.

Run from the root of a checkout:

    python3 perfbench/run.py --workload place-zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list        # workloads and metrics, by name and unit
    python3 perfbench/run.py --self-test   # exact metrics repeat; held-out seed is clean

One run builds hbn_cli and the in-process probe with dune, then:

  * runs the probe once (perfbench/probe): the command's library calls
    untraced for its results, peak heap and allocation, several timed
    set-ups, and with --trace 1 traced repeats for half the time;
  * for the remaining time, runs the built hbn_cli command at --jobs 1,
    alternating a plain run with a --timings run, timing each from the
    outside and checking its stdout against the probe's results.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones. Earlier lines give provenance (host, OCaml,
source revision, seed, sample counts) and, when traced, the share of the
operation that no program span covers.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI = os.path.join(ROOT, "_build", "default", "bin", "hbn_cli.exe")
PROBE = os.path.join(ROOT, "_build", "default", "perfbench", "probe", "probe.exe")
REFERENCE = os.path.join(ROOT, "_build", "default", "perfbench", "probe", "reference.exe")

# A shared host can speed up and slow down by a third over minutes, as
# other tenants come and go. Each run therefore also times a fixed
# reference program (perfbench/probe/reference.ml, none of the
# repository's code) between the commands, and scales every end-to-end
# timing to a host on which that program takes REFERENCE_S seconds.
REFERENCE_S = 0.4

# Every workload is one hbn_cli command on a balanced arity-4 tree of
# bandwidth 2, run sequentially.
COMMON = ["--kind", "balanced", "--arity", "4", "--bandwidth", "2", "--jobs", "1"]
WORKLOADS = {
    "place-zipf": ["place", "--height", "6", "--workload", "zipf", "--objects", "64"],
    "place-hotspot": ["place", "--height", "6", "--workload", "hotspot", "--objects", "16"],
    "simulate-zipf": ["simulate", "--height", "4", "--workload", "zipf",
                      "--objects", "64", "--scale", "4"],
    "serve-migration": ["serve", "--height", "5", "--drift", "hotspot_migration"],
}

# Instances per run, more where one instance's cost or congestion
# depends most on its seed and a command is cheap enough to repeat.
INSTANCES = {"place-zipf": 4, "place-hotspot": 2, "simulate-zipf": 8,
             "serve-migration": 3}
# Set-up is timed in processes of its own: its time moves more from
# process to process than from one repeat to the next.
SETUP_PROCESSES = 8
SETUP_REPS = 6
HELD_OUT_SEED = 9001

# Per-layer metrics: name -> (unit, layer). Counts and allocation repeat
# exactly; *.self_frac is the layer's Report self time as a share of the
# traced operation (multiply by obs.traced_op_s for seconds).
SELF_LAYERS = {
    "tree.build": "tree", "tree.flat": "tree",
    "workload.generate": "workload", "workload.flat": "workload",
    "strategy.run": "core", "strategy.nibble": "nibble",
    "strategy.deletion": "core", "strategy.mapping": "core",
    "placement.evaluate": "placement", "lower_bounds.combined": "exact",
    "certificates.check_all": "core", "sim.run": "sim",
    "sim.lower_bound": "sim", "dist.strategy_rounds": "dist",
    "serve.run": "serve",
}
COUNTS = {
    "workload.requests": "workload", "strategy.copies": "core",
    "strategy.splits": "core", "strategy.deletions": "core",
    "strategy.tau_max": "core", "mapping.moves_up": "core",
    "mapping.moves_down": "core", "placement.assigns": "placement",
    "sim.packets": "sim", "sim.transmissions": "sim", "sim.max_dilation": "sim",
    "sim.makespan_rounds": "sim", "dist.rounds": "dist", "dist.messages": "dist",
    "serve.requests": "serve", "serve.reoptimized_epochs": "serve",
    "serve.alerts": "serve", "serve.moves": "serve", "serve.bytes_migrated": "serve",
}
ALLOCS = {"strategy.run": "core", "certificates.check_all": "core",
          "sim.run": "sim", "serve.run": "serve"}
PER_LAYER = (
    {f"{n}.self_frac": ("frac", layer) for n, layer in SELF_LAYERS.items()}
    | {n: ("count", layer) for n, layer in COUNTS.items()}
    | {f"{n}.alloc_mwords": ("Mwords", layer) for n, layer in ALLOCS.items()}
    | {
        "lower_bounds.combined.calls": ("count", "exact"),
        "sim.queue_depth.max": ("count", "event"),
        "loads.of_copies_s": ("s", "loads"),
        "attribution.attach_s": ("s", "obs"),
        "loads.proposal_ns": ("ns", "loads"),
        "obs.traced_op_s": ("s", "obs"),
        "obs.uncovered_frac": ("frac", "obs"),
        "obs.trace_overhead_frac": ("frac", "obs"),
    }
)
END_TO_END = {
    "setup_s": "s", "wall_p50_s": "s", "traced_wall_p50_s": "s",
    "top_heap_mb": "MiB", "congestion": "load/bw", "lb_ratio": "ratio",
    "ok_frac": "frac",
}
# Metrics that must read the same on every run with the same seed.
EXACT = (
    {"top_heap_mb", "congestion", "lb_ratio", "ok_frac",
     "lower_bounds.combined.calls", "sim.queue_depth.max"}
    | set(COUNTS) | {f"{n}.alloc_mwords" for n in ALLOCS}
)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds hbn_cli and the probe from source; exits on failure."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./bin/hbn_cli.exe", "./perfbench/probe/probe.exe",
         "./perfbench/probe/reference.exe"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0 or not all(map(os.path.isfile, (CLI, PROBE, REFERENCE))):
        log("build failed")
        sys.exit(1)


def source_rev():
    """The git revision when there is one, and a digest of the sources."""
    git = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git = rev.stdout.strip() if rev.returncode == 0 else None
    digest = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".py")) or f in ("dune", "dune-project"):
                    path = os.path.join(d, f)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return git, digest.hexdigest()[:16]


def run_probe(*args):
    proc = subprocess.run([PROBE] + [str(a) for a in args],
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli(args, expect):
    """Times one command from the outside; returns (seconds, problem)."""
    t0 = time.perf_counter()
    proc = subprocess.run([CLI] + args, capture_output=True, text=True, timeout=150)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return elapsed, f"exit {proc.returncode}: {proc.stderr.strip()[:200]}"
    missing = [e.splitlines()[0] for e in expect if e not in proc.stdout]
    return elapsed, (f"output lacks: {missing[0]!r}" if missing else None)


def run_reference():
    t0 = time.perf_counter()
    subprocess.run([REFERENCE], capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t0


def mean(xs):
    return sum(xs) / len(xs)


def measure(workload, seed, seconds, trace):
    attempted = failed = 0
    problems = []

    def fail(what):
        nonlocal failed
        failed += 1
        problems.append(what)

    # A run measures several instances drawn from the seed, so that one
    # instance's cost or congestion does not set the run's figures.
    k = INSTANCES[workload]
    seeds = [seed * k + i for i in range(k)]
    probe_seconds = seconds / 2 if trace else 0.0
    probes = []
    for s in seeds:
        attempted += 1
        try:
            probe = run_probe(workload, s, probe_seconds / k)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            log(f"{workload}: probe failed: {e}")
            sys.exit(1)
        for p in probe["problems"]:
            fail(f"in-process, seed {s}: {p}")
        if len(set(probe["lb_calls"])) > 1 or len(set(probe["queue_depth_max"])) > 1:
            fail(f"traced repeats of seed {s} disagree on exact counts")
        probes.append(probe)
    refs = [run_reference()]
    try:
        setups = [x for i in range(SETUP_PROCESSES) for x in run_probe(
            "setup", workload, seeds[i % k], SETUP_REPS)["setup_s"]]
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"{workload}: set-up probe failed: {e}")
        sys.exit(1)

    def cli_args(s):
        args = WORKLOADS[workload] + COMMON + ["--seed", str(s)]
        return args + (["--serve-seed", str(s)] if workload.startswith("serve") else [])

    walls = [{False: [], True: []} for _ in seeds]
    budget = seconds - probe_seconds
    t0 = time.perf_counter()
    # Pairs of runs cycle through the instances until the time is spent,
    # at least one pair for each instance.
    pairs = 0
    while pairs < k or time.perf_counter() - t0 < budget:
        i = pairs % k
        refs.append(run_reference())
        # Alternate which of an instance's pair runs first, so slow drift
        # of the host hits both the same.
        order = (False, True) if pairs // k % 2 == 0 else (True, False)
        for timings in order:
            attempted += 1
            try:
                wall, problem = run_cli(
                    cli_args(seeds[i]) + (["--timings"] if timings else []),
                    probes[i]["expect"])
            except subprocess.TimeoutExpired:
                fail(f"seed {seeds[i]}: command timed out")
                continue
            if problem:
                fail(f"seed {seeds[i]}: {problem}")
            else:
                walls[i][timings].append(wall)
        pairs += 1
    for p in problems[:5]:
        log(f"{workload}: FAILED {p}")
    if not all(w[False] and w[True] for w in walls):
        log(f"{workload}: an instance had no successful command run")
        sys.exit(1)

    def pooled(key):
        return [x for p in probes for x in p[key]]

    refs.append(run_reference())
    scale = REFERENCE_S / statistics.median(refs)
    raw = {
        "setup_s": statistics.median(setups),
        "wall_p50_s": mean([statistics.median(w[False]) for w in walls]),
        "traced_wall_p50_s": mean([statistics.median(w[True]) for w in walls]),
    }
    e2e = {
        **{k: v * scale for k, v in raw.items()},
        "top_heap_mb": mean([p["top_heap_mb"] for p in probes]),
        "congestion": mean([p["congestion"] for p in probes]),
        "lb_ratio": mean([p["congestion"] / p["bound"] for p in probes]),
        "ok_frac": (attempted - failed) / attempted,
    }
    samples = {"instances": k, "pairs": pairs, "reference": len(refs),
               "wall": sum(len(w[False]) for w in walls),
               "traced_wall": sum(len(w[True]) for w in walls),
               "setup": len(setups), "traced_op": len(pooled("op_s"))}
    layer = {}
    if trace:
        for name in SELF_LAYERS:
            layer[f"{name}.self_frac"] = statistics.median(
                [x for p in probes for x in p["self_frac"][name]])
        for name in COUNTS:
            layer[name] = mean([p["counts"].get(name, 0) for p in probes])
        for name in ALLOCS:
            layer[f"{name}.alloc_mwords"] = mean(
                [p["alloc_mwords"].get(name, 0.0) for p in probes])
        layer["lower_bounds.combined.calls"] = mean([p["lb_calls"][0] for p in probes])
        layer["sim.queue_depth.max"] = mean([p["queue_depth_max"][0] for p in probes])
        for name in ("loads.of_copies_s", "attribution.attach_s", "loads.proposal_ns"):
            layer[name] = statistics.median(pooled(name))
        layer["obs.traced_op_s"] = mean([statistics.median(p["op_s"]) for p in probes])
        layer["obs.uncovered_frac"] = statistics.median(pooled("uncovered_frac"))
        layer["obs.trace_overhead_frac"] = (
            raw["traced_wall_p50_s"] / raw["wall_p50_s"] - 1)
    provenance = {
        "cores": os.cpu_count(),
        "recommended_domain_count": probes[0]["recommended_domain_count"],
        "ocaml": probes[0]["ocaml"],
        "seed": seed,
        "samples": samples,
        "reference_p50_s": statistics.median(refs),
        "unscaled": raw,
    }
    return attempted, failed, e2e, layer, provenance


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def list_metrics():
    spec = declared()
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:<16} {w['why']}")
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<20} {m['unit']:<8} {m['better']} is better, bound {m['bound']}")
    print("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        layer = PER_LAYER.get(m["name"], ("?", "?"))[1]
        print(f"  {m['name']:<36} {m['unit']:<8} {m['better']:<7} layer {layer}")


def self_test():
    """Exact metrics repeat across runs; a held-out seed yields every metric."""
    spec = declared()
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True

    def run(workload, seed, trace):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=180)
        return json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None

    for workload in WORKLOADS:
        for trace in (0, 1):
            a, b, held = run(workload, 1, trace), run(workload, 1, trace), run(
                workload, HELD_OUT_SEED, trace)
            if None in (a, b, held):
                print(f"FAIL {workload} trace {trace}: a run failed")
                ok = False
                continue
            for name in sorted(EXACT & set(want[trace])):
                if a["metrics"][name] != b["metrics"][name]:
                    print(f"FAIL {workload}: {name} differs across runs: "
                          f"{a['metrics'][name]} vs {b['metrics'][name]}")
                    ok = False
            got = {k: v["unit"] for k, v in held["metrics"].items()}
            if got != want[trace] or held["failed"] != 0 or not held["correct"]:
                print(f"FAIL {workload} trace {trace}: held-out seed {HELD_OUT_SEED}"
                      f" gave {len(got)} metrics, {held['failed']} failed")
                ok = False
            else:
                print(f"ok   {workload} trace {trace}: exact metrics repeat, "
                      f"seed {HELD_OUT_SEED} clean")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    opts = ap.parse_args()

    if not all(os.path.isfile(os.path.join(ROOT, f))
               for f in ("dune-project", "bin/hbn_cli.ml", "BENCHMARK.json")):
        log(f"{ROOT} is not a checkout of the repository")
        sys.exit(2)
    if opts.list:
        list_metrics()
        return
    build()
    if opts.self_test:
        sys.exit(0 if self_test() else 1)
    if opts.workload is None:
        ap.error("--workload is required")

    attempted, failed, e2e, layer, provenance = measure(
        opts.workload, opts.seed, opts.seconds, opts.trace == 1)
    provenance["git_rev"], provenance["source_digest"] = source_rev()
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    if opts.trace:
        print(f"coverage: {opts.workload}: "
              f"{100 * layer['obs.uncovered_frac']:.1f}% of the traced operation "
              f"lies in no program span")
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
