#!/usr/bin/env python3
"""Per-layer report: each workload's traced ledger next to the layer map.

    python3 perfbench/report.py [--seed N] [--seconds S] [--rerun]

Reads the records `perfbench/run.py --trace 1` writes
(<build dir>/out/results/<workload>.seed<N>.trace1.json), running the
traced workload first when its record is missing or --rerun is given.
Each row names a per-layer metric, its value, the repo module it measures
and the end-to-end metric it should move on which workload, so a perf
change can cite a row by name.  Rows of layers a workload never enters
print n/a.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run as bench  # noqa: E402  (perfbench/run.py: build dir resolution)

WORKLOADS = ("paper_sweep", "fabric_scale", "task_graph")

# metric name or prefix -> (layer: repo module, end-to-end metric it should
# move, on which workload).  The longest matching prefix wins.
LAYER_MAP = {
    "campaign.": ("core.campaign  src/core/campaign.*",
                  "wall_s on paper_sweep, task_graph (jobs > 1, unequal points); "
                  "no change on fabric_scale (jobs = 1)"),
    "lab.": ("core.lab  src/core/interference_lab.*",
             "point_p50_ms, point_tail_ms on paper_sweep"),
    "fabric.": ("core.fabric  src/core/fabric_lab.*",
                "wall_s, cpu_s, point_tail_ms on fabric_scale"),
    "sim.events": ("sim  engine, event queue, coroutines, pools",
                   "point_p50_ms on paper_sweep"),
    "sim.processes_spawned": ("sim  engine, coroutines", "point_p50_ms on paper_sweep"),
    "sim.flow.": ("sim  flow model, max-min solver",
                  "wall_s on fabric_scale; flow-class aggregation: no change on paper_sweep"),
    "shard.": ("sim.shard  src/sim/shard.*, partition.*",
               "wall_s, cpu_s on fabric_scale only"),
    "net.": ("net  cluster, topology, fabric_graph", "point_p50_ms on fabric_scale"),
    "mpi.": ("mpi  world, pingpong", "point_p50_ms on paper_sweep (eager-bound latency)"),
    "runtime.": ("runtime  src/runtime/*", "wall_s on task_graph only"),
    "obs.": ("obs  tracing cost", "none: traced wall over untraced wall"),
}


def layer_of(metric):
    best = max((p for p in LAYER_MAP if metric.startswith(p)), key=len, default=None)
    return LAYER_MAP.get(best, ("?", "?"))


def record_path(workload, seed, trace):
    return os.path.join(bench.build_dir(), "out", "results",
                        "%s.seed%d.trace%d.json" % (workload, seed, trace))


def load(workload, seed, trace):
    path = record_path(workload, seed, trace)
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--rerun", action="store_true")
    args = ap.parse_args()

    for w in WORKLOADS:
        if args.rerun or load(w, args.seed, 1) is None:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"]
            if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
                sys.exit("perfbench: traced run of %s failed" % w)

    for w in WORKLOADS:
        rec = load(w, args.seed, 1)
        prov = rec["provenance"]
        traced = sum(1 for r in rec["reps"] if r["traced"])
        print("== %s  seed %d  traced reps %d  correct %s  (%d failed of %d)"
              % (w, rec["seed"], traced, rec["correct"], rec["failed"], rec["attempted"]))
        print("   nproc %s  %s %s  %s  jobs %s  shards %s  commit %s"
              % (prov["nproc"], prov["build_type"], prov["cxx_flags"].strip(),
                 prov["compiler"], prov["jobs"], prov["shards"], prov["commit"]))
        e2e = load(w, args.seed, 0)
        if e2e is not None:
            print("   end to end (untraced): " + "  ".join(
                "%s %.4g %s" % (k, v["value"], v["unit"]) for k, v in e2e["metrics"].items())
                  + "  error_rate %.4g" % e2e["error_rate"])
        print("   %-27s %14s %-6s %-42s %s" % ("metric", "value", "unit", "layer", "should move"))
        for name, m in rec["metrics"].items():
            layer, moves = layer_of(name)
            value = "%.6g" % m["value"] if m["applies"] and m["value"] is not None else "n/a"
            print("   %-27s %14s %-6s %-42s %s" % (name, value, m["unit"], layer, moves))
        print()


if __name__ == "__main__":
    main()
