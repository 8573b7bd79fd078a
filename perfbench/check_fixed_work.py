#!/usr/bin/env python3
"""Fixed-work check for the end-to-end benchmark.

Runs every workload (or the ones named on the command line) twice at one
seed with --trace 1 and fails unless both runs did exactly the same work:
the same training epochs, backward ops and kernel calls, the same mutation
batches, refreshed rows, compactions, halo rows and deltas, the same number
of scheduled arrivals, and the same prediction digest. A slower build can
therefore never look faster by doing less.

Usage, from the repository root:

    python3 perfbench/check_fixed_work.py [--seed N] [workload ...]
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("search", "serve-tenants", "serve-partitioned")

# Per-layer metrics that count work rather than time it.
EXACT = [
    "tasks.train_epochs.kdd", "tasks.train_epochs.arxiv",
    "autodiff.backward_ops.kdd", "autodiff.backward_ops.arxiv",
    "fabric.scheduled_arrivals", "fabric.routed",
    "dyn.batches", "dyn.mutations_applied", "dyn.rows_refreshed",
    "dyn.full_refreshes", "dyn.compactions",
    "partition.halo_rows_exchanged", "partition.deltas_applied",
    "dyn.delta_spmm_rows_calls",
]
for _suffix in (".kdd", ".arxiv"):
    for _op in ("matmul", "matmul_ta", "matmul_tb", "spmm", "row_softmax"):
        EXACT.append("tensor.%s_calls%s" % (_op, _suffix))


def run_once(root, workload, seed):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "10",
           "--trace", "1"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s run failed with exit code %d" %
                           (workload, proc.returncode))
    digest = [l for l in lines if l.startswith("perfbench-digest:")]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s run reported incorrect output" % workload)
    return digest, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    ok = True
    for workload in args.workloads:
        first_digest, first = run_once(root, workload, args.seed)
        second_digest, second = run_once(root, workload, args.seed)
        if first_digest != second_digest:
            print("%s: digest differs: %s vs %s" %
                  (workload, first_digest, second_digest))
            ok = False
        for name in EXACT:
            if first.get(name) != second.get(name):
                print("%s: %s differs: %s vs %s" %
                      (workload, name, first.get(name), second.get(name)))
                ok = False
        counted = {n: first.get(n) for n in EXACT if first.get(n)}
        print("%s: %s" % (workload, json.dumps(counted, sort_keys=True)))
    print("fixed work: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
