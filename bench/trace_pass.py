"""Traced pass: run a workload's commands in this process through ldfeedback.cli.main.

Passes run untraced, traced, untraced. Writes the per-layer metrics of
BENCHMARK.json, the pass walls and the output checks as JSON to --out, and
the spans to --spans. run.py starts this script with the checkout's src/
on PYTHONPATH and BLAS pinned to one thread:

    python3 bench/trace_pass.py --workload verify-all --workdir w --out r.json --spans s.csv.gz
"""

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

from ldfeedback import cli

import outcheck
from spantrace import Tracer, layer_metric
from workloads import ROOT, workloads


def run_pass(commands, offset, workdir):
    """Wall seconds of one pass, and (command, exit code, output text) per command."""
    captured = []
    start = time.perf_counter()
    for cmd in commands:
        out = workdir / f"{cmd.label}.csv"
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(cmd.argv(offset, out))
        except Exception:  # a crash in one command must not hide the others
            traceback.print_exc()
            code = -1
        captured.append((cmd, code, out, stdout.getvalue()))
    wall = time.perf_counter() - start
    results = []
    for cmd, code, out, text in captured:
        if cmd.kind == "simulate":
            text = out.read_text() if code == 0 else ""
        results.append((cmd, code, text))
    return wall, results


def traced_pass(commands, offset, workdir):
    """(untraced wall, traced wall, tracer, problems, commands run, commands failed).

    Runs untraced, traced, untraced: the first pass warms the process up,
    so the traced pass is compared with the second untraced one.
    """
    _, warmup = run_pass(commands, offset, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_results = run_pass(commands, offset, workdir)
    finally:
        tracer.uninstall()
    untraced, results = run_pass(commands, offset, workdir)
    problems, failed, attempted = [], 0, 0
    for runs in zip(warmup, traced_results, results):
        for cmd, code, text in runs:
            found = outcheck.check_output(cmd, cmd.seed(offset), code, text)
            if not found and text != runs[0][2]:
                found = ["output differs from the first in-process pass"]
            problems += [f"{cmd.label}: {p}" for p in found]
            attempted += 1
            failed += bool(found)
    return untraced, traced, tracer, problems, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    untraced, traced, tracer, problems, attempted, failed = traced_pass(
        workloads()[args.workload], args.seed, workdir)
    layers = tracer.layers()
    metrics = {}
    for name in (m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]):
        if name == "trace.unattributed_s":
            metrics[name] = traced - tracer.top_level_s()
        elif name == "trace.overhead_s":
            metrics[name] = traced - untraced
        else:
            metrics[name] = layer_metric(layers, name)
    tracer.write(args.spans)
    with open(args.out, "w") as f:
        json.dump({"metrics": metrics, "untraced_s": untraced, "traced_s": traced,
                   "spans": len(tracer.start), "attempted": attempted,
                   "failed": failed, "problems": problems}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
