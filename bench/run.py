"""ldfeedback benchmark: wall time of the CLI on three workloads, plus a traced pass.

    python3 bench/run.py --workload gauss-feedback --seed 0 --seconds 30 --trace 0

With --trace 0 each workload command runs in a fresh child process, one at
a time (a closed loop with one client), pass after pass until --seconds is
used up (at least MIN_PASSES passes), and the end-to-end metrics of
BENCHMARK.json are reported:
wall_s (median seconds per pass), setup_s (median time of a fresh process
to import ldfeedback.cli and build the workload's configs) and peak_rss_mb
(largest max-RSS over the workload's child processes). With --trace 1 the
commands run in one child process through ldfeedback.cli.main, untraced,
traced and untraced again, and the per-layer metrics are reported.

--seed is added to every command's own seed, except for pinned commands;
--seed 0 reproduces the shipped seeds. Every output is checked (see
outcheck.py). The last line printed is the JSON result. Children run with
the checkout's src/ on PYTHONPATH and BLAS pinned to one thread; logs, CSVs
and spans go to .ldbench/ at the root of the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from outcheck import check_output
from workloads import BENCH_DIR, ROOT, workloads

SRC = ROOT / "src"
OUT = ROOT / ".ldbench"
# The matrices are at most 8x8: extra BLAS threads would only add scheduler noise.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PASSES = 2
SETUP_PROBES = 7
# every run, set-up included, must end well inside 180 s
DEADLINE_S = 170.0

SETUP_PROBE = r"""
import sys, time
t0 = time.perf_counter()
import ldfeedback.cli as cli
for path in sys.argv[1:]:
    with open(path) as f:
        cli.build_experiment(cli.parse_config_text(f.read(), path=path))
elapsed = time.perf_counter() - t0
import json, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"setup_s": elapsed, "module": cli.__file__,
                  "numpy": numpy.__version__, "blas": blas}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)


def run_child(argv, log, deadline):
    """(wall s, exit code, max RSS in KiB, stdout) of one child process, killed at `deadline`."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, log.with_suffix(".out").read_text()


def cli_argv(args):
    return [sys.executable, "-m", "ldfeedback.cli", *args]


def measure_setup(commands, workdir, deadline, count=SETUP_PROBES):
    """Setup probe results, one per fresh process."""
    configs = [str(c.config_path()) for c in commands if c.kind == "simulate"]
    probes = []
    for i in range(count):
        _, code, _, text = run_child([sys.executable, "-c", SETUP_PROBE, *configs],
                                     workdir / f"setup{i}", deadline)
        if code != 0:
            raise BenchError(f"setup probe exited {code}; see {workdir / f'setup{i}.err'}")
        probe = json.loads(text.splitlines()[-1])
        if not os.path.realpath(probe["module"]).startswith(os.path.realpath(SRC) + os.sep):
            raise BenchError(f"ldfeedback was imported from {probe['module']}, not from {SRC}")
        probes.append(probe)
    return probes


def measure_passes(commands, offset, seconds, workdir, deadline, result):
    """Run passes until `seconds` is used up, checking every output; fills `result`."""
    walls, first = [], {}
    max_rss = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        runs = []
        for cmd in commands:
            csv = workdir / f"{cmd.label}.csv"
            wall, code, rss, stdout = run_child(cli_argv(cmd.argv(offset, csv)),
                                                workdir / cmd.label, deadline)
            text = csv.read_text() if cmd.kind == "simulate" and code == 0 else stdout
            runs.append((cmd, code, text))
            result.detail.setdefault("command_walls_s", {}).setdefault(cmd.label, []).append(wall)
            max_rss = max(max_rss, rss)
        walls.append(time.perf_counter() - pass_start)
        for cmd, code, text in runs:
            found = check_output(cmd, cmd.seed(offset), code, text)
            if not found and first.setdefault(cmd.label, text) != text:
                found = ["output differs from the first pass"]
            result.count(found, f"pass {len(walls)} {cmd.label}")
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
        if time.perf_counter() + max(walls) > deadline:
            break
    result.detail["pass_walls_s"] = walls
    return walls, max_rss


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ldfeedback").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision():
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args, commands, probe):
    return {
        "workload": args.workload,
        "seed_offset": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one command at a time",
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "blas": probe["blas"],
        "blas_threads": 1,
        "blas_env": BLAS_ENV,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "commands": [{"label": c.label, "seed": c.seed(args.seed), "pinned": c.pinned,
                      "trials_x_snr_points": c.size()} for c in commands],
    }


@dataclass
class Measurement:
    """Metric values of one run, with the outputs it checked."""

    values: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def count(self, found, where):
        """Record one command run and the problems its output check found."""
        self.attempted += 1
        self.failed += bool(found)
        self.problems += [f"{where}: {p}" for p in found]


def end_to_end(args, commands, workdir, deadline):
    result = Measurement()
    probes = measure_setup(commands, workdir, deadline)
    setups = [p["setup_s"] for p in probes]
    walls, max_rss = measure_passes(commands, args.seed, args.seconds, workdir, deadline, result)
    result.values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                     "peak_rss_mb": max_rss / 1024.0}
    result.notes = {
        "wall_s": f"median of {len(walls)} passes, min {min(walls):.4f}, max {max(walls):.4f}",
        "setup_s": f"median of {len(setups)} fresh processes",
        "peak_rss_mb": f"max over {result.attempted} workload processes",
    }
    result.detail["setup_probes_s"] = setups
    return result, probes[0]


def traced(args, commands, workdir, deadline):
    probe = measure_setup(commands, workdir, deadline, count=1)[0]
    result_path = workdir / "trace_result.json"
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    argv = [sys.executable, str(BENCH_DIR / "trace_pass.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir), "--out", str(result_path),
            "--spans", str(spans)]
    _, code, _, _ = run_child(argv, workdir / "trace_pass", deadline)
    if code != 0:
        raise BenchError(f"traced pass exited {code}; see {workdir / 'trace_pass.err'}")
    out = json.loads(result_path.read_text())
    result = Measurement(values=out["metrics"], attempted=out["attempted"], failed=out["failed"],
                         problems=out["problems"])
    result.notes = {
        "trace.overhead_s": f"traced {out['traced_s']:.4f} s - untraced {out['untraced_s']:.4f} s",
        "trace.unattributed_s": f"{out['spans']} spans written to {spans.relative_to(ROOT)}",
    }
    result.detail = {k: out[k] for k in ("untraced_s", "traced_s", "spans")}
    return result, probe


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, default=0, help="offset added to each command's seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()
    try:
        if not (SRC / "ldfeedback" / "cli.py").is_file():
            raise BenchError(f"no ldfeedback sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        commands = workloads()[args.workload]
        workdir = OUT / "work" / f"{args.workload}-trace{args.trace}"
        workdir.mkdir(parents=True, exist_ok=True)
        measure = traced if args.trace else end_to_end
        result, probe = measure(args, commands, workdir, run_start + DEADLINE_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": result.values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        note = f"  ({result.notes[name]})" if name in result.notes else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(f"failed_ratio = {result.failed}/{result.attempted} = {result.failed / result.attempted:.4g}")
    for problem in result.problems:
        print(f"check failed: {problem}")
    record = run_record(args, commands, probe)
    record.update(result.detail, metrics=metrics, attempted=result.attempted, failed=result.failed,
                  problems=result.problems)
    record_path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print("run record: " + json.dumps({k: v for k, v in record.items()
                                       if k not in ("metrics", "problems")}))
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
