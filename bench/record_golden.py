"""Record golden outputs of the workload commands at the current commit.

    python3 bench/record_golden.py 0 1 2

Writes bench/golden/<label>.seed<seed>.csv for every simulate command at
each given --seed offset (pinned commands at their own seed only), and the
PASS check names of `verify all` to bench/golden/verify-all.pass.txt.
Existing files are kept: a golden output is recorded once.
"""

import sys
import time

import outcheck
from run import OUT, cli_argv, run_child
from workloads import GOLDEN_DIR, workloads


def main(argv):
    offsets = [int(a) for a in argv] or [0]
    workdir = OUT / "work" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    commands = {c.label: c for cmds in workloads().values() for c in cmds}
    for cmd in commands.values():
        for offset in sorted({0 if cmd.pinned else o for o in offsets}):
            if cmd.kind == "simulate":
                target = outcheck.golden_csv(cmd.label, cmd.seed(offset))
            else:
                target = GOLDEN_DIR / outcheck.VERIFY_NAMES
            if target.exists():
                continue
            csv = workdir / f"{cmd.label}.csv"
            _, code, _, stdout = run_child(cli_argv(cmd.argv(offset, csv)), workdir / cmd.label,
                                           time.perf_counter() + 600)
            if code != 0:
                sys.exit(f"{cmd.label} at seed {cmd.seed(offset)} exited {code}")
            if cmd.kind == "simulate":
                target.write_text(csv.read_text())
            else:
                target.write_text("\n".join(sorted(outcheck.pass_names(stdout))) + "\n")
            print(f"recorded {target.name}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
