"""The benchmark's workloads: which ldfeedback commands a pass runs, and at which seed.

A workload pass runs its commands one after another, each to completion
(a closed loop with one client). The benchmark's --seed is an offset added
to each command's own seed, so --seed 0 reproduces the shipped seeds.
"""

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG_DIR = BENCH_DIR / "configs"
GOLDEN_DIR = BENCH_DIR / "golden"

# ldfeedback.verify.DEFAULT_SEED when the golden outputs were recorded; kept
# here so that run.py itself never imports the package it measures.
VERIFY_SEED = 20180417


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload pass."""

    label: str
    kind: str  # "simulate" or "verify"
    check: str  # "exact", "discrete" or "verify"
    base_seed: int
    config: str = None  # for simulate: file name under CONFIG_DIR, or an absolute path
    pinned: bool = False  # run at base_seed whatever the offset

    def seed(self, offset):
        return self.base_seed if self.pinned else self.base_seed + offset

    def config_path(self):
        return CONFIG_DIR / self.config

    def argv(self, offset, output):
        """Arguments after `ldfeedback`; simulate writes its CSV to `output`."""
        if self.kind == "simulate":
            return ["simulate", str(self.config_path()), "-o", str(output),
                    "--seed", str(self.seed(offset))]
        return ["verify", "all", "--seed", str(self.seed(offset))]

    def size(self):
        """Trials x SNR points, as 'trials x points', or None for verify."""
        if self.kind != "simulate":
            return None
        values = read_config(self.config_path())
        points = len([t for t in values["snr_db"].split(",") if t.strip()])
        return f"{values['trials']}x{points}"


def read_config(path):
    """key -> value of a flat `key = value` config, comments dropped."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if "=" in line:
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _simulate(config, pinned=False):
    values = read_config(CONFIG_DIR / config)
    # only the Gaussian kernel is closed form, so only its CSVs are byte-exact
    check = "exact" if values.get("constellation", "gaussian") == "gaussian" else "discrete"
    return Command(label=config.rsplit(".", 1)[0], kind="simulate", check=check,
                   base_seed=int(values["seed"]), config=config, pinned=pinned)


def workloads():
    """Workload name -> the commands of one pass, in run order."""
    return {
        "gauss-feedback": [
            _simulate("gauss_iid2x2.cfg"),
            _simulate("gauss_iid4x4.cfg"),
            _simulate("gauss_v4.cfg"),
        ],
        "discrete-feedback": [
            _simulate("iid4x4_bpsk.cfg"),
            _simulate("iid4x4_bpsk_stat.cfg", pinned=True),
            _simulate("iid2x2_pam4.cfg"),
        ],
        "verify-all": [
            Command(label="verify-all", kind="verify", check="verify", base_seed=VERIFY_SEED),
        ],
    }
