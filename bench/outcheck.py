"""Output checks for the benchmark's commands.

Every output gets the layout and invariant checks. Where a golden output
was recorded for the command's seed, Gaussian CSVs must match it byte for
byte and discrete-alphabet CSVs within DISCRETE_TOL. `verify all` must exit
0 and print exactly the recorded set of PASS check names, which do not
depend on the seed.
"""

import math

from workloads import GOLDEN_DIR

CSV_HEADER = "snr_db,scheme,mi_bits_per_use,stderr,trials"
DISCRETE_TOL = 1e-9
# perfect CSI with K = 2*Nc bounds every scheme per realization, and every
# scheme except the statistical one is nondecreasing in SNR on fixed trials
INVARIANT_TOL = 1e-9
VERIFY_NAMES = "verify-all.pass.txt"


def golden_csv(label, seed):
    return GOLDEN_DIR / f"{label}.seed{seed}.csv"


def parse_csv(text):
    """Rows (snr_db, scheme, mi, stderr, trials) of a simulate CSV; ValueError if malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or wrong CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"bad CSV row {line!r}")
        rows.append((float(parts[0]), parts[1], float(parts[2]), float(parts[3]), int(parts[4])))
    if not rows:
        raise ValueError("CSV has no rows")
    return rows


def pass_names(text):
    """The check names of the PASS lines of `verify` output."""
    return {line.split()[1] for line in text.splitlines() if line.startswith("PASS ")}


def check_invariants(rows):
    problems = []
    for snr, scheme, mi, err, trials in rows:
        if not (math.isfinite(mi) and math.isfinite(err)) or mi < -INVARIANT_TOL or err < 0:
            problems.append(f"{scheme} at {snr:g} dB: mi {mi!r}, stderr {err!r}")
        if trials < 1:
            problems.append(f"{scheme} at {snr:g} dB: trials {trials}")
    by_scheme = {}
    for snr, scheme, mi, _, _ in rows:
        by_scheme.setdefault(scheme, []).append((snr, mi))
    perfect = dict(by_scheme.get("perfect", []))
    for scheme, points in by_scheme.items():
        points.sort()
        for snr, mi in points:
            if snr in perfect and mi > perfect[snr] + INVARIANT_TOL:
                problems.append(f"{scheme} at {snr:g} dB exceeds perfect CSI")
        if not scheme.startswith("statistical"):
            for (s0, m0), (s1, m1) in zip(points, points[1:]):
                if m1 < m0 - INVARIANT_TOL:
                    problems.append(f"{scheme} decreases from {s0:g} to {s1:g} dB")
    return problems


def check_layout(rows, reference):
    """Same (snr, scheme, trials) rows in the same order as the reference."""
    keys = [(r[0], r[1], r[4]) for r in rows]
    if keys != [(r[0], r[1], r[4]) for r in reference]:
        return ["rows, schemes or trial counts differ from the recorded layout"]
    return []


def compare_discrete(rows, golden, tol=DISCRETE_TOL):
    problems = check_layout(rows, golden)
    for row, ref in zip(rows, golden):
        if abs(row[2] - ref[2]) > tol or abs(row[3] - ref[3]) > tol:
            problems.append(f"{row[1]} at {row[0]:g} dB: ({row[2]!r}, {row[3]!r}) "
                            f"vs recorded ({ref[2]!r}, {ref[3]!r})")
    return problems


def compare_exact(text, golden):
    if text == golden:
        return []
    for lineno, (a, b) in enumerate(zip(text.splitlines(), golden.splitlines()), start=1):
        if a != b:
            return [f"line {lineno}: {a!r} != recorded {b!r}"]
    return ["output length differs from the recorded CSV"]


def check_output(cmd, seed, returncode, text):
    """Problems with one command's output; an empty list means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    if cmd.check == "verify":
        lines = text.splitlines()
        problems = [f"not PASS: {line}" for line in lines if not line.startswith("PASS ")]
        expected = set((GOLDEN_DIR / VERIFY_NAMES).read_text().split())
        if pass_names(text) != expected:
            problems.append("PASS check names differ from the recorded set")
        return problems
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [str(exc)]
    problems = check_invariants(rows)
    reference = golden_csv(cmd.label, cmd.base_seed)
    if reference.exists():
        problems += check_layout(rows, parse_csv(reference.read_text()))
    golden = golden_csv(cmd.label, seed)
    if golden.exists():
        if cmd.check == "exact":
            problems += compare_exact(text, golden.read_text())
        else:
            problems += compare_discrete(rows, parse_csv(golden.read_text()))
    return problems
