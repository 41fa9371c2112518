"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo experiments
(criteria 2/3) share one trial batch per channel so every scheme sees common
random numbers.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from ldfeedback import cli, verify
from ldfeedback.channel import iid_model, v4_model
from ldfeedback.dispersion import rank_one_set
from ldfeedback.infotheory import LN2, Constellation, MiEvaluator, block_mi
from ldfeedback.matkit import Rng, hermitian_eig
from ldfeedback.simengine import (
    SimConfig,
    best_rank_one_codebook,
    draw_ind_column_powers,
    draw_trials,
    default_unitaries,
    optimize_lambda,
    rank_two_tournament,
    run,
    scheme_block_mi,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GRID = [float(x) for x in range(0, 21, 2)]
TRIALS = 2000


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _experiment(name):
    model, seed = {
        "iid2x2": (iid_model(2, 2), 20210),
        "iid4x4": (iid_model(4, 4), 20211),
        "v4": (v4_model(), 20212),
    }[name]
    return SimConfig(
        model=model,
        snr_grid_db=GRID,
        trials=TRIALS,
        seed=seed,
        constellation=Constellation.gaussian(),
        k=model.nt,
        nc=model.nt,
        schemes=["perfect"],
        opt_samples=5000,
    )


@pytest.fixture(scope="session")
def experiments():
    """Rank-one vs rank-two tournaments for all channels and both B = 2 splits."""
    out = {}
    for name in ("iid2x2", "iid4x4", "v4"):
        config = _experiment(name)
        batch = draw_trials(config.model, config.trials, config.seed)
        perfect = scheme_block_mi(config, "perfect", batch)
        entry = {"config": config, "batch": batch, "perfect": perfect, "splits": {}}
        for n1, n2 in ((4, 1), (2, 2)):
            unitaries = default_unitaries(config, n1)
            cb, rank1 = best_rank_one_codebook(config, 2, n1, n2,
                                               unitaries=unitaries, batch=batch)
            rank2, _ = rank_two_tournament(config, 2, n1, n2, 50,
                                           unitaries=unitaries, batch=batch)
            quant_rows = scheme_block_mi(config, ("quantized", "q", cb), batch)
            entry["splits"][(n1, n2)] = {
                "rank1": rank1, "rank2": rank2, "rank1_rows": quant_rows,
            }
        out[name] = entry
    return out


@pytest.fixture(scope="session")
def envelope_2x2(experiments):
    """Statistical lower bound for the 2x2 i.i.d. experiment."""
    config = _experiment("iid2x2")
    batch = experiments["iid2x2"]["batch"]
    return scheme_block_mi(config, "statistical", batch)


def test_criterion_01_perfect_csi_closed_form():
    ev = MiEvaluator(Constellation.gaussian())
    worst = 0.0
    for nt in (2, 4):
        nc, k = nt, 2 * nt
        batch = draw_trials(iid_model(nt, nt), 300, 90000 + nt)
        eig = hermitian_eig(np.swapaxes(batch.h.conj(), -1, -2) @ batch.h)
        covs = np.array([rank_one_set(v, k, nc).covariances() for v in eig.vectors[:, :, 0]])
        for snr in GRID:
            rho = 10.0 ** (snr / 10.0)
            via_set = block_mi(batch.h, covs, rho, nt, ev) / (nc * LN2)
            closed = np.log2(1.0 + rho * eig.values[:, 0])
            positive = closed > 0
            if positive.any():
                rel = np.abs(via_set - closed)[positive] / closed[positive]
                worst = max(worst, float(rel.max()))
    _report(1, worst <= 1e-9,
            f"dispersion-set path vs closed form, worst relative error {worst:.3e}")


def test_criterion_02_rank_one_beats_rank_two(experiments):
    worst = np.inf
    where = ""
    for name, entry in experiments.items():
        for split, data in entry["splits"].items():
            for p1, p2 in zip(data["rank1"], data["rank2"]):
                pooled = math.hypot(p1.stderr, p2.stderr)
                slack = (p1.mi_bits_per_use - p2.mi_bits_per_use) / pooled if pooled else 0.0
                if slack < worst:
                    worst = slack
                    where = f"{name} split {split} at {p1.snr_db:g} dB"
    _report(2, worst >= -1.0,
            f"best rank-one vs best-of-50 rank-two, worst margin {worst:.2f} pooled stderr ({where})")


def test_criterion_03_envelope(experiments, envelope_2x2):
    # quantized <= perfect holds per trial exactly, on every channel
    worst_pt = -np.inf
    for entry in experiments.values():
        for data in entry["splits"].values():
            worst_pt = max(worst_pt, float((data["rank1_rows"] - entry["perfect"]).max()))
    # statistical <= quantized in the mean within 3 stderr on the 2x2 case
    config = _experiment("iid2x2")
    stat_bits = envelope_2x2 / (config.nc * LN2)
    rank1 = experiments["iid2x2"]["splits"][(4, 1)]["rank1"]
    worst_gap = -np.inf
    for idx, point in enumerate(rank1):
        stat_mean = stat_bits[idx].mean()
        stat_se = stat_bits[idx].std(ddof=1) / math.sqrt(stat_bits.shape[1])
        margin = (stat_mean - point.mi_bits_per_use) / math.hypot(stat_se, point.stderr)
        worst_gap = max(worst_gap, margin)
    ok = worst_pt <= 1e-9 and worst_gap <= 3.0
    _report(3, ok,
            f"per-trial quantized-minus-perfect max {worst_pt:.3e}; "
            f"statistical-over-quantized worst margin {worst_gap:.2f} stderr")


def test_criterion_04_rank_one_strong_optimality():
    results = verify.suite_thm4(realizations=1000, competitors=20)
    ok = all(r.passed for r in results)
    _report(4, ok, "; ".join(r.line() for r in results))


def test_criterion_05_mi_gap_below_snr_gap():
    results = verify.suite_lemma1(realizations=10000)
    ok = all(r.passed for r in results)
    _report(5, ok, "; ".join(r.line() for r in results))


def test_criterion_06_prop3_brute_force():
    results = verify.suite_prop3(instances=1000)
    ok = all(r.passed for r in results)
    _report(6, ok, "; ".join(r.line() for r in results))


def test_criterion_07_v_matrix_constructions():
    results = verify.suite_prop1()
    ok = all(r.passed for r in results)
    _report(7, ok, "; ".join(r.line() for r in results))


def test_criterion_08_immse_and_concavity():
    results = verify.suite_immse()
    ok = all(r.passed for r in results)
    _report(8, ok, "; ".join(r.line() for r in results))


def test_criterion_09_monotone_in_k():
    results = verify.suite_thm3(draws=1000)
    ok = all(r.passed for r in results)
    _report(9, ok, "; ".join(r.line() for r in results))


def test_criterion_10_eq8_bound():
    results = verify.suite_thm2(channels=100, qsets=20)
    ok = all(r.passed for r in results)
    _report(10, ok, "; ".join(r.line() for r in results))


def test_criterion_11_statistical_optimizer():
    ev = MiEvaluator(Constellation.gaussian())
    cols_iid = draw_ind_column_powers(iid_model(4, 4), 200_000, Rng(424242, 0))
    res_iid = optimize_lambda(cols_iid, 10.0, 4, 4, 4, ev)
    dev = float(np.abs(res_iid.diag - 1.0).max())
    cols_v4 = draw_ind_column_powers(v4_model(), 5000, Rng(424242, 1))
    res_v4 = optimize_lambda(cols_v4, 0.1, 4, 4, 4, ev)
    share = float(res_v4.diag[2] / res_v4.diag.sum())
    ok = dev <= 1e-2 * 4.0 and share >= 0.9
    _report(11, ok,
            f"iid deviation from uniform {dev:.4f} (bound 0.04); "
            f"V4 strongest-column share {share:.3f} (bound 0.90)")


def test_criterion_12_deterministic_csv(tmp_path):
    cfg = str(CONFIG_DIR / "iid2x2.cfg")
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["simulate", cfg, "-o", out1]) == 0
    assert cli.main(["simulate", cfg, "-o", out2]) == 0
    same = Path(out1).read_bytes() == Path(out2).read_bytes()
    # and the full-size CSV feeds the plot subcommand
    svg_ok = cli.main(["plot", out1, "-o", str(tmp_path / "a.svg")]) == 0
    _report(12, same and svg_ok, "byte-identical CSV across reruns; plot round trip ok")
