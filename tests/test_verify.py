"""Negative controls: a certificate FAILs under a fault that is wrong in the mathematics.

Each fault is patched into one function for one suite run; the same suite
PASSes without it. goc's control is `verify goc --mutate`, tested with the CLI.
"""

from dataclasses import replace

import numpy as np
import pytest

from ldfeedback import codebook, dispersion, infotheory, verify
from ldfeedback.infotheory import Constellation, MiEvaluator
from ldfeedback.matkit import hermitian_eig


def second_eigenvalue_first(monkeypatch):
    # lambda_2 read as lambda_max, with the top eigenvectors kept: the second
    # eigenpair in full is self-consistent, and achievability still PASSes on it
    def faulty(m):
        eig = hermitian_eig(m)
        values = eig.values.copy()
        values[..., 0] = eig.values[..., 1]
        return replace(eig, values=values)

    monkeypatch.setattr(verify, "hermitian_eig", faulty)


def reference_without_last_mode(monkeypatch):
    # thm4's all-modes reference is its one select_mi call with an (Nt, Nt)
    # set of diagonals; the competitors carry realization and competitor axes
    select_mi = codebook.select_mi

    def faulty(smat, lambdas, *args):
        return select_mi(smat, lambdas[:-1] if lambdas.ndim == 2 else lambdas, *args)

    monkeypatch.setattr(codebook, "select_mi", faulty)


def gaps_swapped(monkeypatch):
    delta_mi, delta_snr = codebook.delta_mi, codebook.delta_snr
    evaluator = MiEvaluator(Constellation.gaussian())
    monkeypatch.setattr(codebook, "delta_mi", lambda *args: delta_snr(*args[:-1]))
    monkeypatch.setattr(codebook, "delta_snr", lambda *args: delta_mi(*args, evaluator))


def convex_gaussian_kernel(monkeypatch):
    # I(a) = a^2 with its derivative 2a as the MMSE: the pair is self-consistent,
    # so the derivative check still PASSes, but I is convex instead of concave
    monkeypatch.setattr(infotheory, "_gaussian_mi", lambda a: a * a)
    monkeypatch.setattr(infotheory, "_gaussian_mmse", lambda a: 2.0 * a)


def nan_at_the_second_snr(monkeypatch):
    # one Gaussian value at rho = 10 is NaN: a fold over the two SNRs that drops
    # it (Python's max keeps its first argument against a NaN) would PASS
    perfect_csi_mi = verify.perfect_csi_mi

    def faulty(lam_max, rho, k, nc, ev):
        values = perfect_csi_mi(lam_max, rho, k, nc, ev)
        if rho == 10.0 and ev.constellation.kind == "gaussian" and k == 1:
            values[0] = np.nan
        return values

    monkeypatch.setattr(verify, "perfect_csi_mi", faulty)


def snr_weights_unnormalized(monkeypatch):
    # the snr rule weighs the mode powers by lambda itself, without the
    # alpha = lambda * K / (Nt * Nc) normalization
    monkeypatch.setattr(codebook, "select_snr", lambda smat, lambdas, k, nt, nc: codebook.codeword_max(smat, lambdas))


def shrunk_unitary(monkeypatch):
    # the construction's Haar unitary has columns of norm 0.9, so every
    # covariance is 0.81 * diag(lambda); disjoint columns keep the pairs
    # orthogonal. A fault that breaks orthogonality has no row: statistical_set
    # verifies its own set and raises before the suite's checks run
    haar_unitaries = dispersion.haar_unitaries
    monkeypatch.setattr(dispersion, "haar_unitaries", lambda n, m, rng: 0.9 * haar_unitaries(n, m, rng))


def first_symbol_repeated(monkeypatch):
    # the uniform codeword repeats the first symbol's covariance instead of the
    # mean, so its block power is no longer the budget
    monkeypatch.setattr(verify, "_uniform_codeword", lambda qs: np.broadcast_to(qs[:, :1], qs.shape))


def first_weight_row_doubled(monkeypatch):
    # every instance's first weight row sums to 2 instead of 1
    prop3_gap = verify.prop3_gap

    def faulty(a, y):
        a = a.copy()
        a[:, 0] *= 2.0
        return prop3_gap(a, y)

    monkeypatch.setattr(verify, "prop3_gap", faulty)


@pytest.mark.parametrize("suite, fault, failing", [
    ("thm2", second_eigenvalue_first, ["upper-bound", "achievability"]),
    ("thm4", reference_without_last_mode, ["rank-one-strongly-optimal"]),
    ("lemma1", gaps_swapped, ["mi-gap-below-snr-gap"]),
    ("thm3", convex_gaussian_kernel, ["monotone-in-k-gaussian"]),
    ("thm3", nan_at_the_second_snr, ["monotone-in-k-gaussian"]),
    ("eq10", convex_gaussian_kernel, ["chord-below-mi"]),
    ("immse", convex_gaussian_kernel, ["concavity-gaussian"]),
    ("thm5", snr_weights_unnormalized, ["snr-cap", "rank-one-achieves-cap"]),
    ("thm1", shrunk_unitary, ["equal-covariance", "full-power"]),
    ("thm1", first_symbol_repeated, ["uniform-power-optimal"]),
    ("prop2", first_symbol_repeated, ["uniform-codeword-dominates"]),
    ("prop3", first_weight_row_doubled, ["brute-force"]),
], ids=["thm2-second-eigenvalue", "thm4-dropped-mode", "lemma1-swapped-gaps", "thm3-convex-kernel", "thm3-nan-at-second-snr",
        "eq10-convex-kernel", "immse-convex-kernel", "thm5-unnormalized-weights", "thm1-shrunk-unitary",
        "thm1-first-symbol", "prop2-first-symbol", "prop3-doubled-weight-row"])
def test_named_fault_fails(monkeypatch, suite, fault, failing):
    # measured at the default seed: thm2 FAILs at +2.330 (upper-bound) and
    # +3.327 (achievability), thm4 at +0.3867 and lemma1 at +205.6; under the
    # convex kernel thm3 FAILs at +4.382e+05, eq10 at -1.000e+04 and immse at
    # +5.000e+03; thm3 at nan under the NaN; thm5 at +53.01 (snr-cap) and +62.01
    # (rank-one-achieves-cap), thm1 at +1.862 (equal-covariance) and +6.080
    # (full-power) under the shrunk unitary and at +1.348 (uniform-power-optimal)
    # under the repeated symbol, prop2 at +1.492 and prop3 at -4.021
    assert all(r.passed for r in verify.SUITES[suite]())
    fault(monkeypatch)
    results = verify.SUITES[suite]()
    assert [r.name for r in results if not r.passed] == failing
