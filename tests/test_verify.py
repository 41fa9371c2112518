"""Negative controls: a certificate FAILs under a fault that is wrong in the mathematics.

Each fault is patched into one function for one suite run; the same suite
PASSes without it. goc's control is `verify goc --mutate`, tested with the CLI.
"""

from dataclasses import replace

import numpy as np
import pytest

from ldfeedback import codebook, infotheory, verify
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
    def mi(a, out=None):
        return np.multiply(a, a, out=out)

    monkeypatch.setattr(infotheory, "_gaussian_mi", mi)
    monkeypatch.setattr(infotheory, "_gaussian_mmse", lambda a: 2.0 * a)


@pytest.mark.parametrize("suite, fault, failing", [
    ("thm2", second_eigenvalue_first, ["upper-bound", "achievability"]),
    ("thm4", reference_without_last_mode, ["rank-one-strongly-optimal"]),
    ("lemma1", gaps_swapped, ["mi-gap-below-snr-gap"]),
    ("thm3", convex_gaussian_kernel, ["monotone-in-k-gaussian"]),
    ("eq10", convex_gaussian_kernel, ["chord-below-mi"]),
    ("immse", convex_gaussian_kernel, ["concavity-gaussian"]),
], ids=["thm2-second-eigenvalue", "thm4-dropped-mode", "lemma1-swapped-gaps", "thm3-convex-kernel",
        "eq10-convex-kernel", "immse-convex-kernel"])
def test_named_fault_fails(monkeypatch, suite, fault, failing):
    # measured at the default seed: thm2 FAILs at +2.380 (upper-bound) and
    # +3.411 (achievability), thm4 at +0.1955 and lemma1 at +250.3; under the
    # convex kernel thm3 FAILs at +3.265e+05, eq10 at -1.000e+04 and immse at
    # +5.000e+03
    assert all(r.passed for r in verify.SUITES[suite]())
    fault(monkeypatch)
    results = verify.SUITES[suite]()
    assert [r.name for r in results if not r.passed] == failing
