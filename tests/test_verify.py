"""Negative controls: a certificate FAILs under a fault that is wrong in the mathematics.

Each fault is patched into one function for one suite run; the same suite
PASSes without it. goc's control is `verify goc --mutate`, tested with the CLI.
"""

from dataclasses import replace

import pytest

from ldfeedback import codebook, verify
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


@pytest.mark.parametrize("suite, fault, failing", [
    ("thm2", second_eigenvalue_first, ["upper-bound", "achievability"]),
    ("thm4", reference_without_last_mode, ["rank-one-strongly-optimal"]),
    ("lemma1", gaps_swapped, ["mi-gap-below-snr-gap"]),
], ids=["thm2-second-eigenvalue", "thm4-dropped-mode", "lemma1-swapped-gaps"])
def test_named_fault_fails(monkeypatch, suite, fault, failing):
    # measured at the default seed: thm2 FAILs at +2.380 (upper-bound) and
    # +3.411 (achievability), thm4 at +0.1955 and lemma1 at +250.3
    assert all(r.passed for r in verify.SUITES[suite]())
    fault(monkeypatch)
    results = verify.SUITES[suite]()
    assert [r.name for r in results if not r.passed] == failing
