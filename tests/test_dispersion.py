import math

import numpy as np
import pytest

from ldfeedback.channel import iid_model, sample
from ldfeedback.dispersion import (
    DispersionSet,
    build_v_matrix,
    check_goc,
    decoupling_residual,
    from_text,
    rank_one_set,
    statistical_set,
    to_text,
)
from ldfeedback.errors import InfeasibleError, PreconditionError
from ldfeedback.infotheory import Constellation, MiEvaluator, block_mi
from ldfeedback.matkit import Rng


def random_realization(nt, nr, stream, seed=77):
    return sample(iid_model(nt, nr), Rng(seed, stream))


def one_block_mi(real, qs, rho, nt, ev):
    """block_mi of one realization, evaluated as the n = 1 stack."""
    return block_mi(real.h[None], np.asarray(qs)[None], rho, nt, ev)[0]


class TestCheckGoc:
    def test_single_matrix_vacuous(self):
        dset = DispersionSet(nt=2, nc=2, k=1, mats=[np.eye(2)])
        ok, worst = check_goc(dset)
        assert ok and worst == 0.0

    def test_alamouti_pair(self):
        # A1 A2^H + A2 A1^H = 0 by direct arithmetic
        a1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        a2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        ok, worst = check_goc(DispersionSet(nt=2, nc=2, k=2, mats=[a1, a2]))
        assert ok and worst == 0.0

    def test_duplicated_identity_violates(self):
        ok, worst = check_goc(DispersionSet(nt=2, nc=2, k=2, mats=[np.eye(2), np.eye(2)]))
        assert not ok
        assert abs(worst - 2 * math.sqrt(2)) <= 1e-12  # ||2 I||_F


class TestVMatrix:
    def test_full_rate_pattern(self):
        v = build_v_matrix(4, 2)
        expect = np.array(
            [[1, 0], [1j, 0], [0, 1], [0, 1j]], dtype=complex
        )
        assert np.array_equal(v.rows, expect)
        gram = v.rows @ v.rows.conj().T
        skew = gram.imag
        assert np.allclose(gram.real, np.eye(4))
        assert skew[0, 1] == -1 and skew[1, 0] == 1
        assert skew[2, 3] == -1 and skew[3, 2] == 1

    def test_orthonormal_rows_when_k_small(self):
        for nc in (2, 4, 5):
            for k in range(1, nc + 1):
                v = build_v_matrix(k, nc)
                assert np.array_equal(v.rows @ v.rows.conj().T, np.eye(k))

    def test_all_feasible_sizes_exact(self):
        for nc in range(1, 9):
            for k in range(1, 2 * nc + 1):
                v = build_v_matrix(k, nc)
                gram = v.rows @ v.rows.conj().T
                assert np.linalg.norm(gram.real - np.eye(k)) == 0.0
                assert np.linalg.norm(gram.imag + gram.imag.T) == 0.0
                # entries restricted to {0, 1, i}
                assert set(np.unique(v.rows)) <= {0, 1, 1j}

    def test_infeasible_above_two_nc(self):
        with pytest.raises(InfeasibleError):
            build_v_matrix(5, 2)


class TestRankOneSet:
    def test_hand_derived_two_by_one(self):
        dset = rank_one_set(np.array([1.0, 0.0]), k=2, nc=1)
        assert np.array_equal(dset.mats[0], np.array([[1.0], [0.0]]))
        assert np.array_equal(dset.mats[1], np.array([[1j], [0.0]]))

    def test_construction_guarantees(self):
        u = np.array([0.6, 0.8j])
        dset = rank_one_set(u, k=3, nc=2)
        ok, worst = check_goc(dset, tol=1e-10)
        assert ok
        assert abs(dset.total_power() - 2 * 2) <= 1e-9
        for q in dset.covariances():
            vals = np.linalg.eigvalsh(q)
            assert vals[-1] > 1e-9 and np.abs(vals[:-1]).max() <= 1e-12  # rank one

    def test_rejects_unnormalized_vector(self):
        with pytest.raises(PreconditionError):
            rank_one_set(np.array([1.0, 1.0]), k=2, nc=2)

    def test_propagates_infeasibility(self):
        with pytest.raises(InfeasibleError):
            rank_one_set(np.array([1.0, 0.0]), k=5, nc=2)

    def test_beamforming_equivalence_at_full_rate(self):
        # K = 2*Nc and Gaussian inputs: block MI through the set equals the
        # per-block capacity of beamforming Nc complex symbols along u
        ev = MiEvaluator(Constellation.gaussian())
        nt, nc, rho = 3, 4, 1.7
        rng = Rng(55, 0)
        u = rng.gen.standard_normal(nt) + 1j * rng.gen.standard_normal(nt)
        u /= np.linalg.norm(u)
        dset = rank_one_set(u, k=2 * nc, nc=nc)
        for stream in range(10):
            real = random_realization(nt, 3, stream)
            via_set = one_block_mi(real, dset.covariances(), rho, nt, ev)
            gain = float(np.linalg.norm(real.h @ u) ** 2)
            assert abs(via_set - nc * math.log(1.0 + rho * gain)) <= 1e-9


class TestStatisticalSet:
    def test_covariances_and_orthogonality(self):
        lam = np.array([10.0, 6.0, 0.0, 0.0])  # r = 2, trace = Nt*Nc/K = 16
        dset = statistical_set(lam, k=2, nc=8, rng=Rng(4, 0))
        for q in dset.covariances():
            assert np.linalg.norm(q - np.diag(lam)) <= 1e-10
        ok, worst = check_goc(dset, tol=1e-10)
        assert ok
        assert abs(dset.total_power() - 4 * 8) <= 1e-9

    def test_infeasible_when_modes_exceed_block(self):
        # r = 2 active modes, k = 3 symbols -> r*k = 6 > nc = 4
        lam = np.array([8.0 / 3, 8.0 / 3, 0.0, 0.0])  # trace = Nt*Nc/K = 16/3
        with pytest.raises(InfeasibleError):
            statistical_set(lam, k=3, nc=4, rng=Rng(4, 1))

    def test_rejects_wrong_trace(self):
        with pytest.raises(PreconditionError):
            statistical_set(np.array([1.0, 1.0, 0.0, 0.0]), k=2, nc=8, rng=Rng(4, 2))

    def test_short_block_regime(self):
        # nc < nt with a single active mode still meets the contract
        lam = np.array([0.0, 8.0, 0.0, 0.0])  # nt = 4, k = 1, nc = 2 -> trace 8
        dset = statistical_set(lam, k=1, nc=2, rng=Rng(5, 0))
        assert dset.mats[0].shape == (4, 2)
        assert np.linalg.norm(dset.covariances()[0] - np.diag(lam)) <= 1e-10

    def test_rank_one_lambda_matches_rank_one_set(self):
        # single positive mode: same covariances as the beamforming set, so the
        # block MI agrees on any channel
        nt, nc, k = 4, 4, 2
        lam = np.zeros(nt)
        lam[1] = nt * nc / k
        stat = statistical_set(lam, k=k, nc=nc, rng=Rng(6, 0))
        beam = rank_one_set(np.eye(nt)[1], k=k, nc=nc)
        ev = MiEvaluator(Constellation.gaussian())
        for q_stat, q_beam in zip(stat.covariances(), beam.covariances()):
            assert np.linalg.norm(q_stat - q_beam) <= 1e-10
        for stream in range(5):
            real = random_realization(nt, nt, stream)
            a = one_block_mi(real, stat.covariances(), 2.0, nt, ev)
            b = one_block_mi(real, beam.covariances(), 2.0, nt, ev)
            assert abs(a - b) <= 1e-9


class TestDecoupling:
    def test_verified_sets_decouple(self):
        dset = rank_one_set(np.array([1.0, 0.0, 0.0, 0.0]), k=8, nc=4)
        for stream in range(100):
            real = random_realization(4, 4, stream)
            assert decoupling_residual(real, dset) <= 1e-10

    def test_violating_set_has_positive_residual(self):
        a = np.eye(2) / math.sqrt(2)
        dset = DispersionSet(nt=2, nc=2, k=2, mats=[a, a])
        real = random_realization(2, 2, 0)
        assert decoupling_residual(real, dset) > 1e-3

    def test_single_symbol_zero_by_convention(self):
        dset = DispersionSet(nt=2, nc=2, k=1, mats=[np.eye(2)])
        assert decoupling_residual(random_realization(2, 2, 1), dset) == 0.0

    def test_dimension_mismatch(self):
        dset = DispersionSet(nt=3, nc=2, k=1, mats=[np.zeros((3, 2))])
        with pytest.raises(PreconditionError):
            decoupling_residual(random_realization(2, 2, 2), dset)


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        rng = Rng(91, 0)
        u = rng.gen.standard_normal(3) + 1j * rng.gen.standard_normal(3)
        u /= np.linalg.norm(u)
        dset = rank_one_set(u, k=4, nc=2)
        back = from_text(to_text(dset))
        assert (back.nt, back.nc, back.k) == (3, 2, 4)
        for a, b in zip(dset.mats, back.mats):
            assert np.array_equal(a, b)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            from_text("not a header\n")


def test_power_budget_enforced():
    with pytest.raises(PreconditionError):
        DispersionSet(nt=2, nc=2, k=2, mats=[np.eye(2) * 2, np.eye(2)])
