import math

import numpy as np
import pytest

from ldfeedback.channel import iid_model, sample
from ldfeedback.codebook import QuantizedCodebook, random_rank_two_lambdas
from ldfeedback.dispersion import (
    GOC_TOL,
    DispersionSet,
    build_v_matrix,
    check_goc,
    check_symbols,
    decoupling_residual,
    rank_one_set,
    statistical_set,
    to_text,
    v_residual,
)
from ldfeedback.errors import InfeasibleError, PreconditionError
from ldfeedback.infotheory import Constellation, MiEvaluator, block_mi, perfect_csi_mi
from ldfeedback.matkit import Rng


def read_set(text):
    """The DispersionSet in to_text's form, its a+bi entries read back with complex()."""
    lines = text.splitlines()
    nt, nc, k = (int(t) for t in lines[0].split())
    rows = [[complex(t[:-1] + "j") for t in line.split()] for line in lines[1:]]
    return DispersionSet(np.reshape(rows, (k, nt, nc)))


def random_channel(nt, nr, stream, seed=77):
    """One i.i.d. channel draw as the (1, Nr, Nt) stack."""
    return sample(iid_model(nt, nr), Rng(seed, stream))[0]


def random_channels(nt, nr, streams, seed=77):
    """The (len(streams), Nr, Nt) stack of random_channel draws."""
    return np.concatenate([random_channel(nt, nr, stream, seed) for stream in streams])


def one_block_mi(h, qs, rho, ev):
    """block_mi of one channel, evaluated as the n = 1 stack."""
    return block_mi(h, np.asarray(qs)[None], rho, ev)[0]


def pairwise_check_goc(dset):
    """check_goc as one loop over the pairs k < j, the reference for the stacked form."""
    worst = 0.0
    for a_idx in range(dset.k):
        for b_idx in range(a_idx + 1, dset.k):
            cross = dset.mats[a_idx] @ dset.mats[b_idx].conj().T
            worst = max(worst, float(np.linalg.norm(cross + cross.conj().T)))
    return worst <= GOC_TOL, worst


def pairwise_decoupling_residual(h, dset):
    """decoupling_residual as one np.vdot per pair k < j, the reference for the stacked form."""
    waves = [h @ a for a in dset.mats]
    worst = 0.0
    for a_idx in range(dset.k):
        for b_idx in range(a_idx + 1, dset.k):
            worst = max(worst, abs(float(np.vdot(waves[b_idx], waves[a_idx]).real)))
    return worst


def seeded_sets(kind, count, seed=2024):
    """count DispersionSets with K in 1..8, Nt in 1..4, Nc in 1..8.

    "complex" and "real" sets are Gaussian, scaled to a random share of the
    power budget, and violate the constraint whenever K >= 2; "constructed"
    sets come from rank_one_set and statistical_set and satisfy it.
    """
    gen = np.random.default_rng(seed)
    sets = []
    while len(sets) < count:
        k, nt, nc = (int(x) for x in gen.integers(1, [9, 5, 9]))
        if kind == "constructed":
            if k > 2 * nc:
                continue
            if gen.integers(2) and nt * k <= nc:
                lam = gen.uniform(size=nt)
                sets.append(statistical_set(lam / lam.sum() * nt * nc / k, k, nc, Rng(seed, len(sets))))
            else:
                u = gen.standard_normal(nt) + 1j * gen.standard_normal(nt)
                sets.append(rank_one_set(u / np.linalg.norm(u), k, nc))
            continue
        mats = gen.standard_normal((k, nt, nc))
        if kind == "complex":
            mats = mats + 1j * gen.standard_normal((k, nt, nc))
        share = gen.uniform(0.1, 1.0) * nt * nc / np.vdot(mats, mats).real
        sets.append(DispersionSet(mats * np.sqrt(share)))
    return sets


class TestStackedMatchesPairwise:
    @pytest.mark.parametrize("kind", ["complex", "real", "constructed"])
    def test_exact_equality(self, kind):
        gen = np.random.default_rng(7)
        sets = seeded_sets(kind, 400)
        for dset in sets:
            assert check_goc(dset) == pairwise_check_goc(dset)
            h = gen.standard_normal((3, 3, dset.nt)) + 1j * gen.standard_normal((3, 3, dset.nt))
            want = [pairwise_decoupling_residual(x, dset) for x in h]
            assert decoupling_residual(h, dset).tolist() == want
            assert dset.total_power() == float(sum(np.vdot(a, a).real for a in dset.mats))
            assert np.array_equal(dset.covariances(), [a @ a.conj().T for a in dset.mats])
        # both outcomes of the check are exercised
        violations = sum(not check_goc(d)[0] for d in sets)
        multi = sum(d.k > 1 for d in sets)
        assert violations == (0 if kind == "constructed" else multi) and multi > 0


class TestDispersionSetChecks:
    @pytest.mark.parametrize("mats, message", [
        (np.zeros((2, 2)), r"shape \(2, 2\) is not \(K, Nt, Nc\) with K >= 1"),
        (np.zeros((0, 2, 2)), r"shape \(0, 2, 2\) is not \(K, Nt, Nc\) with K >= 1"),
        (np.where(np.arange(8).reshape(2, 2, 2) == 5, np.nan, 0.0), "dispersion matrices must be finite"),
    ], ids=["too-few-axes", "no-symbols", "nan-entry"])
    def test_rejects(self, mats, message):
        with pytest.raises(PreconditionError, match=message):
            DispersionSet(mats)

    def test_dimensions_come_from_the_last_three_axes(self):
        dset = DispersionSet(np.zeros((5, 3, 2, 4)))
        assert (dset.k, dset.nt, dset.nc) == (3, 2, 4)


class TestCheckGoc:
    def test_single_matrix_vacuous(self):
        dset = DispersionSet([np.eye(2)])
        ok, worst = check_goc(dset)
        assert ok and worst == 0.0

    def test_alamouti_pair(self):
        # A1 A2^H + A2 A1^H = 0 by direct arithmetic
        a1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        a2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        ok, worst = check_goc(DispersionSet([a1, a2]))
        assert ok and worst == 0.0

    def test_stack_reports_each_set(self):
        # one Alamouti set and one duplicated identity: each reports as it does alone
        a1, a2 = np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])
        ok, worst = check_goc(DispersionSet([[a1, a2], [a1, a1]]))
        assert ok.tolist() == [True, False]
        assert worst.tolist() == [0.0, check_goc(DispersionSet([a1, a1]))[1]]

    def test_stack_power_checked_set_by_set(self):
        # the first set spends the whole Nt*Nc = 4, the second 10
        with pytest.raises(PreconditionError, match="total power 10.0 exceeds"):
            DispersionSet([[np.eye(2), np.eye(2)], [2 * np.eye(2), np.eye(2)]])

    def test_duplicated_identity_violates(self):
        ok, worst = check_goc(DispersionSet([np.eye(2), np.eye(2)]))
        assert not ok
        assert abs(worst - 2 * math.sqrt(2)) <= 1e-12  # ||2 I||_F


class TestCheckSymbols:
    # every library entry point that takes K and Nc rejects bad counts through check_symbols
    ENTRY_POINTS = {
        "check_symbols": check_symbols,
        "perfect_csi_mi": lambda k, nc: perfect_csi_mi(
            np.ones(3), 1.0, k, nc, MiEvaluator(Constellation.gaussian())),
        "QuantizedCodebook": lambda k, nc: QuantizedCodebook(
            unitaries=[np.eye(2)], lambdas=[[1.0, 0.0]], k=k, nc=nc),
        "random_rank_two_lambdas": lambda k, nc: random_rank_two_lambdas(1, 1, 2, nc, k, Rng(0, 0)),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("k, nc, error, message", [
        (0, 2, PreconditionError, "K = 0 and Nc = 2 must both be >= 1"),
        (-1, 2, PreconditionError, "K = -1 and Nc = 2 must both be >= 1"),
        (2, 0, PreconditionError, "K = 2 and Nc = 0 must both be >= 1"),
        (5, 2, InfeasibleError, "K = 5 exceeds the feasibility bound K <= 2\\*Nc = 4"),
    ], ids=["k-0", "k-minus-1", "nc-0", "k-above-2nc"])
    def test_rejects_bad_counts(self, entry, k, nc, error, message):
        with pytest.raises(error, match=message):
            self.ENTRY_POINTS[entry](k, nc)


class TestVMatrix:
    def test_full_rate_pattern(self):
        v = build_v_matrix(4, 2)
        expect = np.array(
            [[1, 0], [1j, 0], [0, 1], [0, 1j]], dtype=complex
        )
        assert np.array_equal(v, expect)
        gram = v @ v.conj().T
        skew = gram.imag
        assert np.allclose(gram.real, np.eye(4))
        assert skew[0, 1] == -1 and skew[1, 0] == 1
        assert skew[2, 3] == -1 and skew[3, 2] == 1

    def test_orthonormal_rows_when_k_small(self):
        for nc in (2, 4, 5):
            for k in range(1, nc + 1):
                v = build_v_matrix(k, nc)
                assert np.array_equal(v @ v.conj().T, np.eye(k))

    def test_all_feasible_sizes_exact(self):
        for nc in range(1, 9):
            for k in range(1, 2 * nc + 1):
                v = build_v_matrix(k, nc)
                assert v.shape == (k, nc)
                assert v_residual(v) == 0.0
                # entries restricted to {0, 1, i}
                assert set(np.unique(v)) <= {0, 1, 1j}

    def test_residual_detects_violations(self):
        # a repeated row puts 1 off the diagonal of Re(V V^H): ||[[0, 1], [1, 0]]||_F
        assert v_residual(np.array([[1, 0], [1, 0]], dtype=complex)) == math.sqrt(2)
        # a row of norm 2 puts 4 on the diagonal
        assert v_residual(np.array([[2j, 0]])) == 3.0

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
        ok, worst = check_goc(dset)
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

    @pytest.mark.parametrize("k, nc", [(1, 1), (3, 2), (4, 4), (8, 4)])
    def test_stack_equals_sets_alone(self, k, nc):
        # a stack of beams (here a strided view, as eigenvectors are taken) makes and
        # checks each set as one call per beam would, bit for bit
        rng = Rng(3, k)
        z = rng.gen.standard_normal((20, 4)) + 1j * rng.gen.standard_normal((20, 4))
        beams = np.stack([z / np.linalg.norm(z, axis=1, keepdims=True)] * 2, axis=-1)[:, :, 0]
        stack = rank_one_set(beams, k, nc)
        alone = [rank_one_set(u, k, nc) for u in beams]
        assert stack.mats.shape == (20, k, 4, nc)
        assert stack.mats.tobytes() == np.stack([d.mats for d in alone]).tobytes()
        assert stack.covariances().tobytes() == np.stack([d.covariances() for d in alone]).tobytes()
        ok, worst = check_goc(stack)
        assert ok.tolist() == [check_goc(d)[0] for d in alone] == [True] * 20
        assert worst.tolist() == [check_goc(d)[1] for d in alone]
        assert stack.total_power().tolist() == [d.total_power() for d in alone]

    def test_stack_rejects_one_unnormalized_beam(self):
        beams = np.tile(np.array([0.6, 0.8j]), (5, 1))
        beams[3] *= 1.0 + 1e-9
        with pytest.raises(PreconditionError, match="unit norm"):
            rank_one_set(beams, k=2, nc=2)

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
            h = random_channel(nt, 3, stream)
            via_set = one_block_mi(h, dset.covariances(), rho, ev)
            gain = float(np.linalg.norm(h[0] @ u) ** 2)
            assert abs(via_set - nc * math.log(1.0 + rho * gain)) <= 1e-9


class TestStatisticalSet:
    def test_covariances_and_orthogonality(self):
        lam = np.array([10.0, 6.0, 0.0, 0.0])  # r = 2, trace = Nt*Nc/K = 16
        dset = statistical_set(lam, k=2, nc=8, rng=Rng(4, 0))
        for q in dset.covariances():
            assert np.linalg.norm(q - np.diag(lam)) <= 1e-10
        ok, worst = check_goc(dset)
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
            h = random_channel(nt, nt, stream)
            a = one_block_mi(h, stat.covariances(), 2.0, ev)
            b = one_block_mi(h, beam.covariances(), 2.0, ev)
            assert abs(a - b) <= 1e-9


class TestDecoupling:
    def test_verified_sets_decouple(self):
        dset = rank_one_set(np.array([1.0, 0.0, 0.0, 0.0]), k=8, nc=4)
        residuals = decoupling_residual(random_channels(4, 4, range(100)), dset)
        assert residuals.shape == (100,) and (residuals <= 1e-10).all()

    def test_violating_set_has_positive_residual(self):
        a = np.eye(2) / math.sqrt(2)
        dset = DispersionSet([a, a])
        assert decoupling_residual(random_channel(2, 2, 0), dset)[0] > 1e-3

    def test_single_symbol_zero_by_convention(self):
        dset = DispersionSet([np.eye(2)])
        assert decoupling_residual(random_channels(2, 2, range(3)), dset).tolist() == [0.0] * 3

    @pytest.mark.parametrize("kind", ["rank-one", "mutated", "single-symbol"])
    def test_stack_matches_pairwise_reference(self, kind):
        # the verify goc sets, including its --mutate violation, and K = 1, bit for bit per channel
        u = np.array([1.0, 1j, -1.0, 0.5]) / np.linalg.norm([1.0, 1j, -1.0, 0.5])
        dset = rank_one_set(u, k=1 if kind == "single-symbol" else 8, nc=4)
        if kind == "mutated":
            dset = DispersionSet(dset.mats[[0, 0, *range(2, 8)]])
        h = random_channels(4, 4, range(100), seed=78)
        want = np.array([pairwise_decoupling_residual(x, dset) for x in h])
        assert decoupling_residual(h, dset).tobytes() == want.tobytes()
        assert (want > 1e-3).any() == (kind == "mutated")

    def test_dimension_mismatch(self):
        dset = DispersionSet([np.zeros((3, 2))])
        with pytest.raises(PreconditionError):
            decoupling_residual(random_channel(2, 2, 2), dset)


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        rng = Rng(91, 0)
        u = rng.gen.standard_normal(3) + 1j * rng.gen.standard_normal(3)
        u /= np.linalg.norm(u)
        dset = rank_one_set(u, k=4, nc=2)
        back = read_set(to_text(dset))
        assert (back.nt, back.nc, back.k) == (3, 2, 4)
        assert np.array_equal(dset.mats, back.mats)


def test_power_budget_enforced():
    with pytest.raises(PreconditionError):
        DispersionSet([np.eye(2) * 2, np.eye(2)])
