import math

import numpy as np
import pytest

from ldfeedback import simengine
from ldfeedback.channel import iid_model, v4_model
from ldfeedback.codebook import (
    QuantizedCodebook,
    delta_mi,
    delta_snr,
    random_rank_two_lambdas,
    s_matrix,
    select_mi,
    select_snr,
)
from ldfeedback.errors import InfeasibleError, PreconditionError
from ldfeedback.infotheory import LN2, Constellation, MiEvaluator
from ldfeedback.matkit import Rng, haar_unitary, hermitian_eig
from ldfeedback.simengine import (
    SimConfig,
    best_rank_one_codebook,
    draw_ind_column_powers,
    draw_trials,
    default_unitaries,
    optimize_lambda,
    project_scaled_simplex,
    rank_one_candidates,
    rank_two_tournament,
    run,
    scheme_block_mi,
)


def make_config(model=None, schemes=("perfect",), trials=50, k=None, nc=None, seed=4242,
                snr=(0.0, 10.0, 20.0), opt_samples=500):
    model = model or iid_model(2, 2)
    nc = nc if nc is not None else model.nt
    k = k if k is not None else nc
    return SimConfig(
        model=model,
        snr_grid_db=list(snr),
        trials=trials,
        seed=seed,
        constellation=Constellation.gaussian(),
        k=k,
        nc=nc,
        schemes=list(schemes),
        opt_samples=opt_samples,
    )


def snr_rule_values(cb, batch):
    """SNR-rule objective of the selected codeword on every trial."""
    smat = s_matrix(batch.h, cb.unitaries)
    return select_snr(smat, cb.lambda_matrix(), cb.k, cb.nt, cb.nc)[0]


class TestProjection:
    def test_already_feasible(self):
        v = np.array([1.0, 2.0, 1.0])
        assert np.allclose(project_scaled_simplex(v, 4.0), v)

    def test_clips_and_renormalizes(self):
        out = project_scaled_simplex(np.array([5.0, -1.0]), 4.0)
        assert out.min() >= 0.0
        assert abs(out.sum() - 4.0) <= 1e-12

    def test_idempotent(self):
        rng = Rng(1, 0)
        for _ in range(50):
            v = rng.gen.standard_normal(6) * 3
            p = project_scaled_simplex(v, 2.5)
            assert abs(p.sum() - 2.5) <= 1e-12
            assert np.allclose(project_scaled_simplex(p, 2.5), p, atol=1e-12)


class TestOptimizer:
    def test_trace_pinned(self):
        ev = MiEvaluator(Constellation.gaussian())
        cols = draw_ind_column_powers(iid_model(4, 4), 500, Rng(2, 0))
        res = optimize_lambda(cols, 10.0, 4, 4, 4, ev)
        assert abs(res.diag.sum() - 4.0) <= 1e-9
        assert (res.diag >= 0).all()

    def test_iid_returns_near_uniform(self):
        # the sample optimum sits O(1/sqrt(n)) from uniform; at this n the
        # deviation measures ~0.1, and the acceptance suite runs the tight
        # 1e-2-of-trace check at 2e5 samples
        ev = MiEvaluator(Constellation.gaussian())
        cols = draw_ind_column_powers(iid_model(4, 4), 10_000, Rng(2, 1))
        res = optimize_lambda(cols, 10.0, 4, 4, 4, ev)
        assert np.abs(res.diag - 1.0).max() <= 0.15

    def test_v4_low_snr_concentrates_on_strongest_column(self):
        ev = MiEvaluator(Constellation.gaussian())
        cols = draw_ind_column_powers(v4_model(), 5_000, Rng(2, 2))
        res = optimize_lambda(cols, 0.1, 4, 4, 4, ev)
        # column 2 (0-based) holds raw variance 1.6 of 2.6
        assert res.diag[2] >= 0.9 * res.diag.sum()

    def test_rejects_tiny_sample_count(self):
        for scheme in ("statistical", "statistical-beamforming"):
            with pytest.raises(PreconditionError):
                make_config(schemes=(scheme,), opt_samples=50).validate()
            with pytest.raises(PreconditionError):
                run(make_config(schemes=("perfect", scheme), opt_samples=0))
        # the sample count only matters when a statistical scheme runs
        make_config(schemes=("perfect",), opt_samples=0).validate()
        make_config(schemes=("statistical",), opt_samples=100).validate()


class TestRun:
    def test_perfect_matches_closed_form_per_trial(self):
        config = make_config(trials=40)
        batch = draw_trials(config.model, config.trials, config.seed)
        rows = scheme_block_mi(config, "perfect", batch)
        for idx, snr in enumerate(config.snr_grid_db):
            rho = 10.0 ** (snr / 10.0)
            expect = config.nc * np.log1p(rho * batch.eigvals[:, 0])
            assert np.allclose(rows[idx], expect, rtol=1e-12)

    def test_single_trial_deterministic(self):
        config = make_config(trials=1)
        a = run(config)
        b = run(config)
        assert a == b
        assert all(p.stderr == 0.0 for p in a)

    def test_reproducible_curves(self):
        config = make_config(schemes=("perfect", "statistical"), trials=20)
        assert run(config) == run(config)

    def test_mean_mi_monotone_in_snr(self):
        config = make_config(schemes=("perfect", "statistical", "statistical-beamforming"),
                             trials=30)
        for scheme in config.schemes:
            pts = [p for p in run(config) if p.scheme == scheme]
            means = [p.mi_bits_per_use for p in sorted(pts, key=lambda p: p.snr_db)]
            assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))

    def test_rejects_bad_grid(self):
        config = make_config(snr=(0.0, 0.0))
        with pytest.raises(PreconditionError):
            run(config)

    def test_rejects_infeasible_k(self):
        config = make_config(k=5, nc=2)
        with pytest.raises(InfeasibleError):
            run(config)

    def test_quantized_below_perfect_per_trial(self):
        config = make_config(model=iid_model(4, 4), trials=60)
        batch = draw_trials(config.model, config.trials, config.seed)
        cb, _ = best_rank_one_codebook(config, 2, 4, 1, batch=batch)
        quant = scheme_block_mi(config, ("quantized", "q", cb), batch)
        perfect = scheme_block_mi(config, "perfect", batch)
        assert (quant <= perfect + 1e-9).all()

    def test_statistical_below_perfect_per_trial(self):
        config = make_config(model=v4_model(), schemes=("statistical",), trials=40)
        batch = draw_trials(config.model, config.trials, config.seed)
        stat = scheme_block_mi(config, "statistical", batch)
        perfect = scheme_block_mi(config, "perfect", batch)
        assert (stat <= perfect + 1e-9).all()


class TestBestRankOne:
    def test_candidate_counts_match_split(self):
        assert len(rank_one_candidates(4, 1)) == 4
        assert len(rank_one_candidates(4, 2)) == 6
        assert len(rank_one_candidates(2, 2)) == 1

    def test_returns_single_mode_codebook(self):
        config = make_config(model=iid_model(4, 4), trials=30)
        cb, points = best_rank_one_codebook(config, 2, 4, 1, batch=None)
        assert cb.n1 == 4 and cb.n2 == 1
        assert (np.stack(cb.lambdas) > 0).sum() == 1
        assert len(points) == len(config.snr_grid_db)
        assert all(p.scheme == "quantized-rank1-best" for p in points)

    def test_iid_candidates_statistically_indistinguishable(self):
        config = make_config(model=iid_model(4, 4), trials=400, snr=(10.0,))
        batch = draw_trials(config.model, config.trials, config.seed)
        unitaries = default_unitaries(config, 4)
        means, errs = [], []
        for modes in rank_one_candidates(4, 1):
            lam = np.zeros(4)
            lam[modes[0]] = 4.0
            cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=unitaries, lambdas=[lam],
                                   k=4, nc=4, nt=4)
            rows = scheme_block_mi(config, ("quantized", "c", cb), batch) / (4 * LN2)
            means.append(rows[0].mean())
            errs.append(rows[0].std(ddof=1) / math.sqrt(config.trials))
        spread = max(means) - min(means)
        assert spread <= 3 * (max(errs) + min(errs))


class TestRankTwoTournament:
    def test_single_entry_is_its_own_best(self):
        config = make_config(model=iid_model(4, 4), trials=25)
        best, table = rank_two_tournament(config, 2, 4, 1, count=1)
        assert len(table) == len(config.snr_grid_db)
        for b, t in zip(best, table):
            assert b.mi_bits_per_use == t.mi_bits_per_use

    def test_every_entry_below_perfect(self):
        config = make_config(model=iid_model(4, 4), trials=40)
        batch = draw_trials(config.model, config.trials, config.seed)
        perfect = {
            p.snr_db: p.mi_bits_per_use
            for p in run(make_config(model=iid_model(4, 4), trials=40), batch=batch)
        }
        _, table = rank_two_tournament(config, 2, 4, 1, count=10, batch=batch)
        for p in table:
            assert p.mi_bits_per_use <= perfect[p.snr_db] + 1e-9


class TestStackedMatchesSingle:
    """Row t of a stacked evaluation equals the n = 1 evaluation of trial t, bit for bit.

    The eigendecomposition runs in chunks of 7 here, so 25 trials leave a
    partial last chunk. The Gaussian kernel is elementwise; a discrete
    alphabet picks its quadrature order per call, so it is only close.
    """

    TRIALS = 25

    @pytest.fixture
    def trials(self, monkeypatch):
        monkeypatch.setattr(simengine, "EIG_CHUNK", 7)
        model = v4_model()
        batch = draw_trials(model, self.TRIALS, 4242)
        singles = [draw_trials(model, 1, 4242, first_stream=t) for t in range(self.TRIALS)]
        rng = Rng(4242, 1)
        cb = QuantizedCodebook(b=2, n1=2, n2=2, unitaries=[haar_unitary(4, rng) for _ in range(2)],
                               lambdas=random_rank_two_lambdas(1, 2, 4, 4, 4, rng)[0],
                               k=4, nc=4, nt=4)
        return batch, singles, cb

    def test_hermitian_eig(self, trials, monkeypatch):
        batch, singles, _ = trials
        grams = np.swapaxes(batch.h.conj(), -1, -2) @ batch.h
        stacked = hermitian_eig(grams)
        for t, one in enumerate(singles):
            assert np.array_equal(batch.h[t], one.h[0])
            assert np.array_equal(batch.eigvals[t], one.eigvals[0])
            alone = hermitian_eig(grams[t])
            assert np.array_equal(stacked.values[t], alone.values)
            assert np.array_equal(stacked.vectors[t], alone.vectors)
        monkeypatch.setattr(simengine, "EIG_CHUNK", 4096)
        assert np.array_equal(draw_trials(v4_model(), self.TRIALS, 4242).eigvals, batch.eigvals)

    def test_mi_rule(self, trials):
        batch, singles, cb = trials
        ev = MiEvaluator(Constellation.gaussian())
        for rho in (0.5, 10.0):
            stacked = select_mi(s_matrix(batch.h, cb.unitaries), cb.lambda_matrix(), rho, 4, 4, ev)
            for t, one in enumerate(singles):
                alone = select_mi(s_matrix(one.h, cb.unitaries), cb.lambda_matrix(), rho, 4, 4, ev)
                assert [x[t] for x in stacked] == [x[0] for x in alone]

    def test_snr_rule(self, trials):
        batch, singles, cb = trials
        stacked = select_snr(s_matrix(batch.h, cb.unitaries), cb.lambda_matrix(), 4, 4, 4)
        for t, one in enumerate(singles):
            alone = select_snr(s_matrix(one.h, cb.unitaries), cb.lambda_matrix(), 4, 4, 4)
            assert [x[t] for x in stacked] == [x[0] for x in alone]

    def test_gaps(self, trials):
        batch, singles, cb = trials
        ev = MiEvaluator(Constellation.gaussian())
        for rho in (1.0, 10.0):
            gap_mi = delta_mi(cb, batch, rho, ev)
            gap_snr = delta_snr(cb, batch, rho)
            for t, one in enumerate(singles):
                assert gap_mi[t] == delta_mi(cb, one, rho, ev)[0]
                assert gap_snr[t] == delta_snr(cb, one, rho)[0]


class TestNoStaleReceivedPowers:
    def test_one_batch_many_fresh_unitary_families(self):
        # received powers must follow the codebook passed in, even when
        # earlier unitary families were freed and their memory reused
        config = make_config(model=iid_model(4, 4), trials=20, snr=(10.0,))
        batch = draw_trials(config.model, config.trials, config.seed)
        ev = MiEvaluator(Constellation.gaussian())
        rng = Rng(97, 0)
        for _ in range(200):
            cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=[haar_unitary(4, rng) for _ in range(4)],
                                   lambdas=[4.0 * np.eye(4)[0]], k=4, nc=4, nt=4)
            rows = scheme_block_mi(config, ("quantized", "q", cb), batch)
            # definition: max over codewords of K * I(rho/Nt * Tr(H Q H^H))
            covs = np.stack([(u * lam) @ u.conj().T for u in cb.unitaries for lam in cb.lambdas])
            traces = np.einsum("nab,cbd,nad->nc", batch.h, covs, batch.h.conj()).real
            expect = (config.k * ev.mi(10.0 / 4 * traces)).max(axis=1)
            assert np.allclose(rows[0], expect, rtol=1e-12, atol=0.0)


class TestAvgReceivedSnr:
    """Mean received SNR rho*Nc/K * (snr-rule objective) and its gap to lmax."""

    def test_oracle_codebook_zero_gap(self):
        # a codebook holding the channel's own eigenbasis and every mode hits
        # lmax exactly, so the gap vanishes realization by realization
        config = make_config(model=iid_model(4, 4), trials=1)
        for stream in range(25):
            batch = draw_trials(config.model, 1, 7, first_stream=stream)
            eig = hermitian_eig(batch.h[0].conj().T @ batch.h[0])
            cb = QuantizedCodebook(
                b=2, n1=1, n2=4, unitaries=[eig.vectors],
                lambdas=[4.0 * np.eye(4)[m] for m in range(4)], k=4, nc=4, nt=4,
            )
            assert snr_rule_values(cb, batch)[0] == pytest.approx(eig.values[0], abs=1e-10)
            assert delta_snr(cb, batch, 1.0)[0] == pytest.approx(0.0, abs=1e-10)

    def test_best_rank_one_dominates_mixed_codebooks_in_mean(self):
        # the weighted-max chain holds for the empirical measure too, so the
        # best rank-one subset (chosen by mean received power on these trials)
        # beats every mixed codebook sharing the unitaries, exactly
        from itertools import combinations

        config = make_config(model=v4_model(), trials=300, snr=(10.0,))
        batch = draw_trials(config.model, config.trials, config.seed)
        rng = Rng(41, 0)
        unitaries = [haar_unitary(4, rng) for _ in range(2)]
        n2 = 2
        scale = 10.0 * config.nc / config.k

        def mean_received(cb):
            return float((scale * snr_rule_values(cb, batch)).mean())

        best = -np.inf
        for modes in combinations(range(4), n2):
            lambdas = [4.0 * np.eye(4)[m] for m in modes]
            cb = QuantizedCodebook(b=2, n1=2, n2=n2, unitaries=unitaries,
                                   lambdas=lambdas, k=4, nc=4, nt=4)
            best = max(best, mean_received(cb))
        for lambdas in random_rank_two_lambdas(10, n2, 4, 4, 4, rng):
            cb = QuantizedCodebook(b=2, n1=2, n2=n2, unitaries=unitaries,
                                   lambdas=lambdas, k=4, nc=4, nt=4)
            assert mean_received(cb) <= best + 1e-9

    def test_mean_bounded_by_lambda_max(self):
        config = make_config(model=v4_model(), trials=200, snr=(0.0, 10.0))
        batch = draw_trials(config.model, config.trials, config.seed)
        cb, _ = best_rank_one_codebook(config, 2, 4, 1, batch=batch)
        for snr in config.snr_grid_db:
            rho = 10.0 ** (snr / 10.0)
            scale = rho * config.nc / config.k
            received = float((scale * snr_rule_values(cb, batch)).mean())
            gap = float(delta_snr(cb, batch, rho).mean())
            cap = scale * batch.eigvals[:, 0].mean()
            assert received <= cap + 1e-9
            assert gap >= -1e-12
            assert received + gap == pytest.approx(cap, rel=1e-12)
