import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ldfeedback import simengine, verify
from ldfeedback.channel import column_powers, custom_model, from_normals, iid_model, top_eigenvalues, v4_model
from ldfeedback.cli import build_experiment, curves_to_csv, parse_config_text
from ldfeedback.codebook import (
    QuantizedCodebook,
    codeword_max,
    delta_mi,
    delta_snr,
    random_rank_two_lambdas,
    s_matrix,
    select_mi,
    select_snr,
    trace_mi,
)
from ldfeedback.errors import InfeasibleError, PreconditionError
from ldfeedback.infotheory import LN2, Constellation, MiEvaluator, block_mi
from ldfeedback.matkit import Rng, haar_unitaries, hermitian_eig
from ldfeedback.simengine import (
    STREAM_TOURNAMENT,
    SimConfig,
    _curve_point,
    best_rank_one_codebook,
    draw_ind_column_powers,
    draw_trials,
    default_unitaries,
    optimize_lambda,
    project_scaled_simplex,
    rank_two_tournament,
    run,
    scheme_block_mi,
)

BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"


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


def run_smat(config, h=None):
    """The s_matrix that run shares between the two codebook searches."""
    if h is None:
        h, _ = draw_trials(config.model, config.trials, config.seed)
    return s_matrix(h, default_unitaries(config))


def draw_inputs(config):
    """config's trials in one draw: h, and the lam_max and ind_col_power that run keeps for perfect and statistical."""
    h, hind = draw_trials(config.model, config.trials, config.seed)
    return h, top_eigenvalues(h), column_powers(hind)


def codebook_rows(config, smat, lambdas):
    """One codebook's per-trial MI-rule block MI in nats, (n_snr, trials): select_mi with config.k at each point."""
    evaluator = MiEvaluator(config.constellation)
    return np.stack([select_mi(smat, lambdas, rho, config.k, config.model.nt, evaluator)
                     for rho in simengine._rhos(config)])


def policy_rows(config, label, policy, kept):
    """The rows scheme_table's score makes of a policy, stacked in grid order: (n_snr, trials) in nats.

    The score makes one (trials,) row per SNR point; each point comes once.
    """
    rows = np.full((len(config.snr_grid_db), len(kept)), np.nan)
    points = []
    for point, row in simengine.scheme_table()[label].score(config, policy, kept):
        points.append(point)
        rows[point] = row
    assert sorted(points) == list(range(len(config.snr_grid_db)))
    return rows


def block_rows(config, label, kept):
    """The per-trial block MI that scheme_block_mi reduces, (n_snr, trials): scheme_table's fit, then its score."""
    return policy_rows(config, label, simengine.scheme_table()[label].fit(config, kept), kept)


def curve_points(config, label, rows):
    """The CurvePoints of (n_snr, trials) rows in nats, each row reduced as scheme_block_mi reduces it."""
    return [_curve_point(snr, label, row / (config.nc * LN2)) for snr, row in zip(config.snr_grid_db, rows)]


def drawn_rank_two_lambdas(config):
    """The config.rank_two_sets codebooks' power diagonals that rank_two_tournament draws."""
    return random_rank_two_lambdas(config.rank_two_sets, config.n2, config.model.nt, config.nc,
                                   config.k, Rng(config.seed, STREAM_TOURNAMENT))


def snr_rule_values(cb, h):
    """SNR-rule objective of the selected codeword on every trial."""
    smat = s_matrix(h, cb.unitaries)
    return select_snr(smat, cb.lambdas, cb.k, cb.nt, cb.nc)


def snr_gap(cb, h, rho):
    """delta_snr of a codebook on every trial of a channel stack."""
    return delta_snr(s_matrix(h, cb.unitaries), cb.lambdas, top_eigenvalues(h), rho, cb.k, cb.nt, cb.nc)


def mi_gap(cb, h, rho, ev):
    """delta_mi of a codebook on every trial of a channel stack."""
    return delta_mi(s_matrix(h, cb.unitaries), cb.lambdas, top_eigenvalues(h), rho, cb.k, cb.nt, cb.nc, ev)


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

    def test_stall_above_tolerance_is_not_converged(self, monkeypatch):
        # an objective flat in floating point: no backtracking step rises above the
        # start, while the projected gradient reads OPT_TOL < |pg| <= 10 * OPT_TOL
        monkeypatch.setattr(simengine, "_sample_mean_mi", lambda *args: 0.0)
        ev = MiEvaluator(Constellation.gaussian())
        cols, lam = np.array([[1.0 + 3.5e-5, 1.0]]), np.ones(2)  # rho = Nt = 2, K = Nc = 1: trace 2
        g = (ev.mmse(cols @ lam)[:, None] * cols).mean(axis=0)
        pg = np.linalg.norm(project_scaled_simplex(lam + g, 2.0) - lam)
        assert simengine.OPT_TOL < pg <= 10 * simengine.OPT_TOL
        res = optimize_lambda(cols, 2.0, 2, 1, 1, ev)
        assert (res.converged, res.iterations) == (False, 1)
        assert res.diag.tolist() == lam.tolist()

    @pytest.mark.parametrize("model", [iid_model(4, 4), v4_model(), "rotated"], ids=["iid4x4", "v4", "rotated-2x3"])
    def test_column_powers_equal_mapping_the_whole_draw(self, model):
        # 2500 samples: two whole windows and a partial one give the bits of
        # mapping the one draw at once, also through non-identity eigenbases
        if model == "rotated":
            model = custom_model(np.full((3, 2), 1.0), haar_unitaries(1, 2, Rng(5, 0))[0],
                                 haar_unitaries(1, 3, Rng(5, 1))[0])
        z = Rng(9, 3).gen.standard_normal((2, 2500, model.nr, model.nt))
        want = column_powers(from_normals(model, z.swapaxes(0, 1))[1])
        assert draw_ind_column_powers(model, 2500, Rng(9, 3)).tobytes() == want.tobytes()

    def test_column_powers_never_apply_the_eigenbases(self):
        # the optimizer reads Hind only: a model whose Ut and Ur cannot be
        # multiplied or conjugated raises if Ur @ Hind @ Ut^H is formed
        model = custom_model(np.full((3, 2), 1.0), haar_unitaries(1, 2, Rng(5, 0))[0],
                             haar_unitaries(1, 3, Rng(5, 1))[0])
        bare = SimpleNamespace(nt=model.nt, nr=model.nr, vmask=model.vmask, ut=None, ur=None, identity_bases=False)
        want = draw_ind_column_powers(model, 2500, Rng(9, 3))
        assert draw_ind_column_powers(bare, 2500, Rng(9, 3)).tobytes() == want.tobytes()
        with pytest.raises((TypeError, ValueError)):
            from_normals(bare, Rng(9, 3).gen.standard_normal((1, 2, 3, 2)))

    def test_column_powers_memory_peak_bounded(self):
        # Bound set before measuring: at 200 000 4x4 samples the (2, samples, 4, 4)
        # draw (51.2 MB) and the (samples, 4) output (6.4 MB) are the only
        # arrays that grow with the sample count; one window's complex Hind and
        # its squared magnitudes stay far below the 1 MiB allowed on top
        samples, model = 200_000, iid_model(4, 4)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cols = draw_ind_column_powers(model, samples, Rng(2, 3))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert cols.shape == (samples, 4)
        assert peak <= (2 * samples * 16 + samples * 4) * 8 + 2**20

    def test_rejects_tiny_sample_count(self):
        for scheme in ("statistical", "statistical-beamforming"):
            with pytest.raises(PreconditionError):
                make_config(schemes=(scheme,), opt_samples=50).validate()
            with pytest.raises(PreconditionError):
                run(make_config(schemes=("perfect", scheme), opt_samples=0))
        # the sample count only matters when a statistical scheme runs
        make_config(schemes=("perfect",), opt_samples=0).validate()
        make_config(schemes=("statistical",), opt_samples=100).validate()

    def test_no_convergence_warns_and_keeps_the_curve(self, monkeypatch):
        config = make_config(model=v4_model(), schemes=("statistical",), trials=20, snr=(0.0, 10.0))
        expect = run(config)
        iterations = []

        def stalled(*args, **kwargs):
            res = optimize_lambda(*args, **kwargs)
            iterations.append(res.iterations)
            return simengine.LambdaStat(diag=res.diag, converged=False, iterations=res.iterations)

        monkeypatch.setattr(simengine, "optimize_lambda", stalled)
        with pytest.warns(RuntimeWarning) as caught:
            got = run(config)
        assert got == expect
        assert [str(w.message) for w in caught] == [
            f"statistical power optimizer did not converge at {snr} dB after {n} iterations; "
            "using its best iterate" for snr, n in zip(config.snr_grid_db, iterations)
        ]


class TestRun:
    def test_perfect_matches_closed_form_per_trial(self):
        config = make_config(trials=40)
        _, lam_max, ind_col_power = draw_inputs(config)
        rows = block_rows(config, "perfect", lam_max)
        for idx, snr in enumerate(config.snr_grid_db):
            rho = 10.0 ** (snr / 10.0)
            expect = config.nc * np.log1p(rho * lam_max)
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
        h, lam_max, _ = draw_inputs(config)
        quant = block_rows(config, "quantized-rank1-best", run_smat(config, h))
        perfect = block_rows(config, "perfect", lam_max)
        assert (quant <= perfect + 1e-9).all()

    def test_all_five_schemes_match_the_searches(self):
        config = make_config(model=iid_model(4, 4), schemes=simengine.SCHEMES, trials=30)
        config = replace(config, rank_two_sets=5)
        got = run(config)
        assert sorted({p.scheme for p in got}) == sorted(simengine.SCHEMES)
        smat = run_smat(config)
        for label, search in (("quantized-rank1-best", best_rank_one_codebook),
                              ("quantized-rank2-best", rank_two_tournament)):
            rows = policy_rows(config, label, search(config, smat), smat)
            assert [p for p in got if p.scheme == label] == curve_points(config, label, rows)
            assert scheme_block_mi(config, label, smat) == curve_points(config, label, rows)

    def test_fits_and_scores_each_scheme_once(self, monkeypatch):
        # every configured scheme is fitted once and its policy scored once, on
        # the same kept values; the two statistical schemes share theirs, and so
        # do the two codebook searches
        config = replace(make_config(model=iid_model(4, 4), schemes=simengine.SCHEMES, trials=10),
                         rank_two_sets=3)
        want = run(config)
        table, calls = simengine.scheme_table, []

        def recorded(label, step, fn):
            def wrapper(config, *args):
                calls.append((label, step, id(args[-1])))
                return fn(config, *args)
            return wrapper

        def recorded_table():
            return {label: rule._replace(fit=recorded(label, "fit", rule.fit),
                                         score=recorded(label, "score", rule.score))
                    for label, rule in table().items()}

        monkeypatch.setattr(simengine, "scheme_table", recorded_table)
        assert run(config) == want
        kept = {label: ident for label, step, ident in calls if step == "fit"}
        assert [(label, step) for label, step, _ in calls] == [
            (label, step) for label in config.schemes for step in ("fit", "score")]
        assert all(kept[label] == ident for label, step, ident in calls if step == "score")
        assert len(set(kept.values())) == 3

    @pytest.mark.parametrize("schemes", [
        ("quantized-rank1-best",), ("quantized-rank2-best",),
        ("quantized-rank2-best", "quantized-rank1-best"),
    ])
    def test_quantized_only(self, schemes):
        config = replace(make_config(model=iid_model(4, 4), schemes=schemes, trials=10),
                         rank_two_sets=3)
        got = run(config)
        assert {p.scheme for p in got} == set(schemes)
        assert len(got) == len(schemes) * len(config.snr_grid_db)

    def test_one_draw_and_one_s_matrix_per_window(self, monkeypatch):
        # 10 trials in windows of 4: three draws of 4, 4 and 2 trials at streams
        # 0, 4 and 8, each followed by its s_matrix rows
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append((fn.__name__, len(args[0]) if fn is s_matrix else args[1],
                              kwargs.get("first_stream")))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(simengine, "TRIAL_WINDOW", 4)
        monkeypatch.setattr(simengine, "draw_trials", counted(draw_trials))
        monkeypatch.setattr(simengine, "s_matrix", counted(s_matrix))
        config = make_config(model=iid_model(4, 4), schemes=simengine.SCHEMES, trials=10)
        run(replace(config, rank_two_sets=3))
        assert calls == [("draw_trials", 4, 0), ("s_matrix", 4, None), ("draw_trials", 4, 4),
                         ("s_matrix", 4, None), ("draw_trials", 2, 8), ("s_matrix", 2, None)]

    @pytest.mark.parametrize("constellation", ["gaussian", "bpsk"])
    @pytest.mark.parametrize("window", [1, 7, 30])
    def test_csv_independent_of_window(self, constellation, window, monkeypatch):
        # every scheme on 30 trials: windows of 1, of 7 (a partial last window)
        # and of the whole run give the same CSV, byte for byte, as the default
        config = replace(make_config(model=v4_model(), schemes=simengine.SCHEMES, trials=30, opt_samples=200),
                         constellation=Constellation(constellation), n1=2, n2=2, rank_two_sets=4)
        want = curves_to_csv(run(config))
        monkeypatch.setattr(simengine, "TRIAL_WINDOW", window)
        assert curves_to_csv(run(config)) == want

    @staticmethod
    def traced_peak(config):
        """tracemalloc's peak of run(config) above the memory traced before it, in bytes."""
        run(config)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run(config)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_memory_peak_bounded(self):
        # Bound set before measuring: gauss_iid4x4's schemes and grid at 10 000
        # trials, with 10 rank-two sets (the tournament's memory does not grow
        # with their number). run holds lam_max and the (trials, N1, Nt)
        # s_matrix (1.36 MB in all), one window's draw and a few (trials,) rows,
        # never the whole run's channels or an (n_snr, trials) block
        config = replace(make_config(model=iid_model(4, 4), trials=10_000, snr=tuple(range(0, 21, 2)),
                                     schemes=("perfect", "quantized-rank1-best", "quantized-rank2-best")),
                         rank_two_sets=10)
        assert self.traced_peak(config) <= 3.0 * 2**20

    def test_memory_peak_independent_of_grid(self):
        # Bound set before measuring: every scheme is scored one SNR point at a
        # time, so 33 points instead of 3 add no (trials,) row to the peak; the
        # bound, two rows, leaves room for the per-point policies and CurvePoints
        config = replace(make_config(model=iid_model(4, 4), trials=10_000, schemes=simengine.SCHEMES),
                         rank_two_sets=5)
        few = self.traced_peak(replace(config, snr_grid_db=[0.0, 10.0, 20.0]))
        many = self.traced_peak(replace(config, snr_grid_db=[x / 2 - 6.0 for x in range(33)]))
        assert many - few < 2 * config.trials * 8

    def test_rejects_bad_labels_before_drawing(self, monkeypatch):
        draws = []

        def counted(*args, **kwargs):
            draws.append(1)
            return draw_trials(*args, **kwargs)

        monkeypatch.setattr(simengine, "draw_trials", counted)
        repeated = ["perfect", "perfect", "quantized-rank1-best", "quantized-rank1-best"]
        with pytest.raises(PreconditionError, match="repeated scheme 'perfect'"):
            run(make_config(model=iid_model(4, 4), schemes=repeated))
        with pytest.raises(PreconditionError, match="unknown scheme 'x'"):
            run(make_config(schemes=("perfect", "x")))
        assert draws == []

    def test_rejects_bad_split(self, monkeypatch):
        draws = []

        def counted(*args, **kwargs):
            draws.append(1)
            return draw_trials(*args, **kwargs)

        monkeypatch.setattr(simengine, "draw_trials", counted)
        for split in ({"n1": 2}, {"n1": 0, "n2": 4}, {"n1": -1, "n2": -4}, {"b": 3}, {"b": -1, "n1": 1}):
            with pytest.raises(PreconditionError, match="must equal 2"):
                run(replace(make_config(), **split))
        config = make_config(schemes=("perfect", "quantized-rank2-best"))
        with pytest.raises(PreconditionError, match="rank_two_sets"):
            run(replace(config, rank_two_sets=0))
        # N2 = 4 modes out of Nt = 2 leaves no rank-one candidate
        rank_one = make_config(schemes=("quantized-rank1-best",))
        with pytest.raises(PreconditionError, match="no rank-one candidates for Nt = 2, N2 = 4"):
            run(replace(rank_one, n1=1, n2=4))
        # one transmit antenna has no mode pair for a rank-two allocation
        single = make_config(model=iid_model(1, 2), schemes=("quantized-rank2-best",), nc=1)
        with pytest.raises(PreconditionError, match="rank-two allocations need Nt >= 2"):
            run(single)
        assert draws == []
        # the tournament size only matters when the tournament runs, and
        # the mode counts only when their search runs
        replace(make_config(), rank_two_sets=0).validate()
        replace(make_config(), n1=1, n2=4).validate()
        replace(single, schemes=["perfect"]).validate()

    def test_statistical_below_perfect_per_trial(self):
        config = make_config(model=v4_model(), schemes=("statistical",), trials=40)
        _, lam_max, ind_col_power = draw_inputs(config)
        stat = block_rows(config, "statistical", ind_col_power)
        perfect = block_rows(config, "perfect", lam_max)
        assert (stat <= perfect + 1e-9).all()


class TestDrawsFactorNothing:
    """A draw is its channels: np.linalg.eigvalsh runs only where an eigenvalue is read."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    def test_draws(self, eigvalsh_calls):
        model = v4_model()
        assert len(list(simengine.trial_windows(model, 3000, 5, evals_per_trial=3))) == 9
        draw_trials(model, 100, 5, first_stream=7)
        assert eigvalsh_calls == []

    @pytest.mark.parametrize("name", ["thm4", "thm5", "goc"])
    def test_suites_reading_only_channels(self, eigvalsh_calls, name):
        verify.SUITES[name]()
        assert eigvalsh_calls == []

    def test_run_factors_each_window_once(self, eigvalsh_calls, monkeypatch):
        # perfect reads the top eigenvalues: 10 trials in windows of 4, 4 and 2
        monkeypatch.setattr(simengine, "TRIAL_WINDOW", 4)
        run(make_config(model=iid_model(4, 4), trials=10))
        assert eigvalsh_calls == [(4, 4, 4), (4, 4, 4), (2, 4, 4)]

    def test_run_without_perfect_factors_nothing(self, eigvalsh_calls, monkeypatch):
        monkeypatch.setattr(simengine, "TRIAL_WINDOW", 4)
        run(make_config(model=iid_model(4, 4), schemes=("statistical", "quantized-rank1-best"), trials=10))
        assert eigvalsh_calls == []


class TestRotatedEigenbases:
    """Metamorphic relations: a model with eigenbases Ut and Ur draws the Hind of the same model without them.

    So lambda_max of H^H H and the column powers of Hind are unchanged, and
    the perfect, statistical and statistical-beamforming rows of
    custom_model(vmask, ut, ur) equal those of custom_model(vmask) up to the
    rounding of H = Ur @ Hind @ Ut^H and of the eigenvalues. The quantized
    rows of the rotated model with unitaries U_i equal those of the plain
    model with Ut^H U_i, a relation a wrong unitary side or a missing
    conjugate breaks. Bound stated before the first run: every per-trial
    value and every curve mean within 1e-12 relative, and every stderr
    within 1e-12 of the curve's largest per-trial value (the stderr moves by
    at most that much when each value moves by at most 1e-12 relative).
    """

    SCHEMES = ("perfect", "statistical", "statistical-beamforming")
    QUANTIZED = ("quantized-rank1-best", "quantized-rank2-best")
    REL = 1e-12
    NOT_CONVERGED = "statistical power optimizer did not converge at "

    @given(nt=st.sampled_from([2, 4]), unitary_seed=st.integers(0, 2**32 - 1),
           constellation=st.sampled_from(["gaussian", "bpsk"]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rows_equal_without_the_eigenbases(self, nt, unitary_seed, constellation, data):
        raw = data.draw(arrays(np.float64, (nt, nt), elements=st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0])))
        raw[0, 0] += 1.0  # some power, wherever the zeros fall
        # a mask whose live columns tie leaves the optimizer's sample objective
        # flat, so it may stop at OPT_MAX_ITER and warn; no other warning is allowed
        for category, message in self.warnings_of_rows_equal(raw, unitary_seed, constellation):
            assert category is RuntimeWarning and message.startswith(self.NOT_CONVERGED), message

    def test_rows_equal_on_a_flat_objective(self):
        # power only at (0, 0) and (0, 2): two modes carry nothing and the
        # 100-sample objective is flat between the other two, so at 20 dB the
        # optimizer stops at OPT_MAX_ITER near the optimum; the rows still agree
        raw = np.zeros((4, 4))
        raw[0, 0] = raw[0, 2] = 1.0
        found = self.warnings_of_rows_equal(raw, 0, "gaussian")
        assert found
        for category, message in found:
            assert category is RuntimeWarning and message.startswith(self.NOT_CONVERGED + "20.0 dB"), message

    def warnings_of_rows_equal(self, raw, unitary_seed, constellation):
        """Check the relation for the (Nt, Nt) mask raw, normalized; returns the (category, message) it warned."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.check_rows_equal(raw, unitary_seed, constellation)
        return [(w.category, str(w.message)) for w in caught]

    @given(nt=st.sampled_from([2, 4]), unitary_seed=st.integers(0, 2**32 - 1),
           constellation=st.sampled_from(["gaussian", "bpsk"]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_quantized_rows_equal_with_the_rotated_family(self, nt, unitary_seed, constellation, data):
        # H u = Ur Hind (Ut^H u), so the rotated model's s_matrix with the unitaries
        # U_i is the plain model's with Ut^H U_i up to the rounding of the two
        # products, and so are both searches' rows; the same REL bound, stated
        # before the first run. A flipped winner shows as a row off by far more
        raw = data.draw(arrays(np.float64, (nt, nt), elements=st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0])))
        raw[0, 0] += 1.0
        config, turned, ut = self.rotated_configs(raw, unitary_seed, constellation, self.QUANTIZED)
        family = default_unitaries(turned)
        got_points = run(turned)
        turned_smat = s_matrix(draw_trials(turned.model, turned.trials, turned.seed)[0], family)
        smat = s_matrix(draw_trials(config.model, config.trials, config.seed)[0], ut.conj().T @ family)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simengine, "default_unitaries", lambda c: ut.conj().T @ family)
            want_points = run(config)
        self.assert_rows_close(config, [(scheme, block_rows(config, scheme, smat),
                                         block_rows(turned, scheme, turned_smat)) for scheme in self.QUANTIZED],
                               want_points, got_points)

    def rotated_configs(self, raw, unitary_seed, constellation, schemes):
        """The configs of the (Nt, Nt) mask raw, normalized, without and with Haar eigenbases; and their Ut."""
        nt = len(raw)
        vmask = raw * (nt * nt / raw.sum())
        ut, ur = haar_unitaries(2, nt, Rng(unitary_seed, 0))
        config = replace(make_config(model=custom_model(vmask), schemes=schemes, trials=40, snr=(-10.0, 5.0, 20.0),
                                     opt_samples=100), constellation=Constellation(constellation))
        turned = replace(config, model=custom_model(vmask, ut, ur))
        assert not turned.model.identity_bases
        return config, turned, ut

    def assert_rows_close(self, config, rows, want_points, got_points):
        """Each (scheme, want, got) of per-trial rows within REL, and the CurvePoints likewise (stderr: see above)."""
        largest = {}
        for scheme, want, got in rows:
            assert (np.abs(got - want) <= self.REL * np.abs(want)).all(), scheme
            for snr, row in zip(config.snr_grid_db, want):
                largest[scheme, snr] = row.max() / (config.nc * LN2)
        assert len(want_points) == len(got_points)
        for want, got in zip(want_points, got_points):
            assert (got.scheme, got.snr_db, got.trials) == (want.scheme, want.snr_db, want.trials)
            assert abs(got.mi_bits_per_use - want.mi_bits_per_use) <= self.REL * abs(want.mi_bits_per_use)
            assert abs(got.stderr - want.stderr) <= self.REL * largest[want.scheme, want.snr_db]

    def check_rows_equal(self, raw, unitary_seed, constellation):
        config, turned, _ = self.rotated_configs(raw, unitary_seed, constellation, self.SCHEMES)
        _, lam_max, cols = draw_inputs(config)
        _, turned_lam_max, turned_cols = draw_inputs(turned)
        assert turned_cols.tobytes() == cols.tobytes()
        rows = [(scheme, block_rows(config, scheme, kept), block_rows(turned, scheme, turned_kept))
                for scheme, kept, turned_kept in (("perfect", lam_max, turned_lam_max),
                                                  ("statistical", cols, turned_cols),
                                                  ("statistical-beamforming", cols, turned_cols))]
        self.assert_rows_close(config, rows, run(config), run(turned))


class TestRunColumnPowers:
    """run takes the column powers of Hind only when a statistical scheme reads them."""

    @pytest.fixture
    def column_power_calls(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(len(x))
            return column_powers(x)

        monkeypatch.setattr(simengine, "column_powers", counted)
        monkeypatch.setattr(simengine, "TRIAL_WINDOW", 4)
        return calls

    def test_none_for_perfect_and_quantized(self, column_power_calls):
        run(make_config(model=iid_model(4, 4), schemes=("perfect", "quantized-rank1-best"), trials=10))
        assert column_power_calls == []

    def test_one_per_window_with_statistical(self, column_power_calls):
        # windows of 4, 4 and 2 trials, then the optimizer's own draw of opt_samples Hind,
        # mapped in windows of 4 samples
        config = make_config(model=iid_model(4, 4), schemes=("perfect", "statistical"), trials=10, opt_samples=102)
        run(config)
        assert column_power_calls == [4, 4, 2] + [4] * 25 + [2]


class TestBestRankOne:
    def test_candidate_counts_match_split(self, monkeypatch):
        # one scored candidate per size-N2 subset of the Nt modes: C(Nt, N2)
        scored = []

        def counted(smat, lambdas):
            scored.append(lambdas)
            return codeword_max(smat, lambdas)

        monkeypatch.setattr(simengine, "codeword_max", counted)
        for nt, n1, n2, count in ((4, 4, 1, 4), (4, 2, 2, 6), (2, 2, 2, 1)):
            scored.clear()
            config = replace(make_config(model=iid_model(nt, nt), trials=10), n1=n1, n2=n2)
            best_rank_one_codebook(config, run_smat(config))
            assert len(scored) == count == math.comb(nt, n2)
            assert all(lam.shape == (n2, nt) for lam in scored)

    def test_scores_each_candidate_once_per_point(self, monkeypatch):
        # six candidates: one codeword max each, then scored at every SNR point,
        # also on V4, whose one strong mode puts most candidates' Jensen bounds
        # far below the best score; every scoring makes a fresh (trials,) row,
        # sharing memory with neither the traces nor another row. Its policy's
        # score takes the winner's codeword max once and makes one fresh row per
        # point, equal to scoring the winner alone, and the winner's score is
        # the largest
        maxima, scored = [], []

        def recorded_max(smat, lambdas):
            maxima.append(lambdas)
            return codeword_max(smat, lambdas)

        def recorded_mi(traces, rho, k, nt, evaluator):
            assert np.ndim(rho) == 0 and traces.shape == (config.trials,)
            row = trace_mi(traces, rho, k, nt, evaluator)
            assert row.shape == traces.shape and not np.shares_memory(row, traces)
            scored.append(row)
            return row

        def fresh_rows():
            return not any(np.shares_memory(a, b) for a, b in itertools.combinations(scored, 2))

        monkeypatch.setattr(simengine, "codeword_max", recorded_max)
        monkeypatch.setattr(simengine, "trace_mi", recorded_mi)
        for model in (iid_model(4, 4), v4_model()):
            for recorder in (maxima, scored):
                recorder.clear()
            config = replace(make_config(model=model, trials=200), n1=2, n2=2)
            smat = run_smat(config)
            codebooks, winners = best_rank_one_codebook(config, smat)
            assert len(maxima) == 6
            assert len(scored) == math.comb(4, 2) * len(config.snr_grid_db) and fresh_rows()
            for recorder in (maxima, scored):
                recorder.clear()
            rows = policy_rows(config, "quantized-rank1-best", (codebooks, winners), smat)
            assert len(maxima) == 1 and np.array_equal(maxima[0], codebooks[0])
            assert len(scored) == len(config.snr_grid_db) and fresh_rows()
            assert np.array_equal(rows, codebook_rows(config, smat, codebooks[0]))
            assert max(
                codebook_rows(config, smat, 4.0 * np.eye(4)[list(modes)]).mean(axis=1).sum()
                for modes in itertools.combinations(range(4), 2)
            ) == rows.mean(axis=1).sum()

    def test_memory_peak_bounded(self):
        # Bound set before measuring: fit and score hold no (n_snr, trials)
        # block. The fit holds one candidate's (trials, N1, N2) einsum, its
        # codeword max and the previous candidate's; scoring a point holds the
        # candidate's codeword max and the kernel's fresh (trials,) rows, three
        # at a time, fewer than the einsum. The score holds the winner's
        # codeword max, one point's row and std's deviation. So (N1*N2 + 4)
        # (trials,) arrays bound the peak at 10 000 trials, whatever the number
        # of SNR points
        config = replace(make_config(model=iid_model(4, 4), trials=10_000, snr=tuple(range(0, 21, 2))),
                         n1=2, n2=2)
        smat = run_smat(config)
        scheme_block_mi(config, "quantized-rank1-best", smat)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            scheme_block_mi(config, "quantized-rank1-best", smat)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= (config.n1 * config.n2 + 4) * config.trials * 8

    def test_returns_single_mode_codebook(self):
        config = make_config(model=iid_model(4, 4), trials=30)
        smat = run_smat(config)
        codebooks, winners = best_rank_one_codebook(config, smat)
        assert codebooks.shape == (1, config.n2, 4) == (1, 1, 4)
        assert (codebooks > 0).sum() == 1
        assert winners.tolist() == [0] * len(config.snr_grid_db)
        rows = policy_rows(config, "quantized-rank1-best", (codebooks, winners), smat)
        assert rows.shape == (len(config.snr_grid_db), config.trials)

    def test_ties_keep_the_first_candidate(self):
        # every mode receives the same power on every trial, so all four
        # single-mode candidates score the same
        config = make_config(model=iid_model(4, 4), trials=10)
        codebooks, _ = best_rank_one_codebook(config, np.ones_like(run_smat(config)))
        assert np.flatnonzero(codebooks).tolist() == [0]

    def test_iid_candidates_statistically_indistinguishable(self):
        config = make_config(model=iid_model(4, 4), trials=400, snr=(10.0,))
        smat = run_smat(config)
        means, errs = [], []
        for lam in 4.0 * np.eye(4):
            rows = codebook_rows(config, smat, lam[None])
            rows = rows / (4 * LN2)
            means.append(rows[0].mean())
            errs.append(rows[0].std(ddof=1) / math.sqrt(config.trials))
        spread = max(means) - min(means)
        assert spread <= 3 * (max(errs) + min(errs))


class TestRankTwoTournament:
    def test_memory_peak_bounded(self):
        # Bound set before measuring: fit and score hold no (n_snr, trials)
        # block. Each codebook adds its (trials, N1, N2) einsum and its codeword
        # max beside the previous one's, and is scored one point at a time, each
        # point's fresh (trials,) rows dropped before the next point's are made;
        # the score holds one winner's codeword max, one point's row and std's
        # deviation. So (N1*N2 + 4) (trials,) arrays bound the peak at the
        # benchmark's 10 000 trials, where fixed overheads are small.
        config = replace(make_config(trials=10_000, snr=tuple(range(0, 21, 2))), rank_two_sets=10)
        smat = run_smat(config)
        scheme_block_mi(config, "quantized-rank2-best", smat)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            scheme_block_mi(config, "quantized-rank2-best", smat)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= (config.n1 * config.n2 + 4) * config.trials * 8

    def test_single_entry_is_its_own_best(self):
        config = replace(make_config(model=iid_model(4, 4), trials=25), rank_two_sets=1)
        smat = run_smat(config)
        codebooks, winners = rank_two_tournament(config, smat)
        assert codebooks.tobytes() == drawn_rank_two_lambdas(config).tobytes()
        assert winners.tolist() == [0] * len(config.snr_grid_db)
        rows = policy_rows(config, "quantized-rank2-best", (codebooks, winners), smat)
        assert np.array_equal(rows, codebook_rows(config, smat, drawn_rank_two_lambdas(config)[0]))

    def test_every_entry_below_perfect(self):
        config = replace(make_config(model=iid_model(4, 4), trials=40), rank_two_sets=10)
        perfect = {p.snr_db: p.mi_bits_per_use for p in run(config)}
        smat = run_smat(config)
        table = [codebook_rows(config, smat, lambdas) for lambdas in drawn_rank_two_lambdas(config)]
        table.append(policy_rows(config, "quantized-rank2-best", rank_two_tournament(config, smat), smat))
        for rows in table:
            for p in curve_points(config, "quantized-rank2", rows):
                assert p.mi_bits_per_use <= perfect[p.snr_db] + 1e-9

    @pytest.mark.parametrize("model, n1, n2, sets, case", [
        (iid_model(4, 4), 4, 1, 10, "one-winner"),
        (v4_model(), 2, 2, 20, "winner-changes-along-the-grid"),
        (iid_model(2, 2), 4, 1, 50, "one-winner"),
        (iid_model(4, 4), 2, 2, 10, "tie"),
    ], ids=["iid4x4", "v4-n2-2", "iid2x2", "constant-smat-tie"])
    def test_running_best_matches_the_full_table(self, model, n1, n2, sets, case):
        # slow reference: score every drawn codebook, then take the per-SNR
        # argmax (ties go to the first); a constant s_matrix gives every
        # codeword the full budget's trace, so every codebook ties
        config = replace(make_config(model=model, trials=60, snr=(-10.0, 0.0, 10.0, 20.0)),
                         n1=n1, n2=n2, rank_two_sets=sets)
        smat = run_smat(config)
        if case == "tie":
            smat = np.ones_like(smat)
        table = np.stack([codebook_rows(config, smat, lambdas)
                          for lambdas in drawn_rank_two_lambdas(config)])
        want = np.stack([rows.mean(axis=1) for rows in table]).argmax(axis=0)
        policy = rank_two_tournament(config, smat)
        winners, rows = policy[1], policy_rows(config, "quantized-rank2-best", policy, smat)
        assert winners.tolist() == want.tolist()
        assert np.array_equal(rows, table[want, np.arange(len(want))])
        distinct = len(set(winners.tolist()))
        assert distinct > 1 if case == "winner-changes-along-the-grid" else distinct == 1
        if case == "tie":
            assert winners.tolist() == [0] * len(want)


def exhaustive_rank_one(config, smat):
    """best_rank_one_codebook without the Jensen skip: every candidate scored at every point.

    Returns its policy and the winner's rows, made by select_mi.
    """
    nt = config.model.nt
    k, evaluator, rhos = config.k, MiEvaluator(config.constellation), simengine._rhos(config)
    budget = nt * config.nc / k
    means = np.empty(rhos.size)
    best = None
    for modes in itertools.combinations(range(nt), config.n2):
        lambdas = budget * np.eye(nt)[list(modes)]
        traces = codeword_max(smat, lambdas)
        for idx, rho in enumerate(rhos):
            means[idx] = trace_mi(traces, rho, k, nt, evaluator).mean()
        score = float(means.sum())
        if best is None or score > best[0]:
            best = (score, lambdas)
    return (best[1][None], np.zeros(rhos.size, dtype=int)), codebook_rows(config, smat, best[1])


def exhaustive_tournament(config, smat):
    """rank_two_tournament without the Jensen skip: every codebook scored at every point.

    Returns its policy and its rows, each point's row the winner's scored row.
    """
    nt = config.model.nt
    k, evaluator, rhos = config.k, MiEvaluator(config.constellation), simengine._rhos(config)
    winners = np.zeros(rhos.size, dtype=int)
    best = np.empty(rhos.size)
    rows = np.empty((rhos.size, smat.shape[0]))
    lamsets = drawn_rank_two_lambdas(config)
    for idx, lambdas in enumerate(lamsets):
        traces = codeword_max(smat, lambdas)
        for point, rho in enumerate(rhos):
            row = trace_mi(traces, rho, k, nt, evaluator)
            score = row.mean()
            if idx == 0 or score > best[point]:
                rows[point] = row
                best[point] = score
                winners[point] = idx
    return (lamsets, winners), rows


def assert_searches_match_exhaustive(config, smat):
    """Both codebook searches fit the exhaustive loops' policies, whose scores are their rows, bit for bit."""
    for label, search, reference in (("quantized-rank1-best", best_rank_one_codebook, exhaustive_rank_one),
                                     ("quantized-rank2-best", rank_two_tournament, exhaustive_tournament)):
        got, (want, want_rows) = search(config, smat), reference(config, smat)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert policy_rows(config, label, got, smat).tobytes() == want_rows.tobytes()


class TestJensenSkip:
    """The Gaussian searches skip what their Jensen bound rules out and pick the same winners."""

    @pytest.mark.parametrize("offset", [0, 5])
    @pytest.mark.parametrize("label", ["gauss_iid2x2", "gauss_iid4x4", "gauss_v4"])
    def test_bench_configs_match_exhaustive(self, label, offset):
        values = parse_config_text((BENCH_CONFIGS / f"{label}.cfg").read_text())
        config = build_experiment(values, cli_seed=int(values["seed"]) + offset)
        assert_searches_match_exhaustive(config, run_smat(config))

    @given(n=st.integers(1, 40), n1=st.integers(1, 3), nt=st.integers(2, 4), n2=st.integers(1, 2),
           sets=st.integers(1, 12), pattern=st.sampled_from(["random", "modes-equal", "zero"]),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_smat_matches_exhaustive(self, n, n1, nt, n2, sets, pattern, data):
        smat = data.draw(arrays(np.float64, (n, n1, nt),
                                elements=st.floats(0.0, 50.0, allow_nan=False, allow_subnormal=False)))
        if pattern == "modes-equal":  # every codeword's trace is the same on a trial
            smat = np.broadcast_to(smat[..., :1], smat.shape).copy()
        elif pattern == "zero":
            smat = np.zeros_like(smat)
        snr = sorted(data.draw(st.sets(st.integers(-20, 30), min_size=1, max_size=6)))
        config = replace(make_config(model=iid_model(nt, nt), trials=n, snr=snr),
                         n1=n1, n2=n2, rank_two_sets=sets)
        assert_searches_match_exhaustive(config, smat)

    def test_ties_match_exhaustive(self):
        # every single-mode candidate sees the same per-trial powers, permuted
        # over the trials, so all four candidates tie in exact arithmetic; the
        # powers differ by 1e-9 relative, so each Jensen bound exceeds its score
        # by far less than rounding and only the margin keeps a candidate whose
        # score rounds above the best from being skipped
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 80))
            powers = 1.0 + 1e-9 * rng.random(n)
            smat = np.stack([rng.permutation(powers) for _ in range(4)], axis=1)[:, None, :]
            config = replace(make_config(model=iid_model(4, 4), trials=n, snr=(-10.0, 0.0, 10.0, 20.0)),
                             n1=1, n2=1, rank_two_sets=20)
            assert_searches_match_exhaustive(config, smat)

    def test_skips_gaussian_points_only(self, monkeypatch):
        # V4 has one strong mode, so most codebooks are ruled out by their bound;
        # a discrete alphabet's table is not certified concave and scores everything
        scored = []

        def counted(traces, rho, k, nt, evaluator):
            scored.append(rho)
            return trace_mi(traces, rho, k, nt, evaluator)

        monkeypatch.setattr(simengine, "trace_mi", counted)
        config = replace(make_config(model=v4_model(), trials=200), n1=2, n2=1, rank_two_sets=20)
        smat = run_smat(config)
        points = len(config.snr_grid_db)
        for constellation, skips in ((Constellation.gaussian(), True), (Constellation.bpsk(), False)):
            config = replace(config, constellation=constellation)
            scored.clear()
            rank_two_tournament(config, smat)
            assert (len(scored) < config.rank_two_sets * points) == skips
            assert len(scored) >= points


def full_budget_modes(config):
    """The Nt full-budget single modes that statistical-beamforming picks from, as (Nt, Nt) rows."""
    return config.model.nt * config.nc / config.k * np.eye(config.model.nt)


def fit_single_mode(config, cols):
    """statistical-beamforming's fit with cols, (samples, Nt), in place of its optimizer sample."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simengine, "_opt_sample", lambda config: cols)
        return simengine._fit_single_mode(config, None)


def exhaustive_single_mode(config, cols):
    """statistical-beamforming's winners without the Jensen skip: every mode scored at every point.

    The objective is the fit's: K times the sample mean of I(max(t, 0) * rho/Nt)
    of a mode's traces t = cols @ lambda. Ties go to the first mode.
    """
    nt, k, evaluator = config.model.nt, config.k, MiEvaluator(config.constellation)
    means = np.array([[trace_mi(cols @ lam, rho, k, nt, evaluator).mean() for rho in simengine._rhos(config)]
                      for lam in full_budget_modes(config)])
    return means.argmax(axis=0)


class TestSingleModeSkip:
    """statistical-beamforming's fit skips what the Jensen bound rules out and picks the same modes."""

    @given(n=st.integers(1, 40), nt=st.integers(2, 4), pattern=st.sampled_from(["random", "modes-equal", "zero"]),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_cols_match_exhaustive(self, n, nt, pattern, data):
        cols = data.draw(arrays(np.float64, (n, nt),
                                elements=st.floats(0.0, 50.0, allow_nan=False, allow_subnormal=False)))
        if pattern == "modes-equal":  # every mode sees the same power on a sample
            cols = np.broadcast_to(cols[:, :1], cols.shape).copy()
        elif pattern == "zero":
            cols = np.zeros_like(cols)
        snr = sorted(data.draw(st.sets(st.integers(-20, 30), min_size=1, max_size=6)))
        config = make_config(model=iid_model(nt, nt), snr=snr)
        want = exhaustive_single_mode(config, cols)
        assert fit_single_mode(config, cols).tobytes() == full_budget_modes(config)[want].tobytes()

    def test_ties_match_exhaustive(self):
        # the four modes see the same powers, permuted over the samples, and
        # differ by 1e-9 relative: only the margin keeps a mode whose score
        # rounds above the best from being skipped
        for seed in range(200):
            rng = np.random.default_rng(seed)
            powers = 1.0 + 1e-9 * rng.random(int(rng.integers(5, 80)))
            cols = np.stack([rng.permutation(powers) for _ in range(4)], axis=1)
            config = make_config(model=iid_model(4, 4), snr=(-10.0, 0.0, 10.0, 20.0))
            want = exhaustive_single_mode(config, cols)
            assert fit_single_mode(config, cols).tobytes() == full_budget_modes(config)[want].tobytes()

    @pytest.mark.parametrize("offset", [0, 5])
    def test_bench_config_matches_sample_mean_mi(self, offset):
        # the winners of the objective the fit maximized before it shared the
        # codebook searches' loop: the sample mean of I(rho/Nt * cols @ lambda)
        values = parse_config_text((BENCH_CONFIGS / "gauss_iid2x2.cfg").read_text())
        config = build_experiment(values, cli_seed=int(values["seed"]) + offset)
        nt, evaluator, cols = config.model.nt, MiEvaluator(config.constellation), simengine._opt_sample(config)
        modes = full_budget_modes(config)
        want = [np.argmax([simengine._sample_mean_mi(cols, lam, rho, nt, evaluator) for lam in modes])
                for rho in simengine._rhos(config)]
        assert simengine._fit_single_mode(config, None).tobytes() == modes[want].tobytes()
        assert want == exhaustive_single_mode(config, cols).tolist()

    def test_skips_gaussian_points_only(self, monkeypatch):
        # V4 has one strong column, so the bound rules out the other modes at
        # most points; a discrete alphabet's table scores every mode
        scored = []

        def counted(traces, rho, k, nt, evaluator):
            scored.append(rho)
            return trace_mi(traces, rho, k, nt, evaluator)

        monkeypatch.setattr(simengine, "trace_mi", counted)
        config = make_config(model=v4_model())
        points = len(config.snr_grid_db)
        for constellation, skips in ((Constellation.gaussian(), True), (Constellation.bpsk(), False)):
            scored.clear()
            simengine._fit_single_mode(replace(config, constellation=constellation), None)
            assert (len(scored) < config.model.nt * points) == skips
            assert len(scored) >= points


class TestStackedMatchesSingle:
    """Row t of a stacked evaluation equals the n = 1 evaluation of trial t, bit for bit.

    The stacked channels and their top eigenvalues are put together from
    trial_windows' windows of 7 here, so 25 trials leave a partial last
    window. Both the Gaussian kernel and the BPSK table are elementwise.
    """

    TRIALS = 25

    @pytest.fixture
    def trials(self, monkeypatch):
        monkeypatch.setattr(simengine, "TRIAL_WINDOW", 7)
        model = v4_model()
        windows = [h for _, h, _ in simengine.trial_windows(model, self.TRIALS, 4242)]
        h = np.concatenate(windows)
        lam_max = np.concatenate([top_eigenvalues(w) for w in windows])
        singles = [draw_trials(model, 1, 4242, first_stream=t)[0] for t in range(self.TRIALS)]
        rng = Rng(4242, 1)
        cb = QuantizedCodebook(b=2, n1=2, n2=2, unitaries=haar_unitaries(2, 4, rng),
                               lambdas=random_rank_two_lambdas(1, 2, 4, 4, 4, rng)[0],
                               k=4, nc=4, nt=4)
        return h, lam_max, singles, cb

    def test_hermitian_eig(self, trials):
        h, _, singles, _ = trials
        grams = np.swapaxes(h.conj(), -1, -2) @ h
        stacked = hermitian_eig(grams)
        for t, one in enumerate(singles):
            assert np.array_equal(h[t], one[0])
            alone = hermitian_eig(grams[t])
            assert np.array_equal(stacked.values[t], alone.values)
            assert np.array_equal(stacked.vectors[t], alone.vectors)

    def test_lam_max(self, trials):
        # windows of 7, one draw of every trial and one trial per call give the same bits
        _, lam_max, singles, _ = trials
        for t, one in enumerate(singles):
            assert np.array_equal(lam_max[t], top_eigenvalues(one)[0])
        assert np.array_equal(top_eigenvalues(draw_trials(v4_model(), self.TRIALS, 4242)[0]), lam_max)

    def test_mi_rule(self, trials):
        h, _, singles, cb = trials
        for kind in ("gaussian", "bpsk"):
            ev = MiEvaluator(Constellation(kind))
            for rho in (0.5, 10.0):
                stacked = select_mi(s_matrix(h, cb.unitaries), cb.lambdas, rho, 4, 4, ev)
                for t, one in enumerate(singles):
                    alone = select_mi(s_matrix(one, cb.unitaries), cb.lambdas, rho, 4, 4, ev)
                    assert stacked[t] == alone[0]

    def test_snr_rule(self, trials):
        h, _, singles, cb = trials
        stacked = select_snr(s_matrix(h, cb.unitaries), cb.lambdas, 4, 4, 4)
        for t, one in enumerate(singles):
            alone = select_snr(s_matrix(one, cb.unitaries), cb.lambdas, 4, 4, 4)
            assert stacked[t] == alone[0]

    def test_gaps(self, trials):
        h, _, singles, cb = trials
        for rho in (1.0, 10.0):
            gap_snr = snr_gap(cb, h, rho)
            for t, one in enumerate(singles):
                assert gap_snr[t] == snr_gap(cb, one, rho)[0]
            for kind in ("gaussian", "bpsk"):
                ev = MiEvaluator(Constellation(kind))
                gap_mi = mi_gap(cb, h, rho, ev)
                for t, one in enumerate(singles):
                    assert gap_mi[t] == mi_gap(cb, one, rho, ev)[0]

    def test_bpsk_block_mi(self, trials):
        h, _, singles, cb = trials
        ev = MiEvaluator(Constellation.bpsk())
        covs = np.stack([(u * lam) @ u.conj().T for u in cb.unitaries for lam in cb.lambdas])
        qsets = np.broadcast_to(covs, (self.TRIALS,) + covs.shape)
        for rho in (0.5, 10.0):
            stacked = block_mi(h, qsets, rho, 4, ev)
            for t, one in enumerate(singles):
                assert stacked[t] == block_mi(one, covs[None], rho, 4, ev)[0]


class TestNoStaleReceivedPowers:
    def test_one_batch_many_fresh_unitary_families(self):
        # received powers must follow the codebook passed in, even when
        # earlier unitary families were freed and their memory reused
        config = make_config(model=iid_model(4, 4), trials=20, snr=(10.0,))
        h, _ = draw_trials(config.model, config.trials, config.seed)
        ev = MiEvaluator(Constellation.gaussian())
        rng = Rng(97, 0)
        for _ in range(200):
            cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, 4, rng),
                                   lambdas=[4.0 * np.eye(4)[0]], k=4, nc=4, nt=4)
            rows = codebook_rows(config, s_matrix(h, cb.unitaries), cb.lambdas)
            # definition: max over codewords of K * I(rho/Nt * Tr(H Q H^H))
            covs = np.stack([(u * lam) @ u.conj().T for u in cb.unitaries for lam in cb.lambdas])
            traces = np.einsum("nab,cbd,nad->nc", h, covs, h.conj()).real
            expect = (config.k * ev.mi(10.0 / 4 * traces)).max(axis=1)
            assert np.allclose(rows[0], expect, rtol=1e-12, atol=0.0)


class TestAvgReceivedSnr:
    """Mean received SNR rho*Nc/K * (snr-rule objective) and its gap to lmax."""

    def test_oracle_codebook_zero_gap(self):
        # a codebook holding the channel's own eigenbasis and every mode hits
        # lmax exactly, so the gap vanishes realization by realization
        config = make_config(model=iid_model(4, 4), trials=1)
        for stream in range(25):
            h, _ = draw_trials(config.model, 1, 7, first_stream=stream)
            eig = hermitian_eig(h[0].conj().T @ h[0])
            cb = QuantizedCodebook(
                b=2, n1=1, n2=4, unitaries=[eig.vectors],
                lambdas=[4.0 * np.eye(4)[m] for m in range(4)], k=4, nc=4, nt=4,
            )
            assert snr_rule_values(cb, h)[0] == pytest.approx(eig.values[0], abs=1e-10)
            assert snr_gap(cb, h, 1.0)[0] == pytest.approx(0.0, abs=1e-10)

    def test_best_rank_one_dominates_mixed_codebooks_in_mean(self):
        # the weighted-max chain holds for the empirical measure too, so the
        # best rank-one subset (chosen by mean received power on these trials)
        # beats every mixed codebook sharing the unitaries, exactly
        from itertools import combinations

        config = make_config(model=v4_model(), trials=300, snr=(10.0,))
        h, _ = draw_trials(config.model, config.trials, config.seed)
        rng = Rng(41, 0)
        unitaries = haar_unitaries(2, 4, rng)
        n2 = 2
        scale = 10.0 * config.nc / config.k

        def mean_received(cb):
            return float((scale * snr_rule_values(cb, h)).mean())

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
        h, _ = draw_trials(config.model, config.trials, config.seed)
        codebooks, _ = best_rank_one_codebook(config, run_smat(config, h))
        cb = QuantizedCodebook(b=config.b, n1=config.n1, n2=config.n2, unitaries=default_unitaries(config),
                               lambdas=codebooks[0], k=config.k, nc=config.nc, nt=4)
        for snr in config.snr_grid_db:
            rho = 10.0 ** (snr / 10.0)
            scale = rho * config.nc / config.k
            received = float((scale * snr_rule_values(cb, h)).mean())
            gap = float(snr_gap(cb, h, rho).mean())
            cap = scale * top_eigenvalues(h).mean()
            assert received <= cap + 1e-9
            assert gap >= -1e-12
            assert received + gap == pytest.approx(cap, rel=1e-12)
