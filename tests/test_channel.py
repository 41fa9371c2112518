import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from ldfeedback import matkit, simengine
from ldfeedback.channel import (CorrelationModel, column_powers, custom_model, from_normals, iid_model, sample,
                                top_eigenvalues, v4_model)
from ldfeedback.errors import PreconditionError
from ldfeedback.matkit import Rng, haar_unitaries, hermitian_eig
from ldfeedback.simengine import draw_trials, trial_windows


@pytest.mark.parametrize("nt,nr", [(2, 2), (4, 4), (1, 1)])
def test_iid_normalization(nt, nr):
    model = iid_model(nt, nr)
    assert model.vmask.sum() == nt * nr
    assert np.array_equal(model.ut, np.eye(nt))
    assert np.array_equal(model.ur, np.eye(nr))


def test_iid_rejects_zero_dimension():
    with pytest.raises(PreconditionError):
        iid_model(0, 2)


class TestV4:
    def test_power_normalization(self):
        assert abs(v4_model().vmask.sum() - 16.0) <= 1e-9

    def test_zero_entries(self):
        m = v4_model()
        assert m.vmask[0, 1] == 0.0
        for stream in range(5):
            hind = sample(m, Rng(3, stream))[1][0]
            assert hind[0, 1] == 0
            # and only those: every positive-variance entry is drawn
            assert np.array_equal(hind != 0, m.vmask > 0)

    def test_scaled_entry(self):
        assert abs(v4_model().vmask[0, 2] - 16.0 * 0.4 / 2.6) <= 1e-12


class TestModelValidation:
    def test_rejects_bad_power(self):
        with pytest.raises(PreconditionError):
            custom_model(np.ones((2, 2)) * 0.5)

    def test_rejects_non_unitary_basis(self):
        with pytest.raises(PreconditionError, match="ut is not unitary"):
            CorrelationModel(
                nt=2, nr=2, ut=np.ones((2, 2), dtype=complex),
                ur=np.eye(2, dtype=complex), vmask=np.ones((2, 2)),
            )
        with pytest.raises(PreconditionError, match="ur must be 2 x 2, got shape \\(3, 3\\)"):
            CorrelationModel(
                nt=2, nr=2, ut=np.eye(2, dtype=complex),
                ur=np.eye(3, dtype=complex), vmask=np.ones((2, 2)),
            )

    def test_rejects_negative_variance(self):
        # sums to nt*nr = 4 but carries a negative entry
        with pytest.raises(PreconditionError):
            custom_model(np.array([[2.0, 2.0], [2.0, -2.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["vmask", "ut", "ur"])
    def test_rejects_non_finite_entries(self, field, bad):
        args = {"vmask": np.ones((2, 2)), "ut": np.eye(2, dtype=complex), "ur": np.eye(2, dtype=complex)}
        args[field] = args[field].copy()
        args[field][0, 0] = bad
        with pytest.raises(PreconditionError, match=f"{field} entries must be finite"):
            custom_model(**args)


class TestSampling:
    def test_decomposition_holds_with_rotated_bases(self):
        ut = haar_unitaries(1, 3, Rng(1, 0))[0]
        ur = haar_unitaries(1, 2, Rng(1, 1))[0]
        model = custom_model(np.full((2, 3), 1.0), ut=ut, ur=ur)
        for stream in range(20):
            h, hind = sample(model, Rng(2, stream))
            assert h.shape == hind.shape == (1, 2, 3)
            assert np.linalg.norm(h[0] - ur @ hind[0] @ ut.conj().T) <= 1e-12

    def test_trace_normalization_monte_carlo(self):
        # one block of normals: the same bits as draws successive sample() calls
        model = iid_model(2, 2)
        draws = 100_000
        h = from_normals(model, Rng(17, 0).gen.standard_normal((draws, 2, 2, 2)))[0]
        traces = np.array([np.vdot(x, x).real for x in h])
        se = traces.std(ddof=1) / math.sqrt(draws)
        assert abs(traces.mean() - 4.0) <= 3 * se

    def test_components_zero_mean(self):
        draws = 100_000
        z = Rng(5, 0).gen.standard_normal((2, draws, 1, 1))
        hind = from_normals(iid_model(1, 1), z.swapaxes(0, 1))[1]
        se_component = math.sqrt(0.5 / draws)
        assert abs(hind.real.mean()) <= 3 * se_component
        assert abs(hind.imag.mean()) <= 3 * se_component

    def test_zero_mask_entries(self):
        model = custom_model(np.array([[2.0, 0.0], [0.0, 2.0]]))
        hind = from_normals(model, Rng(3, 0).gen.standard_normal((1, 2, 2, 2)))[1][0]
        assert hind[0, 1] == 0 and hind[1, 0] == 0
        assert hind[0, 0] != 0 and hind[1, 1] != 0

    def test_entry_variances_match_mask(self):
        model = v4_model()
        draws = 10_000
        hind = from_normals(model, Rng(23, 0).gen.standard_normal((draws, 2, 4, 4)))[1]
        mean = (np.abs(hind) ** 2).sum(axis=0) / draws
        # |hind_ij|^2 is exponential with mean v and std v
        se = model.vmask / math.sqrt(draws)
        assert (np.abs(mean - model.vmask) <= 3 * se + 1e-12).all()

    def test_lambda_max_dominates_average(self):
        model = iid_model(4, 4)
        for stream in range(100):
            h = sample(model, Rng(29, stream))[0][0]
            gram = h.conj().T @ h
            lam_max = np.linalg.eigvalsh(gram)[-1]
            assert lam_max >= gram.trace().real / 4 - 1e-12

    def test_rotation_invariance_of_iid_law(self):
        # eigenvalue distribution of H^H H is unchanged by a fixed tx rotation
        base = iid_model(2, 2)
        rotated = custom_model(np.ones((2, 2)), ut=haar_unitaries(1, 2, Rng(31, 0))[0])
        draws = 10_000
        ha = from_normals(base, Rng(37, 0).gen.standard_normal((draws, 2, 2, 2)))[0]
        hb = from_normals(rotated, Rng(41, 0).gen.standard_normal((draws, 2, 2, 2)))[0]
        lam_a = np.linalg.eigvalsh(np.swapaxes(ha.conj(), -1, -2) @ ha)[:, -1]
        lam_b = np.linalg.eigvalsh(np.swapaxes(hb.conj(), -1, -2) @ hb)[:, -1]
        assert ks_2samp(lam_a, lam_b).pvalue > 1e-3
        pooled_se = math.sqrt(lam_a.var(ddof=1) / draws + lam_b.var(ddof=1) / draws)
        assert abs(lam_a.mean() - lam_b.mean()) <= 3 * pooled_se


def haar_model():
    """3 tx, 2 rx, uneven mask summing to 6, Haar eigenbases on both sides."""
    vmask = np.array([[2.0, 1.0, 0.0], [0.5, 1.5, 1.0]])
    return custom_model(vmask, ut=haar_unitaries(1, 3, Rng(43, 0))[0], ur=haar_unitaries(1, 2, Rng(43, 1))[0])


BATCH_MODELS = {"iid2x2": lambda: iid_model(2, 2), "v4": v4_model, "haar": haar_model}


@pytest.mark.parametrize("name", list(BATCH_MODELS))
class TestBatchedDraw:
    def test_rows_equal_single_draws(self, name):
        model = BATCH_MODELS[name]()
        h_all, hind_all = draw_trials(model, 12, 47, first_stream=3)
        cols = column_powers(hind_all)
        for i in range(12):
            h, hind = sample(model, Rng(47, 3 + i))
            assert np.array_equal(h_all[i], h[0])
            assert np.array_equal(hind_all[i], hind[0])
            assert np.array_equal(cols[i], (np.abs(hind[0]) ** 2).sum(axis=0))

    def test_window_equals_rows_of_longer_draw(self, name):
        model = BATCH_MODELS[name]()
        full = draw_trials(model, 20, 53)
        window = draw_trials(model, 15, 53, first_stream=5)
        for got, want in zip(window, full):
            assert np.array_equal(got, want[5:])
        assert np.array_equal(top_eigenvalues(window[0]), top_eigenvalues(full[0])[5:])
        assert np.array_equal(column_powers(window[1]), column_powers(full[1])[5:])

    def test_lam_max_matches_hermitian_eig(self, name):
        # eigvalsh and the eigendecomposition it replaced are both backward stable;
        # their largest eigenvalues differ by a few ulps at most
        h, _ = draw_trials(BATCH_MODELS[name](), 2000, 59)
        values = hermitian_eig(np.swapaxes(h.conj(), -1, -2) @ h).values
        lam_max = np.maximum(values[:, 0], 0.0)
        assert (np.abs(top_eigenvalues(h) - lam_max) <= 2e-15 * lam_max).all()


def test_draw_trials_builds_no_rng(monkeypatch):
    # one re-keyed generator serves every trial: an Rng per trial is the cost it replaced
    model = iid_model(2, 2)
    n = simengine.TRIAL_WINDOW + 1
    last = sample(model, Rng(61, n - 1))[0][0]

    def no_rng(*args, **kwargs):
        raise AssertionError("draw_trials built an Rng")

    monkeypatch.setattr(simengine, "Rng", no_rng)
    monkeypatch.setattr(matkit, "Rng", no_rng)
    h, _ = draw_trials(model, n, 61)
    assert h.shape == (n, 2, 2)
    assert np.array_equal(h[-1], last)


@given(window=st.integers(1, 40), trials=st.integers(1, 60), evals_per_trial=st.integers(1, 30),
       first_stream=st.integers(0, 1000), name=st.sampled_from(list(BATCH_MODELS)))
@settings(max_examples=60, deadline=None)
def test_trial_windows_cover_the_draw(window, trials, evals_per_trial, first_stream, name):
    # contiguous windows of 1..max(1, TRIAL_WINDOW // evals_per_trial) trials cover
    # range(trials) in order, and their channels, Hind and top eigenvalues are the
    # one-pass draw's, bit for bit
    model = BATCH_MODELS[name]()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simengine, "TRIAL_WINDOW", window)
        windows = list(trial_windows(model, trials, 67, first_stream, evals_per_trial))
    step = max(1, window // evals_per_trial)
    ends = [lo + len(h) for lo, h, _ in windows]
    assert [lo for lo, _, _ in windows] == [0] + ends[:-1]
    assert ends[-1] == trials
    for _, h, hind in windows:
        assert 1 <= len(h) <= step and len(hind) == len(h)
    h, hind = draw_trials(model, trials, 67, first_stream)
    assert np.concatenate([w[1] for w in windows]).tobytes() == h.tobytes()
    assert np.concatenate([w[2] for w in windows]).tobytes() == hind.tobytes()
    assert np.concatenate([top_eigenvalues(w[1]) for w in windows]).tobytes() == top_eigenvalues(h).tobytes()


@pytest.mark.parametrize("model", [iid_model(4, 4), v4_model()], ids=["iid4x4", "v4"])
def test_trial_windows_memory_peak_bounded(model):
    # Bound set before measuring: whole-run arrays filled from trial_windows, each
    # window dropped once copied, so besides those arrays only one window's normals,
    # channels and Gram matrices are alive, and the peak stays under 1.5x the
    # arrays at 10 000 trials
    def fill(trials):
        h = np.empty((trials, model.nr, model.nt), dtype=np.complex128)
        lam_max, ind_col_power = np.empty(trials), np.empty((trials, model.nt))
        for lo, window, hind in trial_windows(model, trials, 71):
            hi = lo + len(window)
            h[lo:hi], lam_max[lo:hi], ind_col_power[lo:hi] = window, top_eigenvalues(window), column_powers(hind)
            del window, hind
        return h, lam_max, ind_col_power

    fill(100)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        arrays = fill(10_000)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sum(a.nbytes for a in arrays)
