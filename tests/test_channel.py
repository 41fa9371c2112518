import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ldfeedback.channel import CorrelationModel, custom_model, iid_model, sample, v4_model
from ldfeedback.errors import PreconditionError
from ldfeedback.matkit import Rng, haar_unitary
from ldfeedback.simengine import draw_trials


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
        for _ in range(5):
            real = sample(m, Rng(3, 0))
            assert real.hind[0, 1] == 0

    def test_scaled_entry(self):
        assert abs(v4_model().vmask[0, 2] - 16.0 * 0.4 / 2.6) <= 1e-12


class TestModelValidation:
    def test_rejects_bad_power(self):
        with pytest.raises(PreconditionError):
            custom_model(np.ones((2, 2)) * 0.5)

    def test_rejects_non_unitary_basis(self):
        with pytest.raises(PreconditionError):
            CorrelationModel(
                nt=2, nr=2, ut=np.ones((2, 2), dtype=complex),
                ur=np.eye(2, dtype=complex), vmask=np.ones((2, 2)),
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
        ut = haar_unitary(3, Rng(1, 0))
        ur = haar_unitary(2, Rng(1, 1))
        model = custom_model(np.full((2, 3), 1.0), ut=ut, ur=ur)
        for stream in range(20):
            real = sample(model, Rng(2, stream))
            assert np.linalg.norm(real.h - ur @ real.hind @ ut.conj().T) <= 1e-12

    def test_trace_normalization_monte_carlo(self):
        model = iid_model(2, 2)
        rng = Rng(17, 0)
        draws = 100_000
        traces = np.empty(draws)
        for i in range(draws):
            real = sample(model, rng)
            traces[i] = np.vdot(real.h, real.h).real
        se = traces.std(ddof=1) / math.sqrt(draws)
        assert abs(traces.mean() - 4.0) <= 3 * se

    def test_entry_variances_match_mask(self):
        model = v4_model()
        rng = Rng(23, 0)
        draws = 10_000
        acc = np.zeros((4, 4))
        for _ in range(draws):
            acc += np.abs(sample(model, rng).hind) ** 2
        mean = acc / draws
        # |hind_ij|^2 is exponential with mean v and std v
        se = model.vmask / math.sqrt(draws)
        assert (np.abs(mean - model.vmask) <= 3 * se + 1e-12).all()

    def test_lambda_max_dominates_average(self):
        model = iid_model(4, 4)
        for stream in range(100):
            h = sample(model, Rng(29, stream)).h
            gram = h.conj().T @ h
            lam_max = np.linalg.eigvalsh(gram)[-1]
            assert lam_max >= gram.trace().real / 4 - 1e-12

    def test_rotation_invariance_of_iid_law(self):
        # eigenvalue distribution of H^H H is unchanged by a fixed tx rotation
        base = iid_model(2, 2)
        rotated = custom_model(np.ones((2, 2)), ut=haar_unitary(2, Rng(31, 0)))
        draws = 10_000
        lam_a = np.empty(draws)
        lam_b = np.empty(draws)
        rng_a, rng_b = Rng(37, 0), Rng(41, 0)
        for i in range(draws):
            ha = sample(base, rng_a).h
            hb = sample(rotated, rng_b).h
            lam_a[i] = np.linalg.eigvalsh(ha.conj().T @ ha)[-1]
            lam_b[i] = np.linalg.eigvalsh(hb.conj().T @ hb)[-1]
        assert ks_2samp(lam_a, lam_b).pvalue > 1e-3
        pooled_se = math.sqrt(lam_a.var(ddof=1) / draws + lam_b.var(ddof=1) / draws)
        assert abs(lam_a.mean() - lam_b.mean()) <= 3 * pooled_se


def haar_model():
    """3 tx, 2 rx, uneven mask summing to 6, Haar eigenbases on both sides."""
    vmask = np.array([[2.0, 1.0, 0.0], [0.5, 1.5, 1.0]])
    return custom_model(vmask, ut=haar_unitary(3, Rng(43, 0)), ur=haar_unitary(2, Rng(43, 1)))


BATCH_MODELS = {"iid2x2": lambda: iid_model(2, 2), "v4": v4_model, "haar": haar_model}


@pytest.mark.parametrize("name", list(BATCH_MODELS))
class TestBatchedDraw:
    def test_rows_equal_single_draws(self, name):
        model = BATCH_MODELS[name]()
        batch = draw_trials(model, 12, 47, first_stream=3)
        for i in range(12):
            real = sample(model, Rng(47, 3 + i))
            assert np.array_equal(batch.h[i], real.h)
            assert np.array_equal(batch.hind[i], real.hind)

    def test_window_equals_rows_of_longer_draw(self, name):
        model = BATCH_MODELS[name]()
        full = draw_trials(model, 20, 53)
        window = draw_trials(model, 15, 53, first_stream=5)
        for field in ("h", "hind", "eigvals", "ind_col_power"):
            assert np.array_equal(getattr(window, field), getattr(full, field)[5:])
