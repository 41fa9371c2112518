import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from ldfeedback.channel import iid_model, sample
from ldfeedback.dispersion import rank_one_set
from ldfeedback.errors import InfeasibleError, PreconditionError
from ldfeedback.infotheory import (
    NOISE_ENTROPY,
    Constellation,
    MiEvaluator,
    block_mi,
    perfect_csi_mi,
)
from ldfeedback.matkit import Rng, hermitian_eig

# Frozen values from the adaptive-quadrature oracle below (epsabs 1e-13).
ORACLE_MI = {
    ("bpsk", 0.25): 0.201345471584806,
    ("bpsk", 0.5): 0.336830820346831,
    ("bpsk", 1.0): 0.500072136066845,
    ("bpsk", 2.0): 0.632720193736867,
    ("bpsk", 5.0): 0.690898838451573,
    ("pam4", 0.5): 0.343018220787808,
    ("pam4", 1.0): 0.534806740166045,
    ("pam4", 2.0): 0.765395192785576,
}
ORACLE_MMSE = {
    ("bpsk", 0.5): 0.449599509206673,
    ("bpsk", 1.0): 0.231018221929296,
    ("bpsk", 2.0): 0.068597408790739,
    ("pam4", 0.5): 0.483372951591222,
    ("pam4", 1.0): 0.308434594142401,
}


def oracle_mi(a, points):
    """Independent path: adaptive quadrature of the output-entropy integral."""
    mus = math.sqrt(a) * points
    def integrand(y):
        p = np.exp(-((y - mus) ** 2)).sum() / (len(points) * math.sqrt(math.pi))
        return -p * math.log(p) if p > 0 else 0.0
    h_y, _ = quad(integrand, mus.min() - 12, mus.max() + 12, limit=400, epsabs=1e-13, epsrel=1e-13)
    return h_y - NOISE_ENTROPY


def oracle_mmse(a, points):
    mus = math.sqrt(a) * points
    def integrand(y):
        comp = np.exp(-((y - mus) ** 2)) / (len(points) * math.sqrt(math.pi))
        p = comp.sum()
        if p <= 0:
            return 0.0
        return (np.dot(comp, points) / p) ** 2 * p
    second, _ = quad(integrand, mus.min() - 12, mus.max() + 12, limit=400, epsabs=1e-13, epsrel=1e-13)
    return 1.0 - second


def make_eval(kind):
    return MiEvaluator(Constellation.from_name(kind))


class TestConstellation:
    @pytest.mark.parametrize("kind", ["bpsk", "pam4", "pam8"])
    def test_zero_mean_unit_variance(self, kind):
        pts = Constellation.from_name(kind).points
        assert pts.mean() == 0.0
        assert abs(np.mean(pts**2) - 1.0) <= 1e-15

    def test_bpsk_alphabet(self):
        assert np.array_equal(Constellation.bpsk().points, [-1.0, 1.0])

    def test_rejects_biased_alphabet(self):
        with pytest.raises(PreconditionError):
            Constellation("bad", np.array([0.0, 1.0]))


class TestFrozenOracleValues:
    def test_oracle_reproduces_frozen(self):
        # guard against drift in the oracle itself
        for (kind, a), expect in list(ORACLE_MI.items())[:3]:
            assert abs(oracle_mi(a, Constellation.from_name(kind).points) - expect) <= 1e-10

    @pytest.mark.parametrize("kind,a", list(ORACLE_MI))
    def test_mi_matches_oracle(self, kind, a):
        assert abs(make_eval(kind).mi(a) - ORACLE_MI[(kind, a)]) <= 1e-8

    @pytest.mark.parametrize("kind,a", list(ORACLE_MMSE))
    def test_mmse_matches_oracle(self, kind, a):
        assert abs(make_eval(kind).mmse(a) - ORACLE_MMSE[(kind, a)]) <= 1e-8


class TestMi:
    @pytest.mark.parametrize("kind", ["gaussian", "bpsk", "pam4"])
    def test_zero_snr_zero_information(self, kind):
        assert abs(make_eval(kind).mi(0.0)) <= 1e-12

    def test_gaussian_closed_form(self):
        # entropy of variance-(a + 1/2) Gaussian minus entropy of variance-1/2 noise
        assert make_eval("gaussian").mi(0.5) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)

    def test_bpsk_saturates_at_one_bit(self):
        assert abs(make_eval("bpsk").mi(1e4) - math.log(2.0)) <= 1e-6

    def test_rejects_negative(self):
        with pytest.raises(PreconditionError):
            make_eval("gaussian").mi(-0.1)
        with pytest.raises(PreconditionError):
            make_eval("bpsk").mi(float("nan"))

    def test_array_evaluation_matches_scalars(self):
        ev = make_eval("bpsk")
        a = np.array([0.0, 0.3, 1.7, 9.0])
        batch = ev.mi(a)
        assert batch.shape == a.shape
        for x, v in zip(a, batch):
            assert abs(ev.mi(float(x)) - v) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_nondecreasing(self, a1, a2):
        lo, hi = sorted((a1, a2))
        for kind in ("gaussian", "bpsk"):
            ev = make_eval(kind)
            assert ev.mi(hi) >= ev.mi(lo) - 1e-10


class TestMmse:
    @pytest.mark.parametrize("kind", ["gaussian", "bpsk", "pam4"])
    def test_prior_variance_at_zero(self, kind):
        assert abs(make_eval(kind).mmse(0.0) - 1.0) <= 1e-9

    def test_gaussian_closed_form(self):
        assert make_eval("gaussian").mmse(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_bpsk_below_gaussian(self):
        # a Gaussian input maximizes the MMSE at every SNR
        assert make_eval("bpsk").mmse(1.0) < 1.0 / 3.0


class TestDerivativeAndShape:
    @pytest.mark.parametrize("kind", ["gaussian", "bpsk", "pam4"])
    def test_immse_relation(self, kind):
        ev = make_eval(kind)
        step = 1e-4
        for a in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            fd = (ev.mi(a + step) - ev.mi(a - step)) / (2 * step)
            assert abs(fd - ev.mmse(a)) <= 1e-3 * ev.mmse(a)

    @pytest.mark.parametrize("kind", ["gaussian", "bpsk"])
    def test_concavity(self, kind):
        ev = make_eval(kind)
        grid = np.logspace(-3, 3, 50)
        h = 0.05 * grid
        second = ev.mi(grid + h) - 2 * ev.mi(grid) + ev.mi(grid - h)
        assert second.max() <= 1e-6

    def test_gaussian_dominance(self):
        g, b = make_eval("gaussian"), make_eval("bpsk")
        for a in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert g.mi(a) >= b.mi(a) - 1e-12
            assert g.mmse(a) >= b.mmse(a) - 1e-12

    def test_chord_inequality(self):
        # I concave with I(0) = 0 implies I(a) >= a * I'(a) = a * mmse(a)
        for kind in ("gaussian", "bpsk"):
            ev = make_eval(kind)
            for z in (1.0, 10.0, 100.0):
                for k in range(1, 9):
                    a = z / k
                    assert ev.mi(a) >= a * ev.mmse(a) - 1e-9


def one_block_mi(real, qs, rho, nt, ev):
    """block_mi of one realization, evaluated as the n = 1 stack."""
    return block_mi(real.h[None], np.asarray(qs)[None], rho, nt, ev)[0]


def lam_max(real):
    return hermitian_eig(real.h.conj().T @ real.h).values[0]


class TestBlockMi:
    def test_zero_covariances(self):
        ev = make_eval("gaussian")
        real = sample(iid_model(2, 2), Rng(1, 0))
        assert one_block_mi(real, [np.zeros((2, 2))] * 3, 2.0, 2, ev) == 0.0

    def test_top_eigenvector_single_symbol(self):
        ev = make_eval("gaussian")
        real = sample(iid_model(4, 4), Rng(2, 0))
        eig = hermitian_eig(real.h.conj().T @ real.h)
        u = eig.vectors[:, 0]
        nc = 4
        q = (4.0 * nc) * np.outer(u, u.conj())
        got = one_block_mi(real, [q], 2.0, 4, ev)
        assert got == pytest.approx(ev.mi(2.0 * nc * eig.values[0]), rel=1e-12)

    def test_concavity_uniform_beats_split(self):
        ev = make_eval("gaussian")
        rng = Rng(3, 0)
        for stream in range(20):
            real = sample(iid_model(4, 4), Rng(4, stream))
            qs = []
            for tr in (2.0, 5.0, 6.0, 3.0):
                a = rng.gen.standard_normal((4, 4)) + 1j * rng.gen.standard_normal((4, 4))
                q = a @ a.conj().T
                qs.append(q * (tr / q.trace().real))
            qhat = sum(qs) / len(qs)
            assert one_block_mi(real, qs, 1.0, 4, ev) <= one_block_mi(real, [qhat] * 4, 1.0, 4, ev) + 1e-9

    def test_rejects_indefinite_covariance(self):
        ev = make_eval("gaussian")
        real = sample(iid_model(2, 2), Rng(5, 0))
        with pytest.raises(PreconditionError):
            one_block_mi(real, [np.diag([1.0, -0.5])], 1.0, 2, ev)

    def test_stack_rows_match_single_realizations(self):
        ev = make_eval("gaussian")
        rng = Rng(13, 0)
        reals = [sample(iid_model(3, 2), Rng(14, stream)) for stream in range(5)]
        qsets = []
        for _ in reals:
            a = rng.gen.standard_normal((2, 3, 3)) + 1j * rng.gen.standard_normal((2, 3, 3))
            qsets.append(a @ np.swapaxes(a.conj(), -1, -2))
        rows = block_mi(np.stack([r.h for r in reals]), np.stack(qsets), 1.5, 3, ev)
        assert rows.shape == (5,)
        for row, real, qs in zip(rows, reals, qsets):
            assert row == one_block_mi(real, qs, 1.5, 3, ev)


class TestPerfectCsiMi:
    def test_gaussian_full_rate_closed_form(self):
        # K = 2*Nc pairs of real symbols give the classical beamforming capacity
        ev = make_eval("gaussian")
        nc, rho = 4, 3.0
        for stream in range(10):
            lam = lam_max(sample(iid_model(4, 4), Rng(6, stream)))
            assert perfect_csi_mi(lam, rho, 2 * nc, nc, ev) == pytest.approx(
                nc * math.log(1.0 + rho * lam), rel=1e-12
            )

    def test_zero_snr(self):
        ev = make_eval("gaussian")
        lam = lam_max(sample(iid_model(2, 2), Rng(7, 0)))
        assert perfect_csi_mi(lam, 0.0, 4, 2, ev) == 0.0

    @pytest.mark.parametrize("kind", ["gaussian", "bpsk"])
    def test_monotone_in_k(self, kind):
        ev = make_eval(kind)
        nc = 2
        lams = np.array([lam_max(sample(iid_model(2, 2), Rng(8, stream))) for stream in range(30)])
        vals = np.stack([perfect_csi_mi(lams, 2.0, k, nc, ev) for k in range(1, 2 * nc + 1)])
        assert (np.diff(vals, axis=0) >= -1e-8).all()

    def test_infeasible_k(self):
        ev = make_eval("gaussian")
        lam = lam_max(sample(iid_model(2, 2), Rng(9, 0)))
        with pytest.raises(InfeasibleError):
            perfect_csi_mi(lam, 1.0, 5, 2, ev)


def test_eq8_bound_random_covariances():
    # block MI of any uniform-covariance feasible set never beats the benchmark
    ev = make_eval("gaussian")
    rng = Rng(10, 0)
    k, nc = 4, 4
    for stream in range(100):
        real = sample(iid_model(4, 4), Rng(11, stream))
        best = perfect_csi_mi(lam_max(real), 2.0, k, nc, ev)
        for _ in range(20):
            a = rng.gen.standard_normal((4, 4)) + 1j * rng.gen.standard_normal((4, 4))
            q = a @ a.conj().T
            q *= (4 * nc / k) / q.trace().real
            assert one_block_mi(real, [q] * k, 2.0, 4, ev) <= best + 1e-9


def test_beamforming_set_achieves_benchmark():
    ev = make_eval("gaussian")
    k, nc = 8, 4
    for stream in range(10):
        real = sample(iid_model(4, 4), Rng(12, stream))
        eig = hermitian_eig(real.h.conj().T @ real.h)
        dset = rank_one_set(eig.vectors[:, 0], k, nc)
        got = one_block_mi(real, dset.covariances(), 2.0, 4, ev)
        assert got == pytest.approx(perfect_csi_mi(eig.values[0], 2.0, k, nc, ev), abs=1e-9)
