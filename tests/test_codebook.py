import numpy as np
import pytest

from ldfeedback.channel import iid_model, v4_model
from ldfeedback.codebook import (
    QuantizedCodebook,
    delta_mi,
    delta_snr,
    from_text,
    random_rank_two_lambdas,
    s_matrix,
    select_mi,
    select_snr,
    to_text,
)
from ldfeedback.errors import PreconditionError
from ldfeedback.infotheory import Constellation, MiEvaluator, block_mi
from ldfeedback.matkit import Rng, haar_unitary, hermitian_eig
from ldfeedback.simengine import draw_trials
from ldfeedback.verify import prop3_gap


def gaussian_eval():
    return MiEvaluator(Constellation.gaussian())


def realization(stream, nt=4, nr=4, seed=313):
    """One i.i.d. channel draw as a one-trial batch (the n = 1 stack)."""
    return draw_trials(iid_model(nt, nr), 1, seed, first_stream=stream)


def haar_unitaries(n1, rng, nt=4):
    return [haar_unitary(nt, rng) for _ in range(n1)]


def mode_diagonals(modes, nt=4, budget=4.0):
    """Full-budget rank-one diagonals budget * e_m, one per mode index."""
    return [budget * np.eye(nt)[m] for m in modes]


def codebook_with_eigenbasis(batch, nt=4, nc=4, k=4, extra=3, seed=99):
    """Codebook whose first unitary is the channel's own eigenbasis, mode-1 diagonal."""
    h = batch.h[0]
    eig = hermitian_eig(h.conj().T @ h)
    rng = Rng(seed, 0)
    unitaries = [eig.vectors] + haar_unitaries(extra, rng, nt)
    lam = np.zeros(nt)
    lam[0] = nt * nc / k
    return QuantizedCodebook(b=2, n1=1 + extra, n2=1, unitaries=unitaries, lambdas=[lam],
                             k=k, nc=nc, nt=nt)


def mi_rule(cb, batch, rho, ev):
    """MI-rule (values, i, j) of a codebook on every trial of a batch."""
    return select_mi(s_matrix(batch.h, cb.unitaries), cb.lambda_matrix(), rho, cb.k, cb.nt, ev)


def snr_rule(cb, batch):
    """SNR-rule (values, i, j) of a codebook on every trial of a batch."""
    return select_snr(s_matrix(batch.h, cb.unitaries), cb.lambda_matrix(), cb.k, cb.nt, cb.nc)


class TestRvqCodebook:
    """Random-vector-quantization codebooks: Haar i.i.d. unitaries with given diagonals."""

    def test_single_mode_split(self):
        cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, Rng(1, 0)),
                               lambdas=mode_diagonals([0]), k=4, nc=4, nt=4)
        assert len(cb.unitaries) == 4 and len(cb.lambdas) == 1
        assert np.array_equal(cb.lambda_matrix(), [[4.0, 0.0, 0.0, 0.0]])

    def test_two_by_two_split(self):
        cb = QuantizedCodebook(b=2, n1=2, n2=2, unitaries=haar_unitaries(2, Rng(1, 1)),
                               lambdas=mode_diagonals([0, 2]), k=4, nc=4, nt=4)
        assert cb.n1 * cb.n2 == 4
        assert np.array_equal(cb.lambda_matrix()[1], [0.0, 0.0, 4.0, 0.0])

    def test_all_mode_set(self):
        cb = QuantizedCodebook(b=4, n1=4, n2=4, unitaries=haar_unitaries(4, Rng(1, 2)),
                               lambdas=mode_diagonals(range(4)), k=4, nc=4, nt=4)
        assert np.allclose(cb.lambda_matrix(), 4.0 * np.eye(4))

    def test_rejects_split_mismatch(self):
        with pytest.raises(PreconditionError):
            QuantizedCodebook(b=2, n1=3, n2=1, unitaries=haar_unitaries(3, Rng(1, 3)),
                              lambdas=mode_diagonals([0]), k=4, nc=4, nt=4)

    def test_rejects_trace_violation(self):
        with pytest.raises(PreconditionError):
            QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, Rng(1, 4)),
                              lambdas=[np.full(4, 2.0)], k=4, nc=4, nt=4)


class TestRandomRankTwo:
    def test_trace_and_support(self):
        sets = random_rank_two_lambdas(50, 2, 4, 4, 4, Rng(2, 0))
        assert len(sets) == 50
        for diags in sets:
            assert len(diags) == 2
            for lam in diags:
                assert abs(lam.sum() - 4.0) <= 1e-12
                assert (lam > 0).sum() == 2

    def test_example_shape_reachable(self):
        # some draw excites the first mode pair with an interior split
        sets = random_rank_two_lambdas(60, 1, 4, 4, 4, Rng(2, 1))
        hits = [
            diags[0] for diags in sets
            if diags[0][0] > 0 and diags[0][1] > 0
        ]
        assert hits, "mode pair (0, 1) should appear among 60 draws"
        assert any(0.0 < lam[0] / 4.0 < 1.0 for lam in hits)

    def test_rejects_single_antenna(self):
        with pytest.raises(PreconditionError):
            random_rank_two_lambdas(1, 1, 1, 4, 4, Rng(2, 2))


class TestSMatrix:
    def test_eigenbasis_gives_eigenvalues(self):
        batch = realization(0)
        eig = hermitian_eig(batch.h[0].conj().T @ batch.h[0])
        s = s_matrix(batch.h, [eig.vectors])
        assert s.shape == (1, 1, 4)
        assert np.allclose(s[0, 0], eig.values, atol=1e-10)

    def test_sum_is_channel_power(self):
        batch = realization(1)
        s = s_matrix(batch.h, [haar_unitary(4, Rng(3, 0))])[0, 0]
        assert abs(s.sum() - np.vdot(batch.h, batch.h).real) <= 1e-10
        assert s.max() <= batch.eigvals[0, 0] + 1e-10

    def test_matches_definition_through_eigen_factor(self):
        # oracle: squared column norms of Lh^(1/2) Uh^H U
        batch = realization(2)
        eig = hermitian_eig(batch.h[0].conj().T @ batch.h[0])
        u = haar_unitary(4, Rng(3, 1))
        factor = np.diag(np.sqrt(eig.values)) @ eig.vectors.conj().T @ u
        expect = (np.abs(factor) ** 2).sum(axis=0)
        assert np.allclose(s_matrix(batch.h, [u])[0, 0], expect, atol=1e-10)

    def test_zero_channel(self):
        s = s_matrix(np.zeros((1, 4, 4), dtype=complex), [np.eye(4, dtype=complex)])
        assert np.array_equal(s, np.zeros((1, 1, 4)))

    def test_rejects_non_unitary(self):
        with pytest.raises(PreconditionError):
            s_matrix(realization(3).h, [np.ones((4, 4), dtype=complex)])


class TestSelectMi:
    def test_exact_eigenbasis_codeword_wins(self):
        ev = gaussian_eval()
        for stream in range(10):
            batch = realization(stream)
            cb = codebook_with_eigenbasis(batch)
            value, i, j = mi_rule(cb, batch, 2.0, ev)
            assert i[0] == 0 and j[0] == 0
            expect = cb.k * ev.mi(2.0 * cb.nc / cb.k * batch.eigvals[0, 0])
            assert value[0] == pytest.approx(expect, rel=1e-12)

    def test_zero_snr_tie_break(self):
        cb = QuantizedCodebook(b=2, n1=2, n2=2, unitaries=haar_unitaries(2, Rng(4, 0)),
                               lambdas=mode_diagonals([0, 1]), k=4, nc=4, nt=4)
        value, i, j = mi_rule(cb, realization(0), 0.0, gaussian_eval())
        assert (i[0], j[0]) == (0, 0)
        assert value[0] == 0.0

    def test_argmax_against_recomputation(self):
        ev = gaussian_eval()
        batch = realization(4)
        h = batch.h[0]
        cb = QuantizedCodebook(b=2, n1=2, n2=2, unitaries=haar_unitaries(2, Rng(4, 1)),
                               lambdas=mode_diagonals([1, 3]), k=4, nc=4, nt=4)
        value = mi_rule(cb, batch, 1.5, ev)[0][0]
        for u in cb.unitaries:
            for lam in cb.lambdas:
                q = (u * lam) @ u.conj().T
                val = cb.k * ev.mi(1.5 / cb.nt * np.einsum("ij,jk,ik->", h, q, h.conj()).real)
                assert value >= val - 1e-12

    def test_rejects_matrix_rho(self):
        cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, Rng(4, 3)),
                               lambdas=mode_diagonals([0]), k=4, nc=4, nt=4)
        with pytest.raises(PreconditionError, match="1-D"):
            mi_rule(cb, realization(1), np.ones((2, 2)), gaussian_eval())

    def test_determinism(self):
        ev = gaussian_eval()
        batch = realization(5)
        cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, Rng(4, 2)),
                               lambdas=mode_diagonals([2]), k=4, nc=4, nt=4)
        a = mi_rule(cb, batch, 2.0, ev)
        b = mi_rule(cb, batch, 2.0, ev)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def mi_rule_definition(smat, lambdas, rho, k, nt, ev):
    """The MI rule by its definition: K * I of every codeword, then the maximum.

    Returns (values, i, j) with ties to the first codeword in (i, j) order,
    plus the per-codeword arguments and objectives flattened over (N1, N2).
    """
    args = np.maximum(np.einsum("...im,...jm->...ij", smat, lambdas), 0.0) * rho / nt
    obj = (k * ev.mi(args)).reshape(args.shape[:-2] + (-1,))
    i, j = np.divmod(obj.argmax(axis=-1), args.shape[-1])
    return obj.max(axis=-1), i, j, args.reshape(obj.shape), obj


ALPHABETS = {"gaussian": Constellation.gaussian, "bpsk": Constellation.bpsk,
             "pam4": lambda: Constellation.pam(4)}
# up to 1e6: past every table's last knot for most codewords of most trials
TRACE_RHOS = np.array([0.0, 0.3, 2.0, 8.0, 40.0, 1e3, 1e6])


@pytest.mark.parametrize("name", list(ALPHABETS))
class TestTraceSelection:
    """select_mi picks the largest trace once; that must be the MI rule's codeword.

    A discrete table is non-decreasing only up to two-ulp ripples of K*ln M
    where a * d_min^2 > 140, so a row with an argument in that band, unless
    all its arguments are past the table's last knot (where I = ln M), is
    held to two ulps; every other row must match exactly.
    """

    def _inputs(self, per_trial):
        batch = draw_trials(iid_model(4, 4), 300, 61)
        rng = Rng(61, 1)
        smat = s_matrix(batch.h, haar_unitaries(4, rng))
        if per_trial:
            # per-trial competitor diagonals, as in verify thm4: leading axes (trials, competitors)
            w = rng.gen.uniform(size=(300, 5, 3, 4))
            return smat[:, None], 4.0 * w / w.sum(axis=-1, keepdims=True)
        w = rng.gen.uniform(size=(2, 4))
        return smat, 4.0 * w / w.sum(axis=-1, keepdims=True)

    def _check(self, name, per_trial):
        ev = MiEvaluator(ALPHABETS[name]())
        smat, lambdas = self._inputs(per_trial)
        values, i, j = select_mi(smat, lambdas, TRACE_RHOS, 4, 4, ev)
        assert values.shape == i.shape == j.shape == (TRACE_RHOS.size,) + np.broadcast_shapes(smat.shape[:-2], lambdas.shape[:-2])
        saturated_rows = 0
        for s, rho in enumerate(TRACE_RHOS):
            scalar = select_mi(smat, lambdas, rho, 4, 4, ev)
            assert all(np.array_equal(a, b) for a, b in zip(scalar, (values[s], i[s], j[s])))
            want, want_i, want_j, args, obj = mi_rule_definition(smat, lambdas, rho, 4, 4, ev)
            exact = np.ones(want.shape, dtype=bool)
            if name != "gaussian":
                table = ev._table()
                ripple = table.knots[-1] * 140.0 / 200.0  # the last knot sits at a * d_min^2 = 200
                saturated = args.min(axis=-1) > table.knots[-1]
                saturated_rows += saturated.sum()
                exact = (args.max(axis=-1) <= ripple) | saturated
                assert (np.abs(values[s] - want) <= 2 * np.spacing(4 * table.ln_m)).all()
            assert np.array_equal(values[s][exact], want[exact])
            top2 = np.sort(obj, axis=-1)[..., -2:]
            untied = exact & (top2[..., 1] > top2[..., 0])
            assert np.array_equal(i[s][untied], want_i[untied])
            assert np.array_equal(j[s][untied], want_j[untied])
        zero = TRACE_RHOS == 0
        assert (values[zero] == 0).all() and (i[zero] == 0).all() and (j[zero] == 0).all()
        if name != "gaussian":
            assert saturated_rows > 0

    def test_shared_codebook(self, name):
        self._check(name, per_trial=False)

    def test_per_trial_lambdas(self, name):
        self._check(name, per_trial=True)


class TestSelectSnr:
    def test_rank_one_codebook_reduces_to_best_mode_power(self):
        batch = realization(6)
        cb = QuantizedCodebook(b=3, n1=2, n2=4, unitaries=haar_unitaries(2, Rng(5, 0)),
                               lambdas=mode_diagonals(range(4)), k=4, nc=4, nt=4)
        value = snr_rule(cb, batch)[0][0]
        smax = s_matrix(batch.h, cb.unitaries).max()
        assert value == pytest.approx(smax, abs=1e-12)

    def test_agrees_with_mi_rule_for_gaussian(self):
        ev = gaussian_eval()
        rng = Rng(5, 1)
        for stream in range(200):
            batch = realization(stream, seed=551)
            lamsets = random_rank_two_lambdas(1, 2, 4, 4, 4, rng)[0]
            cb = QuantizedCodebook(b=2, n1=2, n2=2, unitaries=haar_unitaries(2, rng),
                                   lambdas=lamsets, k=4, nc=4, nt=4)
            _, mi_i, mi_j = mi_rule(cb, batch, 1.3, ev)
            _, snr_i, snr_j = snr_rule(cb, batch)
            assert (mi_i[0], mi_j[0]) == (snr_i[0], snr_j[0])

    def test_zero_channel_tie_break(self):
        cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, Rng(5, 2)),
                               lambdas=mode_diagonals([0]), k=4, nc=4, nt=4)
        smat = s_matrix(np.zeros((1, 4, 4), dtype=complex), cb.unitaries)
        value, i, j = select_snr(smat, cb.lambda_matrix(), cb.k, cb.nt, cb.nc)
        assert (i[0], j[0]) == (0, 0) and value[0] == 0.0


class TestGaps:
    def test_exact_codeword_gives_zero_gaps(self):
        ev = gaussian_eval()
        batch = realization(7)
        cb = codebook_with_eigenbasis(batch)
        assert abs(delta_snr(cb, batch, 2.0)[0]) <= 1e-10
        assert abs(delta_mi(cb, batch, 2.0, ev)[0]) <= 1e-9

    def test_zero_snr_zero_mi_gap(self):
        cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, Rng(6, 0)),
                               lambdas=mode_diagonals([1]), k=4, nc=4, nt=4)
        assert delta_mi(cb, realization(8), 0.0, gaussian_eval())[0] == 0.0

    def test_snr_gap_nonnegative(self):
        rng = Rng(6, 1)
        for stream in range(100):
            batch = realization(stream, seed=661)
            lambdas = mode_diagonals([int(rng.gen.integers(4))])
            cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, rng),
                                   lambdas=lambdas, k=4, nc=4, nt=4)
            assert delta_snr(cb, batch, 1.0)[0] >= -1e-12

    def test_mi_gap_below_snr_gap(self):
        # per-realization Lemma-1 form at a smaller scale; the full-size run
        # lives in the acceptance suite
        ev = gaussian_eval()
        rng = Rng(6, 2)
        unitaries = haar_unitaries(4, rng)
        lambdas = random_rank_two_lambdas(1, 1, 4, 4, 4, rng)[0]
        cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=unitaries, lambdas=lambdas,
                               k=4, nc=4, nt=4)
        batch = draw_trials(v4_model(), 1000, 662)
        for rho in (1.0, 10.0):
            assert (delta_mi(cb, batch, rho, ev) <= delta_snr(cb, batch, rho) + 1e-12).all()


class TestRankOneStrongOptimality:
    def test_beats_arbitrary_competitors_per_realization(self):
        ev = gaussian_eval()
        nt, nc, k = 4, 4, 4
        rng = Rng(7, 0)
        unitaries = haar_unitaries(4, rng)
        rank_one = QuantizedCodebook(b=4, n1=4, n2=4, unitaries=unitaries,
                                     lambdas=mode_diagonals(range(nt)), k=k, nc=nc, nt=nt)
        batch = draw_trials(iid_model(4, 4), 100, 771)
        ref = mi_rule(rank_one, batch, 2.0, ev)[0]
        smat = s_matrix(batch.h, unitaries)
        for _ in range(5):
            w = rng.gen.uniform(size=(batch.trials, 4, nt))
            w /= w.sum(axis=-1, keepdims=True)
            got = select_mi(smat, 4.0 * w, 2.0, k, nt, ev)[0]
            assert (got <= ref + 1e-9).all()


class TestProp2CodebookLevel:
    def test_averaged_codeword_never_worse(self):
        ev = gaussian_eval()
        rng = Rng(8, 0)
        k = 4
        batch = draw_trials(iid_model(4, 4), 50, 881)
        qs = np.empty((batch.trials, k, 4, 4), dtype=complex)
        for t in range(batch.trials):
            shares = rng.gen.uniform(size=k)
            shares = shares / shares.sum() * 16.0
            for idx, tr in enumerate(shares):
                a = rng.gen.standard_normal((4, 4)) + 1j * rng.gen.standard_normal((4, 4))
                q = a @ a.conj().T
                qs[t, idx] = q * (tr / q.trace().real)
        qhat = np.broadcast_to(qs.mean(axis=1, keepdims=True), qs.shape)
        assert (block_mi(batch.h, qs, 1.0, 4, ev) <= block_mi(batch.h, qhat, 1.0, 4, ev) + 1e-9).all()


class TestProp3:
    def test_brute_force_small_instances(self):
        rng = Rng(9, 0)
        for _ in range(200):
            m = int(rng.gen.integers(1, 5))
            n = int(rng.gen.integers(1, 5))
            a = rng.gen.uniform(size=(m, n)) + 1e-12
            a /= a.sum(axis=1, keepdims=True)
            y = rng.gen.normal(scale=3.0, size=(m, n))
            assert prop3_gap(a, y) >= -1e-12

    def test_equality_at_single_row(self):
        a = np.array([[0.25, 0.75]])
        y = np.array([[1.0, -2.0]])
        assert prop3_gap(a, y) == pytest.approx(0.0, abs=1e-15)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        cb = QuantizedCodebook(b=2, n1=2, n2=2, unitaries=haar_unitaries(2, Rng(10, 0)),
                               lambdas=[4.0 * np.eye(4)[0], np.array([1.0, 2.0, 1.0, 0.0])],
                               k=4, nc=4, nt=4)
        back = from_text(to_text(cb))
        assert (back.b, back.n1, back.n2, back.nt, back.nc, back.k) == (2, 2, 2, 4, 4, 4)
        for u, v in zip(cb.unitaries, back.unitaries):
            assert np.array_equal(u, v)
        for a, b in zip(cb.lambdas, back.lambdas):
            assert np.array_equal(a, b)

    def test_rejects_truncated_text(self):
        cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, Rng(10, 1)),
                               lambdas=mode_diagonals([0]), k=4, nc=4, nt=4)
        text = to_text(cb)
        with pytest.raises(ValueError):
            from_text("\n".join(text.splitlines()[:-2]))
