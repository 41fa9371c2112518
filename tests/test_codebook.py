import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ldfeedback.channel import iid_model, top_eigenvalues, v4_model
from ldfeedback.codebook import (
    QuantizedCodebook,
    delta_mi,
    delta_snr,
    random_rank_two_lambdas,
    s_matrix,
    select_mi,
    select_snr,
    trace_mi,
)
from ldfeedback.errors import PreconditionError
from ldfeedback.infotheory import Constellation, MiEvaluator, block_mi
from ldfeedback.matkit import Rng, haar_unitaries, hermitian_eig
from ldfeedback.simengine import draw_trials
from ldfeedback.verify import prop3_gap


def gaussian_eval():
    return MiEvaluator(Constellation.gaussian())


def realization(stream, nt=4, nr=4, seed=313):
    """One i.i.d. channel draw as the n = 1 stack h."""
    return draw_trials(iid_model(nt, nr), 1, seed, first_stream=stream)[0]


def mode_diagonals(modes, nt=4, budget=4.0):
    """Full-budget rank-one diagonals budget * e_m, one per mode index."""
    return [budget * np.eye(nt)[m] for m in modes]


def codebook_with_eigenbasis(h, nt=4, nc=4, k=4, extra=3, seed=99):
    """Codebook whose first unitary is the eigenbasis of the one-trial stack h, mode-1 diagonal."""
    eig = hermitian_eig(h[0].conj().T @ h[0])
    rng = Rng(seed, 0)
    unitaries = [eig.vectors, *haar_unitaries(extra, nt, rng)]
    lam = np.zeros(nt)
    lam[0] = nt * nc / k
    return QuantizedCodebook(b=2, n1=1 + extra, n2=1, unitaries=unitaries, lambdas=[lam],
                             k=k, nc=nc, nt=nt)


def mi_rule(cb, h, rho, ev):
    """MI-rule selected values of a codebook on every trial of a channel stack."""
    return select_mi(s_matrix(h, cb.unitaries), cb.lambdas, rho, cb.k, cb.nt, ev)


def snr_rule(cb, h):
    """SNR-rule selected values of a codebook on every trial of a channel stack."""
    return select_snr(s_matrix(h, cb.unitaries), cb.lambdas, cb.k, cb.nt, cb.nc)


def snr_gap(cb, h, rho):
    """delta_snr of a codebook on every trial of a channel stack."""
    return delta_snr(s_matrix(h, cb.unitaries), cb.lambdas, top_eigenvalues(h), rho, cb.k, cb.nt, cb.nc)


def mi_gap(cb, h, rho, ev):
    """delta_mi of a codebook on every trial of a channel stack."""
    return delta_mi(s_matrix(h, cb.unitaries), cb.lambdas, top_eigenvalues(h), rho, cb.k, cb.nt, cb.nc, ev)


class TestRvqCodebook:
    """Random-vector-quantization codebooks: Haar i.i.d. unitaries with given diagonals."""

    def test_single_mode_split(self):
        cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, 4, Rng(1, 0)),
                               lambdas=mode_diagonals([0]), k=4, nc=4, nt=4)
        assert len(cb.unitaries) == 4 and len(cb.lambdas) == 1
        assert np.array_equal(cb.lambdas, [[4.0, 0.0, 0.0, 0.0]])

    def test_two_by_two_split(self):
        cb = QuantizedCodebook(b=2, n1=2, n2=2, unitaries=haar_unitaries(2, 4, Rng(1, 1)),
                               lambdas=mode_diagonals([0, 2]), k=4, nc=4, nt=4)
        assert cb.n1 * cb.n2 == 4
        assert np.array_equal(cb.lambdas[1], [0.0, 0.0, 4.0, 0.0])

    def test_all_mode_set(self):
        cb = QuantizedCodebook(b=4, n1=4, n2=4, unitaries=haar_unitaries(4, 4, Rng(1, 2)),
                               lambdas=mode_diagonals(range(4)), k=4, nc=4, nt=4)
        assert np.allclose(cb.lambdas, 4.0 * np.eye(4))

    def test_rejects_split_mismatch(self):
        with pytest.raises(PreconditionError):
            QuantizedCodebook(b=2, n1=3, n2=1, unitaries=haar_unitaries(3, 4, Rng(1, 3)),
                              lambdas=mode_diagonals([0]), k=4, nc=4, nt=4)

    def test_rejects_trace_violation(self):
        with pytest.raises(PreconditionError):
            QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, 4, Rng(1, 4)),
                              lambdas=[np.full(4, 2.0)], k=4, nc=4, nt=4)


def rank_two_lambdas_by_uniform(count, n2, nt, nc, k, rng):
    """random_rank_two_lambdas as it was written before: one uniform() draw per split."""
    budget = nt * nc / k
    pairs = list(itertools.combinations(range(nt), 2))
    sets = np.zeros((count, n2, nt))
    for lam in sets.reshape(-1, nt):
        p0, p1 = pairs[int(rng.gen.integers(len(pairs)))]
        w = float(rng.gen.uniform())
        lam[p0] = w * budget
        lam[p1] = (1.0 - w) * budget
    return sets


def assert_same_stream(rng, ref):
    """The next 32-bit, 64-bit and double draws of two streams agree, held halves included."""
    assert rng.gen.bit_generator.state["has_uint32"] == ref.gen.bit_generator.state["has_uint32"]
    assert np.array_equal(rng.gen.integers(6, size=3), ref.gen.integers(6, size=3))
    assert np.array_equal(rng.gen.random(3), ref.gen.random(3))
    assert np.array_equal(rng.gen.integers(2**40, size=2), ref.gen.integers(2**40, size=2))


class TestRandomRankTwo:
    @given(count=st.integers(1, 20), n2=st.integers(1, 4), nt=st.integers(2, 6),
           seed=st.integers(0, 2**64 - 1), held=st.booleans())
    @settings(deadline=None)
    def test_matches_uniform_form(self, count, n2, nt, seed, held):
        # the draws equal one integers() and one uniform() call per diagonal, and leave
        # the stream where they leave it; a 32-bit draw before the call leaves a half
        # held on entry, and Nt = 2 draws one pair, which takes no bits
        rng, ref = Rng(seed, 5), Rng(seed, 5)
        if held:
            assert rng.gen.integers(6) == ref.gen.integers(6)
        assert np.array_equal(random_rank_two_lambdas(count, n2, nt, 4, 4, rng),
                              rank_two_lambdas_by_uniform(count, n2, nt, 4, 4, ref))
        assert_same_stream(rng, ref)

    @pytest.mark.parametrize("held", [False, True], ids=["fresh", "held-half"])
    def test_forced_integers_redraw_matches_uniform_form(self, held):
        # buffered words whose low half is 0 give a 32-bit half of 0, whose product with
        # C(4, 2) = 6 has low bits 0 < 2^32 mod 6: Lemire's rule redraws inside
        # Generator.integers, and the draws still match the uniform form and its stream
        rng, ref = Rng(8, 5), Rng(8, 5)
        for r in (rng, ref):
            if held:
                r.gen.integers(6)
            state = r.gen.bit_generator.state
            state["buffer"] = np.array([7 << 32, 1 << 40, 0, 5 << 32], dtype=np.uint64)
            state["buffer_pos"] = 0
            r.gen.bit_generator.state = state
        assert np.array_equal(random_rank_two_lambdas(3, 2, 4, 4, 4, rng),
                              rank_two_lambdas_by_uniform(3, 2, 4, 4, 4, ref))
        assert_same_stream(rng, ref)

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
        h = realization(0)
        eig = hermitian_eig(h[0].conj().T @ h[0])
        s = s_matrix(h, [eig.vectors])
        assert s.shape == (1, 1, 4)
        assert np.allclose(s[0, 0], eig.values, atol=1e-10)

    def test_sum_is_channel_power(self):
        h = realization(1)
        s = s_matrix(h, haar_unitaries(1, 4, Rng(3, 0)))[0, 0]
        assert abs(s.sum() - np.vdot(h, h).real) <= 1e-10
        assert s.max() <= top_eigenvalues(h)[0] + 1e-10

    def test_matches_definition_through_eigen_factor(self):
        # oracle: squared column norms of Lh^(1/2) Uh^H U
        h = realization(2)
        eig = hermitian_eig(h[0].conj().T @ h[0])
        u = haar_unitaries(1, 4, Rng(3, 1))[0]
        factor = np.diag(np.sqrt(eig.values)) @ eig.vectors.conj().T @ u
        expect = (np.abs(factor) ** 2).sum(axis=0)
        assert np.allclose(s_matrix(h, [u])[0, 0], expect, atol=1e-10)

    def test_zero_channel(self):
        s = s_matrix(np.zeros((1, 4, 4), dtype=complex), [np.eye(4, dtype=complex)])
        assert np.array_equal(s, np.zeros((1, 1, 4)))

    @pytest.mark.parametrize("model", [iid_model(2, 2), iid_model(4, 4), v4_model()],
                             ids=["iid2x2", "iid4x4", "v4"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flattened_product_matches_stacked(self, model, seed):
        # the slow reference: one small H_n @ U_i product per trial
        h, _ = draw_trials(model, 3000, seed)
        unitaries = haar_unitaries(4, model.nt, Rng(seed, 1))
        stacked = np.stack([(np.abs(h @ u) ** 2).sum(axis=1) for u in unitaries], axis=1)
        assert s_matrix(h, unitaries).tobytes() == stacked.tobytes()


class TestSelectMi:
    def test_exact_eigenbasis_codeword_wins(self):
        ev = gaussian_eval()
        for stream in range(10):
            h = realization(stream)
            cb = codebook_with_eigenbasis(h)
            value = mi_rule(cb, h, 2.0, ev)
            expect = cb.k * ev.mi(2.0 * cb.nc / cb.k * top_eigenvalues(h)[0])
            assert value[0] == pytest.approx(expect, rel=1e-12)

    def test_zero_snr_tie_break(self):
        cb = QuantizedCodebook(b=2, n1=2, n2=2, unitaries=haar_unitaries(2, 4, Rng(4, 0)),
                               lambdas=mode_diagonals([0, 1]), k=4, nc=4, nt=4)
        assert mi_rule(cb, realization(0), 0.0, gaussian_eval())[0] == 0.0

    def test_argmax_against_recomputation(self):
        ev = gaussian_eval()
        stack = realization(4)
        h = stack[0]
        cb = QuantizedCodebook(b=2, n1=2, n2=2, unitaries=haar_unitaries(2, 4, Rng(4, 1)),
                               lambdas=mode_diagonals([1, 3]), k=4, nc=4, nt=4)
        value = mi_rule(cb, stack, 1.5, ev)[0]
        for u in cb.unitaries:
            for lam in cb.lambdas:
                q = (u * lam) @ u.conj().T
                val = cb.k * ev.mi(1.5 / cb.nt * np.einsum("ij,jk,ik->", h, q, h.conj()).real)
                assert value >= val - 1e-12

    def test_determinism(self):
        ev = gaussian_eval()
        h = realization(5)
        cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, 4, Rng(4, 2)),
                               lambdas=mode_diagonals([2]), k=4, nc=4, nt=4)
        assert np.array_equal(mi_rule(cb, h, 2.0, ev), mi_rule(cb, h, 2.0, ev))


def mi_rule_definition(smat, lambdas, rho, k, nt, ev):
    """The MI rule by its definition: K * I of every codeword, then the maximum.

    Returns the values and the per-codeword arguments flattened over (N1, N2).
    """
    args = np.maximum(np.einsum("...im,...jm->...ij", smat, lambdas), 0.0) * rho / nt
    args = args.reshape(args.shape[:-2] + (-1,))
    return (k * ev.mi(args)).max(axis=-1), args


ALPHABETS = {"gaussian": Constellation.gaussian, "bpsk": Constellation.bpsk,
             "pam4": lambda: Constellation("pam4")}
# up to 1e6: past every table's last knot for most codewords of most trials
TRACE_RHOS = np.array([0.0, 0.3, 2.0, 8.0, 40.0, 1e3, 1e6])


@pytest.mark.parametrize("name", list(ALPHABETS))
class TestTraceSelection:
    """select_mi evaluates K * I at the largest trace only; that must be the MI rule's value.

    Every row must match exactly, for a discrete table too, including rows
    whose arguments reach the saturated band or lie past the last knot.
    """

    def _inputs(self, per_trial):
        h, _ = draw_trials(iid_model(4, 4), 300, 61)
        rng = Rng(61, 1)
        smat = s_matrix(h, haar_unitaries(4, 4, rng))
        if per_trial:
            # per-trial competitor diagonals, as in verify thm4: leading axes (trials, competitors)
            w = rng.gen.uniform(size=(300, 5, 3, 4))
            return smat[:, None], 4.0 * w / w.sum(axis=-1, keepdims=True)
        w = rng.gen.uniform(size=(2, 4))
        return smat, 4.0 * w / w.sum(axis=-1, keepdims=True)

    def _check(self, name, per_trial):
        ev = MiEvaluator(ALPHABETS[name]())
        smat, lambdas = self._inputs(per_trial)
        saturated_rows = 0
        for rho in TRACE_RHOS:
            values = select_mi(smat, lambdas, rho, 4, 4, ev)
            assert values.shape == np.broadcast_shapes(smat.shape[:-2], lambdas.shape[:-2])
            want, args = mi_rule_definition(smat, lambdas, rho, 4, 4, ev)
            if name != "gaussian":
                saturated_rows += (args.min(axis=-1) > ev._table().knots[-1]).sum()
            assert np.array_equal(values, want)
            # K * I at the einsum's own reduction of the traces, bit for bit
            assert values.tobytes() == trace_mi(trace_max_reference(smat, lambdas), rho, 4, 4, ev).tobytes()
            assert rho > 0 or (values == 0).all()
        if name != "gaussian":
            assert saturated_rows > 0

    def test_shared_codebook(self, name):
        self._check(name, per_trial=False)

    def test_per_trial_lambdas(self, name):
        self._check(name, per_trial=True)


def trace_max_reference(smat, lambdas):
    """The codeword maximum as the einsum's reduction over its two trailing (N1, N2) axes."""
    return np.einsum("...im,...jm->...ij", smat, lambdas).max(axis=(-2, -1))


@st.composite
def codebook_inputs(draw):
    """smat and lambdas in the two broadcast layouts the callers use, N1, N2, Nt in 1..4.

    "shared" is one codebook for every trial, (n, N1, Nt) with (N2, Nt);
    "per-trial" is verify thm4's smat[:, None] with (n, C, N2, Nt). "equal"
    makes every trace the same, "negative" makes every trace <= 0.
    """
    n1, n2, nt, n, c = (draw(st.integers(1, 4)) for _ in range(5))
    values = st.floats(-8.0, 8.0, allow_nan=False, allow_subnormal=False)
    layout = draw(st.sampled_from(["shared", "per-trial"]))
    pattern = draw(st.sampled_from(["random", "equal", "negative"]))
    smat = draw(arrays(np.float64, (n, n1, nt), elements=values))
    lambdas = draw(arrays(np.float64, (n2, nt) if layout == "shared" else (n, c, n2, nt), elements=values))
    if pattern == "equal":
        smat = np.broadcast_to(smat[:, :1], smat.shape).copy()
        lambdas = np.broadcast_to(lambdas[..., :1, :], lambdas.shape).copy()
    elif pattern == "negative":
        smat, lambdas = np.abs(smat), -np.abs(lambdas)
    return (smat if layout == "shared" else smat[:, None]), lambdas


class TestCodewordMaximum:
    """select_snr and select_mi against the einsum reduction they replace, bit for bit."""

    @given(inputs=codebook_inputs(), k=st.integers(1, 4), nc=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_trailing_axis_max(self, inputs, k, nc):
        smat, lambdas = inputs
        nt = smat.shape[-1]
        want = trace_max_reference(smat, lambdas * (k / (nt * nc)))
        assert select_snr(smat, lambdas, k, nt, nc).tobytes() == want.tobytes()
        ev = gaussian_eval()
        clipped = np.maximum(trace_max_reference(smat, lambdas), 0.0)
        for rho in TRACE_RHOS:
            want = k * ev.mi(clipped * rho / nt)
            assert select_mi(smat, lambdas, rho, k, nt, ev).tobytes() == want.tobytes()


class TestSelectSnr:
    def test_rank_one_codebook_reduces_to_best_mode_power(self):
        h = realization(6)
        cb = QuantizedCodebook(b=3, n1=2, n2=4, unitaries=haar_unitaries(2, 4, Rng(5, 0)),
                               lambdas=mode_diagonals(range(4)), k=4, nc=4, nt=4)
        value = snr_rule(cb, h)[0]
        smax = s_matrix(h, cb.unitaries).max()
        assert value == pytest.approx(smax, abs=1e-12)

    def test_agrees_with_mi_rule_for_gaussian(self):
        ev = gaussian_eval()
        rng = Rng(5, 1)
        for stream in range(200):
            h = realization(stream, seed=551)
            lamsets = random_rank_two_lambdas(1, 2, 4, 4, 4, rng)[0]
            cb = QuantizedCodebook(b=2, n1=2, n2=2, unitaries=haar_unitaries(2, 4, rng),
                                   lambdas=lamsets, k=4, nc=4, nt=4)
            # Tr(H Q H^H) = Nt*Nc/K times the snr-rule objective, so both rules pick the same value
            expect = cb.k * ev.mi(1.3 * cb.nc / cb.k * snr_rule(cb, h)[0])
            assert mi_rule(cb, h, 1.3, ev)[0] == pytest.approx(expect, rel=1e-12)

    def test_zero_channel_tie_break(self):
        cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, 4, Rng(5, 2)),
                               lambdas=mode_diagonals([0]), k=4, nc=4, nt=4)
        smat = s_matrix(np.zeros((1, 4, 4), dtype=complex), cb.unitaries)
        assert select_snr(smat, cb.lambdas, cb.k, cb.nt, cb.nc)[0] == 0.0


class TestGaps:
    def test_exact_codeword_gives_zero_gaps(self):
        ev = gaussian_eval()
        h = realization(7)
        cb = codebook_with_eigenbasis(h)
        assert abs(snr_gap(cb, h, 2.0)[0]) <= 1e-10
        assert abs(mi_gap(cb, h, 2.0, ev)[0]) <= 1e-9

    def test_zero_snr_zero_mi_gap(self):
        cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, 4, Rng(6, 0)),
                               lambdas=mode_diagonals([1]), k=4, nc=4, nt=4)
        assert mi_gap(cb, realization(8), 0.0, gaussian_eval())[0] == 0.0

    def test_snr_gap_nonnegative(self):
        rng = Rng(6, 1)
        for stream in range(100):
            h = realization(stream, seed=661)
            lambdas = mode_diagonals([int(rng.gen.integers(4))])
            cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, 4, rng),
                                   lambdas=lambdas, k=4, nc=4, nt=4)
            assert snr_gap(cb, h, 1.0)[0] >= -1e-12

    def test_mi_gap_below_snr_gap(self):
        # per-realization Lemma-1 form at a smaller scale; the full-size run
        # lives in the acceptance suite
        ev = gaussian_eval()
        rng = Rng(6, 2)
        unitaries = haar_unitaries(4, 4, rng)
        lambdas = random_rank_two_lambdas(1, 1, 4, 4, 4, rng)[0]
        cb = QuantizedCodebook(b=2, n1=4, n2=1, unitaries=unitaries, lambdas=lambdas,
                               k=4, nc=4, nt=4)
        h, _ = draw_trials(v4_model(), 1000, 662)
        for rho in (1.0, 10.0):
            assert (mi_gap(cb, h, rho, ev) <= snr_gap(cb, h, rho) + 1e-12).all()


class TestRankOneStrongOptimality:
    def test_beats_arbitrary_competitors_per_realization(self):
        ev = gaussian_eval()
        nt, nc, k = 4, 4, 4
        rng = Rng(7, 0)
        unitaries = haar_unitaries(4, 4, rng)
        rank_one = QuantizedCodebook(b=4, n1=4, n2=4, unitaries=unitaries,
                                     lambdas=mode_diagonals(range(nt)), k=k, nc=nc, nt=nt)
        h, _ = draw_trials(iid_model(4, 4), 100, 771)
        ref = mi_rule(rank_one, h, 2.0, ev)
        smat = s_matrix(h, unitaries)
        for _ in range(5):
            w = rng.gen.uniform(size=(len(h), 4, nt))
            w /= w.sum(axis=-1, keepdims=True)
            got = select_mi(smat, 4.0 * w, 2.0, k, nt, ev)
            assert (got <= ref + 1e-9).all()


class TestProp2CodebookLevel:
    def test_averaged_codeword_never_worse(self):
        ev = gaussian_eval()
        rng = Rng(8, 0)
        k = 4
        h, _ = draw_trials(iid_model(4, 4), 50, 881)
        qs = np.empty((len(h), k, 4, 4), dtype=complex)
        for t in range(len(h)):
            shares = rng.gen.uniform(size=k)
            shares = shares / shares.sum() * 16.0
            for idx, tr in enumerate(shares):
                a = rng.gen.standard_normal((4, 4)) + 1j * rng.gen.standard_normal((4, 4))
                q = a @ a.conj().T
                qs[t, idx] = q * (tr / q.trace().real)
        qhat = np.broadcast_to(qs.mean(axis=1, keepdims=True), qs.shape)
        assert (block_mi(h, qs, 1.0, 4, ev) <= block_mi(h, qhat, 1.0, 4, ev) + 1e-9).all()


def prop3_gap_meshgrid(a, y):
    """prop3_gap of one (M, N) instance in the per-instance meshgrid form the stacked one replaced."""
    m, n = a.shape
    lhs = float(max(np.dot(a[j], y[j]) for j in range(m)))
    grids = np.meshgrid(*[y[j] for j in range(m)], indexing="ij")
    ymax = grids[0]
    for g in grids[1:]:
        ymax = np.maximum(ymax, g)
    w = a[0]
    for j in range(1, m):
        w = np.multiply.outer(w, a[j])
    rhs = float((w * ymax).sum())
    return rhs - lhs


class TestProp3:
    def test_brute_force_small_instances(self):
        rng = Rng(9, 0)
        for _ in range(200):
            m = int(rng.gen.integers(1, 5))
            n = int(rng.gen.integers(1, 5))
            a = rng.gen.uniform(size=(m, n)) + 1e-12
            a /= a.sum(axis=1, keepdims=True)
            y = rng.gen.normal(scale=3.0, size=(m, n))
            assert prop3_gap(a[None], y[None])[0] >= -1e-12

    def test_equality_at_single_row(self):
        a = np.array([[0.25, 0.75]])
        y = np.array([[1.0, -2.0]])
        assert prop3_gap(a[None], y[None])[0] == pytest.approx(0.0, abs=1e-15)

    @given(m=st.integers(1, 4), n=st.integers(1, 4), count=st.integers(1, 8),
           seed=st.integers(0, 2**64 - 1))
    @settings(deadline=None)
    def test_stack_equals_meshgrid_form(self, m, n, count, seed):
        gen = Rng(seed, 0).gen
        a = gen.uniform(size=(count, m, n)) + 1e-12
        a /= a.sum(axis=-1, keepdims=True)
        y = gen.normal(scale=3.0, size=(count, m, n))
        gaps = prop3_gap(a, y)
        assert gaps.shape == (count,)
        for i in range(count):
            assert gaps[i] == prop3_gap_meshgrid(a[i], y[i])
