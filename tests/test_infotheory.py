import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from ldfeedback.channel import iid_model, sample
from ldfeedback.codebook import random_rank_two_lambdas, s_matrix, select_mi
from ldfeedback.dispersion import rank_one_set
from ldfeedback.errors import InfeasibleError, PreconditionError
from ldfeedback import infotheory
from ldfeedback.infotheory import (
    LN2,
    NOISE_ENTROPY,
    Constellation,
    MiEvaluator,
    _gh_nodes,
    block_mi,
    perfect_csi_mi,
)
from ldfeedback.matkit import Rng, hermitian_eig
from ldfeedback.simengine import (
    STREAM_TOURNAMENT,
    SimConfig,
    _curve_point,
    _rhos,
    default_unitaries,
    draw_trials,
    run,
    scheme_block_mi,
)

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
# Frozen oracle (I, mmse) where the order-256 quadrature is farthest from it.
ORACLE_WORST = {
    ("bpsk", 7.16): (0.6929207772883337, 0.0002388074993970868),
    ("pam4", 35.8): (1.3859547562124739, 7.164224981903722e-05),
    ("pam8", 150.0): (2.0790381062000862, 2.0265791433993208e-05),
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
    return MiEvaluator(Constellation(kind))


def full_quadrature(a, points):
    """Slow reference for the fast quadrature: all 256 Gauss-Hermite nodes, all M components.

    H(Y | x_s) = -E[ln p(mu_s + t)] for every component s, with
    ln p(y) = logsumexp(-(y - mu_s')^2 - ln M) - 0.5*ln(pi), and
    mmse = 1 - E[E[x | y]^2]; one a at a time.
    """
    t, w = np.polynomial.hermite.hermgauss(256)
    w = w / math.sqrt(math.pi)
    mi, mmse = np.empty_like(a), np.empty_like(a)
    for i, x in enumerate(a):
        mu = math.sqrt(x) * points
        y = mu[:, None] + t  # (S, Q)
        logits = -((y[None] - mu[:, None, None]) ** 2) - math.log(points.size)  # (S', S, Q)
        peak = logits.max(axis=0)
        unnorm = np.exp(logits - peak)
        total = unnorm.sum(axis=0)
        lnp = peak + np.log(total) - 0.5 * math.log(math.pi)
        mi[i] = -(lnp * w).sum(axis=-1).mean() - NOISE_ENTROPY
        post_mean = (unnorm * points[:, None, None]).sum(axis=0) / total
        mmse[i] = 1.0 - (post_mean**2 * w).sum(axis=-1).mean()
    return mi, mmse


def hermite_pair(t, n):
    """(p_{n-1}(t), p_n(t)), p the Hermite polynomials orthonormal under exp(-t^2)."""
    prev, cur = np.zeros_like(t), np.full_like(t, math.pi**-0.25)
    for k in range(n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * t * cur - math.sqrt(k / (k + 1)) * prev
    return prev, cur


def derived_gh_rule():
    """The positive half (nodes increasing, weights) of the order-_QUAD_ORDER rule, derived.

    This is the derivation src/ldfeedback/_hermite_rule.py tabulates (Golub &
    Welsch, Math. Comp. 1969, on half the order): the positive nodes are the
    square roots of the eigenvalues of J^2 on the even degrees, J the Jacobi
    matrix of the Hermite polynomials, each polished by one Newton step on
    p_n; the weights are 1 / (n sqrt(pi) p_{n-1}(t)^2), normalized to sum to 1.
    """
    n = infotheory._QUAD_ORDER
    off = np.sqrt(np.arange(1, n) / 2.0)
    jac = np.diag(off, 1) + np.diag(off, -1)
    t = np.sqrt(np.linalg.eigvalsh(jac[0::2] @ jac[:, 0::2]))
    below, top = hermite_pair(t, n)
    t = t - top / (math.sqrt(2.0 * n) * below)
    below = hermite_pair(t, n)[0]
    return t, 1.0 / (n * math.sqrt(math.pi) * below * below)


FRESH_BUILD = r"""
import sys, tracemalloc
import numpy as np
from ldfeedback.infotheory import Constellation, MiEvaluator

def refuse(*args, **kwargs):
    raise AssertionError("dense linear algebra on the way to a table")

if sys.argv[2] == "refuse":
    np.linalg.eigvalsh = np.linalg.eigh = refuse
evaluator = MiEvaluator(Constellation(sys.argv[1]))
tracemalloc.start()
evaluator._table()
print(tracemalloc.get_traced_memory()[1])
"""


def fresh_table_build(kind, refuse_linalg=False):
    """tracemalloc peak in bytes of the first table build of a fresh process, which fails on
    np.linalg.eigvalsh or eigh when refuse_linalg is set."""
    env = dict(os.environ, PYTHONPATH=str(Path(infotheory.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", FRESH_BUILD, kind, "refuse" if refuse_linalg else "allow"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def rule_literal(t, w):
    """The NODES and WEIGHTS assignments of src/ldfeedback/_hermite_rule.py for the rule (t, w)."""
    def assignment(name, values):
        rows = [", ".join(repr(float(v)) for v in values[i : i + 3]) for i in range(0, values.size, 3)]
        return f"{name} = np.array([\n" + "".join(f"    {row},\n" for row in rows) + "])\n"
    return assignment("NODES", t) + assignment("WEIGHTS", w)


_BPSK_SHA = "723f1c3eac1d2c306857db9f4466b219af88d13fb056836892154fcd058c55d5"
_PAM4_SHA = "e70b6c661b1e0ea0338f51728455990c6f9e38e6e74ad12e4974e3f39dfa2700"
# name -> (kind, SHA-256 of the point bytes), recorded from Constellation.from_name
# before the names moved into the constructor: the kinds and every bit of the points
# stay, and PAM2 keeps the BPSK points, so the two share one table
NAMED_ALPHABETS = {
    "gaussian": ("gaussian", None), "GAUSSIAN": ("gaussian", None),
    "bpsk": ("bpsk", _BPSK_SHA), "BPSK": ("bpsk", _BPSK_SHA), "pam2": ("pam2", _BPSK_SHA),
    "pam3": ("pam3", "c2c7921d896447c520ff5346a36aa109c3025e221466bc00e8ce48ff35fc6007"),
    "PAM4": ("pam4", _PAM4_SHA), "pam04": ("pam4", _PAM4_SHA),
    "pam8": ("pam8", "d1fdfe0c19fc7dbd420a606e62627c463257acfad2c6c73b99ae9b044d83558a"),
    "pam64": ("pam64", "2fcc189a48f48936e389b4e0a3bc46a7a7e2af62076964301b9099ff7ed6e5a1"),
}


class TestConstellation:
    @pytest.mark.parametrize("kind", ["bpsk", "pam4", "pam8"])
    def test_zero_mean_unit_variance(self, kind):
        pts = Constellation(kind).points
        assert pts.mean() == 0.0
        assert abs(np.mean(pts**2) - 1.0) <= 1e-15

    def test_bpsk_alphabet(self):
        assert np.array_equal(Constellation.bpsk().points, [-1.0, 1.0])

    @pytest.mark.parametrize("name", list(NAMED_ALPHABETS))
    def test_name_gives_kind_and_points(self, name):
        kind, digest = NAMED_ALPHABETS[name]
        made = Constellation(name)
        assert made.kind == kind
        if digest is None:
            assert made.points is None
        else:
            assert hashlib.sha256(made.points.tobytes()).hexdigest() == digest
            ordered = np.sort(made.points)
            assert np.array_equal(ordered, -ordered[::-1]) and (np.diff(ordered) > 0).all()


class TestFrozenOracleValues:
    def test_oracle_reproduces_frozen(self):
        # guard against drift in the oracle itself
        for (kind, a), expect in list(ORACLE_MI.items())[:3]:
            assert abs(oracle_mi(a, Constellation(kind).points) - expect) <= 1e-10

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
        # anywhere in an array
        for kind in ("gaussian", "bpsk"):
            ev = make_eval(kind)
            for bad in (-0.1, -np.inf, np.inf, np.nan, -0.0 - 1e-300):
                for pos in range(3):
                    a = np.array([0.5, 2.0, 7.0])
                    a[pos] = bad
                    for call in (ev.mi, ev.mmse):
                        with pytest.raises(PreconditionError, match="finite arguments a >= 0"):
                            call(a)
            assert ev.mi(np.empty(0)).shape == (0,)
            assert ev.mi(-0.0) == 0.0

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


TABLE_KINDS = ["bpsk", "pam4", "pam8"]


class TestTable:
    """The interpolation table of a discrete alphabet against the quadrature it is built from."""

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_matches_quadrature(self, kind):
        ev = make_eval(kind)
        a = np.exp(Rng(15, 0).gen.uniform(math.log(1e-8), math.log(1e4), 20_000))
        assert np.abs(ev.mi(a) - ev.reference_mi(a)).max() <= 5e-10
        assert np.abs(ev.mmse(a) - ev.reference_mmse(a)).max() <= 1e-7

    @pytest.mark.parametrize("kind,a", sorted(ORACLE_WORST))
    def test_quadrature_against_oracle_at_its_worst(self, kind, a):
        # order 128 misses these by 7e-9 to 1.1e-8 in mi and up to 4.2e-7 in mmse
        ev = make_eval(kind)
        want_mi, want_mmse = ORACLE_WORST[(kind, a)]
        assert abs(ev.reference_mi(a) - want_mi) <= 1e-9
        assert abs(ev.reference_mmse(a) - want_mmse) <= 5e-8

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_knots_hold_the_quadrature_values(self, kind):
        # the mi knots hold the quadrature made non-decreasing and capped at
        # ln M, which moves no knot by more than two ulps of ln M
        ev = make_eval(kind)
        table = ev._table()
        quad = ev.reference_mi(table.knots)
        projected = np.minimum(np.maximum.accumulate(quad), table.ln_m)
        assert np.abs(projected - quad).max() <= 2 * np.spacing(table.ln_m)
        assert np.array_equal(ev.mi(table.knots), projected)
        assert np.array_equal(ev.mmse(table.knots), np.maximum(ev.reference_mmse(table.knots), 0.0))

    def test_pam8_mmse_never_negative(self):
        # the quadrature's 1 - E[E[x | y]^2] reads -2.2e-16 at saturated PAM8 knots;
        # the table stores 0 there, so neither those knots nor the intervals they start go negative
        ev = make_eval("pam8")
        knots = ev._table().knots
        assert (ev.reference_mmse(knots) < 0).any()
        assert (ev.mmse(knots) >= 0).all()
        assert (ev.mmse(np.linspace(0.6 * knots[-1], knots[-1], 100_000)) >= 0).all()

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_interpolant_non_decreasing(self, kind):
        # over the whole grid and densely where I comes within ulps of ln M
        ev = make_eval(kind)
        last = ev._table().knots[-1]
        for a in (np.exp(np.linspace(math.log(1e-7), math.log(2.0 * last), 400_000)),
                  np.linspace(0.6 * last, 1.01 * last, 400_000)):
            values = ev.mi(a)
            assert (np.diff(values) >= 0).all()
            assert values.max() <= ev._table().ln_m

    def test_tabulated_rule_matches_its_derivation(self):
        # the literals are the derivation's doubles under Python 3.11.7, numpy
        # 2.4.6 and scipy-openblas 0.3.31; another LAPACK may round the
        # eigenvalues otherwise, hence 1 ulp in a node and 1e-15 in a weight
        t, w = derived_gh_rule()
        tab_t, tab_w = (half[half.size // 2 :] for half in _gh_nodes())
        close = (np.abs(tab_t - t) <= np.spacing(t)).all() and (np.abs(tab_w - w) <= 1e-15 * w).all()
        assert close, ("the tabulated rule and its derivation differ; regenerated literals for "
                       "src/ldfeedback/_hermite_rule.py:\n" + rule_literal(t, w))

    def test_nodes_match_hermgauss(self):
        t, w = _gh_nodes()
        ref_t, ref_w = np.polynomial.hermite.hermgauss(256)
        ref_w = ref_w / math.sqrt(math.pi)
        assert (np.abs(t - ref_t) <= 4 * np.spacing(np.abs(ref_t))).all()
        kept = np.abs(ref_t) < 7.0
        assert np.abs(w[kept] / ref_w[kept] - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("kind", ["bpsk", "pam3", "pam4", "pam8"])
    def test_quadrature_matches_full_order(self, kind):
        # the dropped nodes add at most 1e-20; the rest is the rounding of sums
        # of at most 256 terms whose sizes total below 3.2 (h(Y) <= ln 8 + 1.1),
        # at worst about 256 * 3.2 * 2^-53 = 9e-14
        ev = make_eval(kind)
        knots = ev._table().knots
        want_mi, want_mmse = full_quadrature(knots, ev.constellation.points)
        assert np.abs(ev.reference_mi(knots) - want_mi).max() <= 1e-13
        assert np.abs(ev.reference_mmse(knots) - want_mmse).max() <= 1e-13

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_zero_and_continuity_at_the_grid_ends(self, kind):
        ev = make_eval(kind)
        assert ev.mi(0.0) == 0.0 and ev.mmse(0.0) == 1.0
        knots = ev._table().knots
        for edge in (knots[0], knots[-1]):
            below, above = np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)
            assert abs(ev.mi(above) - ev.mi(below)) <= 1e-15
            assert abs(ev.mmse(above) - ev.mmse(below)) <= 1e-11

    @pytest.mark.parametrize("kind", ["bpsk", "pam3", "pam4", "pam8", "pam16"])
    def test_table_independent_of_work_array_size(self, kind, monkeypatch):
        # each knot is integrated on its own, so the knot chunks that a 2^12-,
        # 2^15- or 2^17-double work array holds give the same table, bit for
        # bit (2^12 holds one PAM8 knot, so its buffers are reused per knot;
        # PAM16 weights 8 components, where a BLAS product per chunk rounded
        # a knot by its place in the chunk)
        tables = []
        for work in (1 << 12, 1 << 15, 1 << 17):
            monkeypatch.setattr(infotheory, "_QUAD_WORK", work)
            monkeypatch.setattr(infotheory, "_table_cache", {})
            tables.append(make_eval(kind)._table())
        for other in tables[1:]:
            assert other.knots.tobytes() == tables[0].knots.tobytes()
            assert other.mi_knots.tobytes() == tables[0].mi_knots.tobytes()
            assert other.mmse_knots.tobytes() == tables[0].mmse_knots.tobytes()

    @pytest.mark.parametrize("kind", ["bpsk", "pam3", "pam4", "pam8"])
    def test_locate_matches_binary_search(self, kind):
        # the arithmetic index against the binary search it replaces, on
        # log-uniform points, every knot and both its float neighbours, 0 and 1e9
        table = make_eval(kind)._table()
        knots = table.knots
        a = np.concatenate([
            np.exp(Rng(16, 0).gen.uniform(math.log(1e-7), math.log(300.0), 200_000)),
            knots, np.nextafter(knots, 0.0), np.nextafter(knots, np.inf), [0.0, 1e9],
        ])
        want_i = np.clip(np.searchsorted(knots, a, side="right") - 1, 0, knots.size - 1)
        want_x = np.maximum(a, knots[0])
        i, x, s = table._locate(a)
        assert np.array_equal(i, want_i)
        assert x.tobytes() == want_x.tobytes()
        assert s.tobytes() == (np.log(want_x) - table.u[want_i]).tobytes()

    @pytest.mark.parametrize("kind", ["bpsk", "pam4"])
    def test_first_build_needs_no_dense_linear_algebra(self, kind):
        assert fresh_table_build(kind, refuse_linalg=True) > 0

    @pytest.mark.parametrize("kind", ["bpsk", "pam3", "pam4", "pam8"])
    def test_first_build_memory_peak(self, kind):
        # the rule's import included. The bound was set before measuring, below
        # the 1046 to 1202 KiB that deriving the rule by an order-256 Jacobi
        # eigenproblem and allocating whole-chunk temporaries took (Python
        # 3.11.7, numpy 2.4.6)
        assert fresh_table_build(kind) <= 1000 * 1024

    def test_one_table_per_alphabet(self):
        first, second = Constellation("pam4"), Constellation("pam4")
        assert first is not second
        assert MiEvaluator(first)._table() is MiEvaluator(second)._table()
        # PAM2 has the BPSK points, so it is the same alphabet
        assert MiEvaluator(Constellation("pam2"))._table() is make_eval("bpsk")._table()
        assert make_eval("pam8")._table() is not make_eval("bpsk")._table()

    @pytest.mark.parametrize("kind", ["bpsk", "pam4"])
    def test_simulation_matches_quadrature_run(self, kind, monkeypatch):
        config = SimConfig(model=iid_model(2, 2), snr_grid_db=[0.0, 10.0], trials=20, seed=31,
                           constellation=Constellation(kind), k=2, nc=2,
                           schemes=["perfect", "statistical", "statistical-beamforming"],
                           opt_samples=100, b=2, n1=4, n2=1, rank_two_sets=3)

        def points():
            h, _ = draw_trials(config.model, config.trials, config.seed)
            smat = s_matrix(h, default_unitaries(config))
            label = "quantized-rank2-best"
            best = scheme_block_mi(config, label, smat)
            lamsets = random_rank_two_lambdas(config.rank_two_sets, config.n2, 2, 2, 2,
                                              Rng(config.seed, STREAM_TOURNAMENT))
            ev = MiEvaluator(config.constellation)
            every = [_curve_point(snr, f"quantized-rank2-{idx:02d}",
                                  select_mi(smat, lambdas, rho, config.k, 2, ev) / (config.nc * LN2))
                     for idx, lambdas in enumerate(lamsets)
                     for snr, rho in zip(config.snr_grid_db, _rhos(config))]
            return run(config) + best + every

        tabled = points()
        monkeypatch.setattr(MiEvaluator, "mi", MiEvaluator.reference_mi)
        monkeypatch.setattr(MiEvaluator, "mmse", MiEvaluator.reference_mmse)
        quadrature = points()
        assert len(tabled) == len(quadrature) == 6 + 2 + 6
        for got, want in zip(tabled, quadrature):
            assert (got.scheme, got.snr_db, got.trials) == (want.scheme, want.snr_db, want.trials)
            assert abs(got.mi_bits_per_use - want.mi_bits_per_use) <= 1e-9
            assert abs(got.stderr - want.stderr) <= 1e-9


def iid_channel(nt, nr, seed, stream):
    """One i.i.d. channel draw as the (1, Nr, Nt) stack."""
    return sample(iid_model(nt, nr), Rng(seed, stream))[0]


def one_block_mi(h, qs, rho, nt, ev):
    """block_mi of one channel, evaluated as the n = 1 stack."""
    return block_mi(h, np.asarray(qs)[None], rho, nt, ev)[0]


def gram_eig(h):
    """hermitian_eig of H^H H for the one channel of an n = 1 stack."""
    return hermitian_eig(h[0].conj().T @ h[0])


def lam_max(h):
    return gram_eig(h).values[0]


class TestBlockMi:
    def test_zero_covariances(self):
        ev = make_eval("gaussian")
        h = iid_channel(2, 2, 1, 0)
        assert one_block_mi(h, [np.zeros((2, 2))] * 3, 2.0, 2, ev) == 0.0

    def test_top_eigenvector_single_symbol(self):
        ev = make_eval("gaussian")
        h = iid_channel(4, 4, 2, 0)
        eig = gram_eig(h)
        u = eig.vectors[:, 0]
        nc = 4
        q = (4.0 * nc) * np.outer(u, u.conj())
        got = one_block_mi(h, [q], 2.0, 4, ev)
        assert got == pytest.approx(ev.mi(2.0 * nc * eig.values[0]), rel=1e-12)

    def test_concavity_uniform_beats_split(self):
        ev = make_eval("gaussian")
        rng = Rng(3, 0)
        for stream in range(20):
            h = iid_channel(4, 4, 4, stream)
            qs = []
            for tr in (2.0, 5.0, 6.0, 3.0):
                a = rng.gen.standard_normal((4, 4)) + 1j * rng.gen.standard_normal((4, 4))
                q = a @ a.conj().T
                qs.append(q * (tr / q.trace().real))
            qhat = sum(qs) / len(qs)
            assert one_block_mi(h, qs, 1.0, 4, ev) <= one_block_mi(h, [qhat] * 4, 1.0, 4, ev) + 1e-9

    def test_rejects_indefinite_covariance(self):
        ev = make_eval("gaussian")
        h = iid_channel(2, 2, 5, 0)
        with pytest.raises(PreconditionError):
            one_block_mi(h, [np.diag([1.0, -0.5])], 1.0, 2, ev)

    def test_rejects_indefinite_covariance_in_a_broadcast_stack(self):
        # the indefinite matrix is the second channel's, repeated over K = 3 symbols
        ev = make_eval("gaussian")
        h = np.concatenate([iid_channel(2, 2, 5, stream) for stream in range(3)])
        covs = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.eye(2)]).astype(complex)
        with pytest.raises(PreconditionError, match="covariance has eigenvalue -5.000e-01"):
            block_mi(h, np.broadcast_to(covs[:, None], (3, 3, 2, 2)), 1.0, 2, ev)
        with pytest.raises(PreconditionError, match="covariance has eigenvalue -5.000e-01"):
            block_mi(h, np.broadcast_to(covs[1:2], (3, 3, 2, 2)), 1.0, 2, ev)

    def test_psd_check_factors_each_distinct_matrix_once(self, monkeypatch):
        # stacks broadcast over the symbols and over the channels: the check
        # sees one matrix per distinct covariance, and the values equal those
        # of the materialized stacks
        ev = make_eval("gaussian")
        rng = Rng(17, 0)
        h = np.concatenate([iid_channel(3, 2, 18, stream) for stream in range(4)])
        a = rng.gen.standard_normal((4, 3, 3)) + 1j * rng.gen.standard_normal((4, 3, 3))
        covs = a @ np.swapaxes(a.conj(), -1, -2)
        stacks = [np.broadcast_to(covs[:, None], (4, 5, 3, 3)), np.broadcast_to(covs, (4, 4, 3, 3))]
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(m):
            shapes.append(m.shape)
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        got = [block_mi(h, qsets, 1.5, 3, ev) for qsets in stacks]
        assert shapes == [(4, 1, 3, 3), (1, 4, 3, 3)]
        for values, qsets in zip(got, stacks):
            assert np.array_equal(values, block_mi(h, np.ascontiguousarray(qsets), 1.5, 3, ev))
        assert shapes[2:] == [(4, 5, 3, 3), (4, 4, 3, 3)]

    def test_stack_rows_match_single_realizations(self):
        ev = make_eval("gaussian")
        rng = Rng(13, 0)
        hs = [iid_channel(3, 2, 14, stream) for stream in range(5)]
        qsets = []
        for _ in hs:
            a = rng.gen.standard_normal((2, 3, 3)) + 1j * rng.gen.standard_normal((2, 3, 3))
            qsets.append(a @ np.swapaxes(a.conj(), -1, -2))
        rows = block_mi(np.concatenate(hs), np.stack(qsets), 1.5, 3, ev)
        assert rows.shape == (5,)
        for row, h, qs in zip(rows, hs, qsets):
            assert row == one_block_mi(h, qs, 1.5, 3, ev)


class TestPerfectCsiMi:
    def test_gaussian_full_rate_closed_form(self):
        # K = 2*Nc pairs of real symbols give the classical beamforming capacity
        ev = make_eval("gaussian")
        nc, rho = 4, 3.0
        for stream in range(10):
            lam = lam_max(iid_channel(4, 4, 6, stream))
            assert perfect_csi_mi(lam, rho, 2 * nc, nc, ev) == pytest.approx(
                nc * math.log(1.0 + rho * lam), rel=1e-12
            )

    def test_zero_snr(self):
        ev = make_eval("gaussian")
        lam = lam_max(iid_channel(2, 2, 7, 0))
        assert perfect_csi_mi(lam, 0.0, 4, 2, ev) == 0.0

    @pytest.mark.parametrize("kind", ["gaussian", "bpsk"])
    def test_monotone_in_k(self, kind):
        ev = make_eval(kind)
        nc = 2
        lams = np.array([lam_max(iid_channel(2, 2, 8, stream)) for stream in range(30)])
        vals = np.stack([perfect_csi_mi(lams, 2.0, k, nc, ev) for k in range(1, 2 * nc + 1)])
        assert (np.diff(vals, axis=0) >= -1e-8).all()

    def test_infeasible_k(self):
        ev = make_eval("gaussian")
        lam = lam_max(iid_channel(2, 2, 9, 0))
        with pytest.raises(InfeasibleError):
            perfect_csi_mi(lam, 1.0, 5, 2, ev)


def test_eq8_bound_random_covariances():
    # block MI of any uniform-covariance feasible set never beats the benchmark
    ev = make_eval("gaussian")
    rng = Rng(10, 0)
    k, nc = 4, 4
    for stream in range(100):
        h = iid_channel(4, 4, 11, stream)
        best = perfect_csi_mi(lam_max(h), 2.0, k, nc, ev)
        for _ in range(20):
            a = rng.gen.standard_normal((4, 4)) + 1j * rng.gen.standard_normal((4, 4))
            q = a @ a.conj().T
            q *= (4 * nc / k) / q.trace().real
            assert one_block_mi(h, [q] * k, 2.0, 4, ev) <= best + 1e-9


def test_beamforming_set_achieves_benchmark():
    ev = make_eval("gaussian")
    k, nc = 8, 4
    for stream in range(10):
        h = iid_channel(4, 4, 12, stream)
        eig = gram_eig(h)
        dset = rank_one_set(eig.vectors[:, 0], k, nc)
        got = one_block_mi(h, dset.covariances(), 2.0, 4, ev)
        assert got == pytest.approx(perfect_csi_mi(eig.values[0], 2.0, k, nc, ev), abs=1e-9)
