"""Numeric certificates for the library's structural claims.

Each suite re-checks one optimality/feasibility statement the code relies
on, at a fixed internal seed, and reports a pass/fail line per check. The
CLI `verify` subcommand dispatches here; the acceptance tests call the same
suites, whose sizes are fixed.

One verdict rule holds for every check: its metric is its worst violation,
so larger is worse, and it PASSes iff the metric is at most its tolerance.
_certify, the one place that builds a CheckResult, folds a check's
violations with one np.max, so a NaN in any of them is the metric and
FAILs. The suites that draw channels hand it one item per window; the
others hand it their per-instance values (prop1's residuals, thm1's
covariances, prop3's (M, N) groups, eq10's evaluators) or one item.

The random suites take their streams from one table, STREAM_SLOTS, through
_streams: the suite in slot i owns the substreams [i << 32, (i + 1) << 32).
It draws channel j from substream (i << 32) + j and its other randomness
from Rng(seed, ((i + 1) << 32) - 1), the range's last stream, which no
window reaches. So no two suites share a channel, and none shares a stream
with simengine's STREAM_* ids (from 1 << 48). Every suite that draws
channels iterates simengine.trial_windows, each window holding at most
TRIAL_WINDOW channel evaluations, and maps each window's channels h to its
checks' margins. A window's h is bit for bit that row range of the whole
draw; thm3 and lemma1 take its largest eigenvalues with
channel.top_eigenvalues, once per window. The suites' Generators carry on
from window to window (goc draws its 100 channels once per dispersion set),
and a window's other randomness is one draw whose leading axis is its
channels, each instance's values contiguous in it (thm1's, thm2's and
prop2's covariance normals, thm4's weights and scales, thm5's pair-index
and split uniforms, which codebook.rank_two_lambdas maps to its rank-two
sets). So a window's draw is that row range of one whole-run draw, and no
metric depends on the window size.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import channel, codebook, dispersion
from .errors import InfeasibleError
from .infotheory import Constellation, MiEvaluator, block_mi, perfect_csi_mi
from .matkit import Rng, haar_unitaries, hermitian_eig
from .simengine import trial_windows

DEFAULT_SEED = 20180417
# slot i owns substreams [i << 32, (i + 1) << 32): channel j is stream (i << 32) + j, the one-off Rng the last one
STREAM_SLOTS = {"thm1": 1, "thm2": 2, "thm3": 3, "thm4": 4, "thm5": 5, "prop2": 6, "prop3": 7, "lemma1": 8,
                "goc": 9}
# the suites that score MI share one evaluator per input: Gaussian, and BPSK for thm3, eq10 and immse
_GAUSSIAN, _BPSK = MiEvaluator(Constellation.gaussian()), MiEvaluator(Constellation.bpsk())


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    metric: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.suite}/{self.name} metric={self.metric:.3e}{extra}"


def _streams(suite, seed):
    """The suite's one-off Rng, and windows(model, trials, evals_per_trial=1), which yields each
    trial_windows window's channels h from the suite's first channel stream on (STREAM_SLOTS)."""
    slot = STREAM_SLOTS[suite]

    def windows(model, trials, evals_per_trial=1):
        return (h for _, h, _ in trial_windows(model, trials, seed, slot << 32, evals_per_trial))

    return Rng(seed, ((slot + 1) << 32) - 1), windows


def _certify(suite, margins, *checks):
    """One CheckResult per (name, tolerance, detail) check, in order: the only place one is built.

    margins yields items, one per window or instance: each check's margin,
    or the one check's margin, a violation that is larger when worse. A
    check's metric is its largest margin over the items, folded by one
    np.max so that a NaN in any item is the metric, and it passes when that
    is at most its tolerance.
    """
    worst = np.atleast_1d(np.max(np.array(list(margins), dtype=float), axis=0)).tolist()
    return [CheckResult(suite, name, w <= tol, w, detail) for (name, tol, detail), w in zip(checks, worst)]


def _random_unit_vector(n, rng):
    v = rng.gen.standard_normal(n) + 1j * rng.gen.standard_normal(n)
    return v / np.linalg.norm(v)


def _psd_normals(n, rng, shape):
    """The standard normals of shape + (n, n) random G's, real then imaginary parts: shape + (2, n, n).

    One draw has the same bits as one real-then-imaginary (n, n) draw per matrix, in C order.
    """
    return rng.gen.standard_normal(shape + (2, n, n))


def _scaled_psd(z, traces):
    """The PSD G G^H of each G of _psd_normals' z, scaled to its entry of traces (shape z.shape[:-3]).

    Each matrix is made on its own, so a stack of any shape gives every matrix's bits.
    """
    a = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    q = a @ a.conj().swapaxes(-1, -2)
    return q * (traces / np.trace(q, axis1=-2, axis2=-1).real)[..., None, None]


def _uniform_codeword(qs):
    """Each (K, Nt, Nt) covariance set replaced by K copies of its mean."""
    return np.broadcast_to(qs.mean(axis=1, keepdims=True), qs.shape)


def suite_prop1(seed=DEFAULT_SEED):
    """Feasibility of the unit-row matrix V with V V^H = I + i*skew, iff K <= 2*Nc."""
    residuals = (dispersion.v_residual(dispersion.build_v_matrix(k, nc)) for nc in range(1, 9)
                 for k in range(1, 2 * nc + 1))
    unrejected = 0  # the Nc whose infeasible K = 2*Nc + 1 is built
    for nc in range(1, 9):
        try:
            dispersion.build_v_matrix(2 * nc + 1, nc)
            unrejected += 1
        except InfeasibleError:
            pass
    return (_certify("prop1", residuals, ("construction-residual", 0.0, "all Nc <= 8, K <= 2*Nc"))
            + _certify("prop1", [unrejected], ("infeasible-guard", 0.0, "K = 2*Nc + 1 rejected")))


def suite_thm1(seed=DEFAULT_SEED):
    """Statistical construction: equal covariances, orthogonality, full power."""
    rng, windows = _streams("thm1", seed)
    lam = np.array([8.0, 4.0, 4.0, 0.0])  # r = 3 positive modes, trace Nt*Nc/K = 16
    dset = dispersion.statistical_set(lam, k=2, nc=8, rng=rng)
    results = (_certify("thm1", (np.linalg.norm(q - np.diag(lam)) for q in dset.covariances()),
                        ("equal-covariance", 1e-10, ""))
               + _certify("thm1", [(dispersion.check_goc(dset)[1], abs(dset.total_power() - dset.nt * dset.nc))],
                          ("orthogonality", dispersion.GOC_TOL, ""), ("full-power", 1e-9, "")))
    # uniform symbol power never loses: sum_k I(a_k) <= K * I(mean a_k)
    traces = np.array([4.0, 6.0, 3.0, 3.0])  # per-symbol traces, sum = Nt*Nc budget

    def gap(h):
        qs = _scaled_psd(_psd_normals(4, rng, (len(h), traces.size)), traces)
        return (block_mi(h, qs, 1.0, _GAUSSIAN) - block_mi(h, _uniform_codeword(qs), 1.0, _GAUSSIAN)).max()

    return results + _certify("thm1", map(gap, windows(channel.v4_model(), 100)),
                              ("uniform-power-optimal", 1e-9, "100 channels x random splits"))


def suite_thm2(seed=DEFAULT_SEED):
    """Per-realization MI bound K*I(rho*Nc/K*lmax) and its achievability."""
    rng, windows = _streams("thm2", seed)
    k, nc, rho, channels, qsets = 4, 4, 2.0, 100, 20

    def margins(h):
        # lmax from the decomposition that gives the beams, clipped at 0 as channel.top_eigenvalues is
        lam_max, top = hermitian_eig(np.swapaxes(h.conj(), -1, -2) @ h)
        best = perfect_csi_mi(np.maximum(lam_max, 0.0), rho, k, nc, _GAUSSIAN)
        qs = _scaled_psd(_psd_normals(4, rng, (len(h) * qsets,)), 4 * nc / k)
        uniform = block_mi(np.repeat(h, qsets, axis=0),
                           np.broadcast_to(qs[:, None], (qs.shape[0], k, 4, 4)), rho, _GAUSSIAN)
        beams = dispersion.rank_one_set(top, k, nc).covariances()
        return (uniform - np.repeat(best, qsets)).max(), np.abs(block_mi(h, beams, rho, _GAUSSIAN) - best).max()

    return _certify("thm2", map(margins, windows(channel.iid_model(4, 4), channels, evals_per_trial=qsets)),
                    ("upper-bound", 1e-9, f"{channels} channels x {qsets} uniform-Q sets"),
                    ("achievability", 1e-9, "top-eigenvector beamforming set"))


def suite_thm3(seed=DEFAULT_SEED):
    """Per-realization monotonicity of K*I(rho*Nc/K*lmax) in K, K = 1..2*Nc."""
    _, windows = _streams("thm3", seed)
    nc, draws = 4, 1000

    def rises(lam_max, rho, ev):
        vals = np.stack([perfect_csi_mi(lam_max, rho, k, nc, ev) for k in range(1, 2 * nc + 1)])
        return (vals[:-1] - vals[1:]).max()

    def margins(h):
        lam_max = channel.top_eigenvalues(h)
        return np.max([[rises(lam_max, rho, ev) for ev in (_GAUSSIAN, _BPSK)] for rho in (1.0, 10.0)], axis=0)

    return _certify("thm3", map(margins, windows(channel.iid_model(4, 4), draws)),
                    *((f"monotone-in-k-{ev.constellation.kind}", 1e-8, f"{draws} draws, K = 1..{2 * nc}")
                      for ev in (_GAUSSIAN, _BPSK)))


def suite_thm4(seed=DEFAULT_SEED):
    """Rank-one codebooks with all Nt single modes beat any same-unitary codebook."""
    rng, windows = _streams("thm4", seed)
    nt, nc, k, rho = 4, 4, 4, 2.0
    n1, n2, realizations, competitors = 4, 4, 1000, 20
    unitaries = haar_unitaries(n1, nt, rng)
    budget = nt * nc / k

    def gap(h):
        # each competitor row: nt weights, normalized, and a scale in [0.5, 1) in its last column
        u = rng.gen.uniform(size=(len(h), competitors, n2, nt + 1))
        comp = budget * (0.5 + 0.5 * u[..., nt:]) * (u[..., :nt] / u[..., :nt].sum(axis=-1, keepdims=True))
        smat = codebook.s_matrix(h, unitaries)
        ref = codebook.select_mi(smat, budget * np.eye(nt), rho, k, _GAUSSIAN)
        return (codebook.select_mi(smat[:, None], comp, rho, k, _GAUSSIAN) - ref[:, None]).max()

    return _certify("thm4", map(gap, windows(channel.iid_model(4, 4), realizations, evals_per_trial=competitors)),
                    ("rank-one-strongly-optimal", 1e-9, f"{realizations} realizations x {competitors} competitors"))


def suite_thm5(seed=DEFAULT_SEED):
    """snr-rule objective is capped by max_im s_im and rank-one codebooks reach the cap."""
    rng, windows = _streams("thm5", seed)
    nt, nc, k, realizations = 4, 4, 4, 500
    unitaries = haar_unitaries(4, nt, rng)
    budget = nt * nc / k

    def margins(h):
        # each realization's 3 codebooks of 4 diagonals: a pair-index uniform and a split per diagonal
        u = rng.gen.random((len(h), 3, 4, 2))
        lamsets = codebook.rank_two_lambdas((u[..., 0] * math.comb(nt, 2)).astype(int), u[..., 1], nt, nc, k)
        smat = codebook.s_matrix(h, unitaries)
        smax = smat.max(axis=(1, 2))
        comp = codebook.select_snr(smat[:, None], lamsets, k, nc)
        full_modes = codebook.select_snr(smat, budget * np.eye(nt), k, nc)
        return (comp - smax[:, None]).max(), np.abs(full_modes - smax).max()

    return _certify("thm5", map(margins, windows(channel.v4_model(), realizations, evals_per_trial=3)),
                    ("snr-cap", 1e-9, f"{realizations} realizations x 3 rank-two codebooks"),
                    ("rank-one-achieves-cap", 1e-9, ""))


def suite_prop2(seed=DEFAULT_SEED):
    """Averaging a per-symbol-varying codeword never decreases the block MI.

    Each codeword is the k Gram matrices G G^H of one draw of normals, scaled
    together to the block budget 4*Nc: a symbol's share of the power is its
    Gram trace. Proposition 2 holds for any PSD codeword of that total trace.
    """
    rng, windows = _streams("prop2", seed)
    k, nc, rho, realizations = 4, 4, 1.5, 200

    def gap(h):
        z = _psd_normals(4, rng, (len(h), k))
        shares = np.square(z).sum(axis=(-3, -2, -1))
        qs = _scaled_psd(z, shares / shares.sum(axis=-1, keepdims=True) * (4 * nc))
        return (block_mi(h, qs, rho, _GAUSSIAN) - block_mi(h, _uniform_codeword(qs), rho, _GAUSSIAN)).max()

    return _certify("prop2", map(gap, windows(channel.iid_model(4, 4), realizations)),
                    ("uniform-codeword-dominates", 1e-9, f"{realizations} realizations"))


def prop3_gap(a, y):
    """RHS minus LHS of the max-vs-product-expectation inequality (>= 0 when it holds), shape (c,).

    a and y are (c, M, N) stacks of instances, each M weight rows and M value
    rows. The LHS max_j a_j . y_j takes every dot as numpy's 1-D dot (one
    stacked (1, N) @ (N, 1) product); the RHS sums w * max_j y_j[i_j] over the
    N^M index grid, w = a_0[i_0] * a_1[i_1] * ... multiplied left to right, one
    grid row per instance. Both round as the one-instance meshgrid form does.
    """
    c, m, n = a.shape
    lhs = dispersion._row_dots(a.reshape(-1, n), y.reshape(-1, n)).reshape(c, m).max(axis=1)
    w, ymax = a[:, 0], y[:, 0]
    for j in range(1, m):
        shape = (c,) + (1,) * j + (n,)
        w = w[..., None] * a[:, j].reshape(shape)
        ymax = np.maximum(ymax[..., None], y[:, j].reshape(shape))
    return (w * ymax).reshape(c, n**m).sum(axis=1) - lhs


def suite_prop3(seed=DEFAULT_SEED):
    """Brute-force enumeration check of the weighted-max inequality, one prop3_gap call per (M, N).

    The sizes, weights and values are one draw each; instance i is the
    top-left (M, N) block of its rows, its weights offset by 1e-12 and
    divided by their row sums. A group's margin is its largest LHS - RHS.
    """
    rng, _ = _streams("prop3", seed)
    count = 1000
    sizes = rng.gen.integers(1, 5, size=(count, 2))
    a_all, y_all = rng.gen.uniform(size=(count, 4, 4)), rng.gen.normal(scale=3.0, size=(count, 4, 4))

    def margin(m, n):
        group = (sizes == (m, n)).all(axis=1)
        a = a_all[group, :m, :n] + 1e-12
        return np.max(-prop3_gap(a / a.sum(axis=2, keepdims=True), y_all[group, :m, :n]), initial=-np.inf)

    return _certify("prop3", itertools.starmap(margin, itertools.product(range(1, 5), repeat=2)),
                    ("brute-force", 1e-12, f"{count} instances, M <= 4, N <= 4"))


def suite_lemma1(seed=DEFAULT_SEED):
    """Per-realization mutual-information gap never exceeds the received-SNR gap."""
    rng, windows = _streams("lemma1", seed)
    nt, nc, k, realizations = 4, 4, 4, 10000
    cb = codebook.QuantizedCodebook(unitaries=haar_unitaries(4, nt, rng),
                                    lambdas=codebook.random_rank_two_lambdas(1, 1, nt, nc, k, rng)[0], k=k, nc=nc)

    def gap(h):
        smat, lam_max = codebook.s_matrix(h, cb.unitaries), channel.top_eigenvalues(h)
        return np.max([(codebook.delta_mi(smat, cb.lambdas, lam_max, rho, k, nc, _GAUSSIAN)
                        - codebook.delta_snr(smat, cb.lambdas, lam_max, rho, k, nc)).max()
                       for rho in (1.0, 10.0)])

    return _certify("lemma1", map(gap, windows(channel.v4_model(), realizations)),
                    ("mi-gap-below-snr-gap", 1e-9, f"{realizations} V4 realizations, rho in {{1, 10}}"))


def suite_eq10(seed=DEFAULT_SEED):
    """Concavity consequence I(z/k) >= (z/k) * mmse(z/k), each evaluator's margin its largest a*mmse(a) - I(a)."""
    a = np.array([1.0, 10.0, 100.0])[:, None] / np.arange(1, 9)
    return _certify("eq10", ((a * ev.mmse(a) - ev.mi(a)).max() for ev in (_GAUSSIAN, _BPSK)),
                    ("chord-below-mi", 1e-9, "z in {1,10,100}, k = 1..8, gaussian+bpsk"))


def suite_immse(seed=DEFAULT_SEED):
    """Finite-difference dI/da of the reference I(a) against mmse(a), and concavity of I.

    The differences come from the table-free reference (the quadrature for
    BPSK, in one call so both sides share its order), so the check does not
    compare the table with its own derivative.
    """
    results = []
    points = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    for ev in (_GAUSSIAN, _BPSK):
        kind = ev.constellation.kind
        step = 1e-4
        upper, lower = ev.reference_mi(np.stack([points + step, points - step]))
        fd = (upper - lower) / (2 * step)
        rel = np.max(np.abs(fd - ev.mmse(points)) / ev.mmse(points))
        grid = np.logspace(-3, 3, 50)
        h = 0.05 * grid
        second = ev.mi(grid + h) - 2 * ev.mi(grid) + ev.mi(grid - h)
        results += _certify("immse", [(rel, second.max())],
                            (f"derivative-match-{kind}", 1e-3, "6 points, central differences of the reference I"),
                            (f"concavity-{kind}", 1e-6, "50 log-spaced points"))
    return results


def suite_goc(seed=DEFAULT_SEED, mutate=False):
    """Construction orthogonality residuals and the decoupling witness."""
    rng, windows = _streams("goc", seed)
    sets = {
        "rank-one": dispersion.rank_one_set(_random_unit_vector(4, rng), k=8, nc=4),
        "statistical": dispersion.statistical_set(np.array([8.0, 4.0, 4.0, 0.0]),
                                                  k=2, nc=8, rng=rng),
    }
    if mutate:  # deliberate violation: the second dispersion matrix duplicates the first
        beam = sets["rank-one"]
        sets["rank-one"] = replace(beam, mats=beam.mats[[0, 0, *range(2, beam.k)]])
    results = []
    for name, dset in sets.items():
        pairs = dset.k * (dset.k - 1) // 2
        results += _certify("goc", [dispersion.check_goc(dset)[1]], (f"{name}-constraint", dispersion.GOC_TOL, ""))
        results += _certify("goc", (dispersion.decoupling_residual(h, dset).max()
                                    for h in windows(channel.iid_model(4, 4), 100, evals_per_trial=pairs)),
                            (f"{name}-decoupling", 1e-10, "100 random channels"))
    return results


SUITES = {
    "prop1": suite_prop1,
    "prop2": suite_prop2,
    "prop3": suite_prop3,
    "thm1": suite_thm1,
    "thm2": suite_thm2,
    "thm3": suite_thm3,
    "thm4": suite_thm4,
    "thm5": suite_thm5,
    "lemma1": suite_lemma1,
    "eq10": suite_eq10,
    "immse": suite_immse,
    "goc": suite_goc,
}


def run_suites(names, seed=DEFAULT_SEED, mutate=False):
    results = []
    for name in names:
        extra = {"mutate": mutate} if name == "goc" else {}
        results.extend(SUITES[name](seed=seed, **extra))
    return results
