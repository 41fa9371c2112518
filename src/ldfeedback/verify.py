"""Numeric certificates for the library's structural claims.

Each suite re-checks one optimality/feasibility statement the code relies
on, at a fixed internal seed, and reports a pass/fail line with the
measured residual or margin. The CLI `verify` subcommand dispatches here;
the acceptance tests call the same suites, whose sizes are fixed.

The random suites take their streams from one table, STREAM_SLOTS, through
_streams: the suite in slot i draws channel j from substream 100*i + j and
its other randomness from Rng(seed, 10*i + 1). Every suite that draws
channels iterates simengine.trial_windows, each window holding at most
TRIAL_WINDOW channel evaluations, and _worst folds the windows' worst cases.
A window is its channels (lo, h, hind), bit for bit that row range of the
whole draw; thm3 and lemma1 take its largest eigenvalues with
channel.top_eigenvalues, once per window. The suites' Generators carry on
from window to window (goc draws its 100 channels once per dispersion set),
so no metric depends on the window size. A suite's per-instance loop makes
only its draws, in stream order, and a window's instances are built from
them in one stacked transform (prop2's codewords, prop3's weights, thm2's
beam sets), each instance with the bits it has alone.
"""

import itertools
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import channel, codebook, dispersion
from .errors import InfeasibleError
from .infotheory import Constellation, MiEvaluator, block_mi, perfect_csi_mi
from .matkit import Rng, haar_unitaries, hermitian_eig
from .simengine import trial_windows

DEFAULT_SEED = 20180417
# slot i draws channel j from substream 100*i + j and its other randomness from Rng(seed, 10*i + 1)
STREAM_SLOTS = {"thm1": 1, "thm2": 2, "thm3": 3, "thm4": 4, "thm5": 5, "prop2": 6, "prop3": 7, "lemma1": 8,
                "goc": 9}


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
    """The suite's one-off Rng, and trial_windows bound to its seed and first channel stream (STREAM_SLOTS)."""
    slot = STREAM_SLOTS[suite]
    return Rng(seed, 10 * slot + 1), partial(trial_windows, seed=seed, first_stream=100 * slot)


def _worst(values):
    """The largest per-window margin as a float, NaN if one is; for tuples of margins, each check's largest."""
    return np.max(list(values), axis=0).tolist()


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
    worst = max(float(dispersion.v_residual(dispersion.build_v_matrix(k, nc)))
                for nc in range(1, 9) for k in range(1, 2 * nc + 1))
    results = [CheckResult("prop1", "construction-residual", worst == 0.0, worst,
                           "all Nc <= 8, K <= 2*Nc")]
    guarded = True
    for nc in range(1, 9):
        try:
            dispersion.build_v_matrix(2 * nc + 1, nc)
            guarded = False
        except InfeasibleError:
            pass
    results.append(CheckResult("prop1", "infeasible-guard", guarded, 0.0, "K = 2*Nc + 1 rejected"))
    return results


def suite_thm1(seed=DEFAULT_SEED):
    """Statistical construction: equal covariances, orthogonality, full power."""
    rng, windows = _streams("thm1", seed)
    lam = np.array([8.0, 4.0, 4.0, 0.0])  # r = 3 positive modes, trace Nt*Nc/K = 16
    dset = dispersion.statistical_set(lam, k=2, nc=8, rng=rng)
    cov_resid = max(float(np.linalg.norm(q - np.diag(lam))) for q in dset.covariances())
    goc_ok, goc_resid = dispersion.check_goc(dset)
    power_err = abs(dset.total_power() - dset.nt * dset.nc)
    results = [
        CheckResult("thm1", "equal-covariance", cov_resid <= 1e-10, cov_resid),
        CheckResult("thm1", "orthogonality", goc_ok, goc_resid),
        CheckResult("thm1", "full-power", power_err <= 1e-9, power_err),
    ]
    # uniform symbol power never loses: sum_k I(a_k) <= K * I(mean a_k)
    ev = MiEvaluator(Constellation.gaussian())
    traces = np.array([4.0, 6.0, 3.0, 3.0])  # per-symbol traces, sum = Nt*Nc budget

    def gap(h):
        qs = _scaled_psd(_psd_normals(4, rng, (len(h), traces.size)), traces)
        return (block_mi(h, qs, 1.0, 4, ev) - block_mi(h, _uniform_codeword(qs), 1.0, 4, ev)).max()

    worst = _worst(gap(h) for _, h, _ in windows(channel.v4_model(), 100))
    results.append(CheckResult("thm1", "uniform-power-optimal", worst <= 1e-9, worst,
                               "100 channels x random splits"))
    return results


def suite_thm2(seed=DEFAULT_SEED):
    """Per-realization MI bound K*I(rho*Nc/K*lmax) and its achievability."""
    rng, windows = _streams("thm2", seed)
    ev = MiEvaluator(Constellation.gaussian())
    k, nc, rho, channels, qsets = 4, 4, 2.0, 100, 20

    def margins(h):
        # lmax from the decomposition that gives the beams, clipped at 0 as channel.top_eigenvalues is
        eig = hermitian_eig(np.swapaxes(h.conj(), -1, -2) @ h)
        best = perfect_csi_mi(np.maximum(eig.values[:, 0], 0.0), rho, k, nc, ev)
        qs = _scaled_psd(_psd_normals(4, rng, (len(h) * qsets,)), 4 * nc / k)
        uniform = block_mi(np.repeat(h, qsets, axis=0),
                           np.broadcast_to(qs[:, None], (qs.shape[0], k, 4, 4)), rho, 4, ev)
        beams = dispersion.rank_one_set(eig.vectors[:, :, 0], k, nc).covariances()
        return (uniform - np.repeat(best, qsets)).max(), np.abs(block_mi(h, beams, rho, 4, ev) - best).max()

    worst_bound, worst_achieve = _worst(
        margins(h) for _, h, _ in windows(channel.iid_model(4, 4), channels, evals_per_trial=qsets))
    return [
        CheckResult("thm2", "upper-bound", worst_bound <= 1e-9, worst_bound,
                    f"{channels} channels x {qsets} uniform-Q sets"),
        CheckResult("thm2", "achievability", worst_achieve <= 1e-9, worst_achieve,
                    "top-eigenvector beamforming set"),
    ]


def suite_thm3(seed=DEFAULT_SEED):
    """Per-realization monotonicity of K*I(rho*Nc/K*lmax) in K, K = 1..2*Nc."""
    _, windows = _streams("thm3", seed)
    nc, draws = 4, 1000
    evs = (MiEvaluator(Constellation.gaussian()), MiEvaluator(Constellation.bpsk()))

    def rises(lam_max, rho, ev):
        vals = np.stack([perfect_csi_mi(lam_max, rho, k, nc, ev) for k in range(1, 2 * nc + 1)])
        return (vals[:-1] - vals[1:]).max()

    lam_maxes = (channel.top_eigenvalues(h) for _, h, _ in windows(channel.iid_model(4, 4), draws))
    worst = _worst([rises(lam_max, rho, ev) for ev in evs] for lam_max in lam_maxes for rho in (1.0, 10.0))
    return [CheckResult("thm3", f"monotone-in-k-{ev.constellation.kind}", w <= 1e-8, w,
                        f"{draws} draws, K = 1..{2 * nc}") for ev, w in zip(evs, worst)]


def suite_thm4(seed=DEFAULT_SEED):
    """Rank-one codebooks with all Nt single modes beat any same-unitary codebook."""
    rng, windows = _streams("thm4", seed)
    ev = MiEvaluator(Constellation.gaussian())
    nt, nc, k, rho = 4, 4, 4, 2.0
    n1, n2, realizations, competitors = 4, 4, 1000, 20
    unitaries = haar_unitaries(n1, nt, rng)
    budget = nt * nc / k

    def gap(h):
        # per competitor, n2 * nt weights then n2 scales in [0.5, 1): the stream order of
        # one uniform(size=(n2, nt)) and one uniform(0.5, 1.0, size=n2) call, so the bits are kept
        u = rng.gen.uniform(size=(len(h), competitors, n2 * nt + n2))
        w = u[..., :n2 * nt].reshape(len(h), competitors, n2, nt)
        # the left-to-right sum that w.sum(axis=-1) takes, without its slow pass over this strided view
        w /= sum(w[..., m] for m in range(nt))[..., None]
        comp = budget * (0.5 + 0.5 * u[..., n2 * nt:, None]) * w
        smat = codebook.s_matrix(h, unitaries)
        ref = codebook.select_mi(smat, budget * np.eye(nt), rho, k, nt, ev)
        return (codebook.select_mi(smat[:, None], comp, rho, k, nt, ev) - ref[:, None]).max()

    worst = _worst(gap(h) for _, h, _ in windows(channel.iid_model(4, 4), realizations, evals_per_trial=competitors))
    return [CheckResult("thm4", "rank-one-strongly-optimal", worst <= 1e-9, worst,
                        f"{realizations} realizations x {competitors} competitors")]


def suite_thm5(seed=DEFAULT_SEED):
    """snr-rule objective is capped by max_im s_im and rank-one codebooks reach the cap."""
    rng, windows = _streams("thm5", seed)
    nt, nc, k, realizations = 4, 4, 4, 500
    unitaries = haar_unitaries(4, nt, rng)
    budget = nt * nc / k

    def margins(h):
        lamsets = codebook.random_rank_two_lambdas(3 * len(h), 4, nt, nc, k, rng)
        smat = codebook.s_matrix(h, unitaries)
        smax = smat.max(axis=(1, 2))
        comp = codebook.select_snr(smat[:, None], lamsets.reshape(len(h), 3, 4, nt), k, nt, nc)
        full_modes = codebook.select_snr(smat, budget * np.eye(nt), k, nt, nc)
        return (comp - smax[:, None]).max(), np.abs(full_modes - smax).max()

    worst_cap, worst_achieve = _worst(
        margins(h) for _, h, _ in windows(channel.v4_model(), realizations, evals_per_trial=3))
    return [
        CheckResult("thm5", "snr-cap", worst_cap <= 1e-9, worst_cap,
                    f"{realizations} realizations x 3 rank-two codebooks"),
        CheckResult("thm5", "rank-one-achieves-cap", worst_achieve <= 1e-9, worst_achieve),
    ]


def suite_prop2(seed=DEFAULT_SEED):
    """Averaging a per-symbol-varying codeword never decreases the block MI."""
    rng, windows = _streams("prop2", seed)
    ev = MiEvaluator(Constellation.gaussian())
    k, nc, rho, realizations = 4, 4, 1.5, 200

    def gap(h):
        # per codeword, its k shares and then its normals, in the stream order of one draw each
        shares, z = np.empty((len(h), k)), np.empty((len(h), k, 2, 4, 4))
        for i in range(len(h)):
            shares[i] = rng.gen.uniform(size=k)
            z[i] = _psd_normals(4, rng, (k,))
        qs = _scaled_psd(z, shares / shares.sum(axis=-1, keepdims=True) * (4 * nc))
        return (block_mi(h, qs, rho, 4, ev) - block_mi(h, _uniform_codeword(qs), rho, 4, ev)).max()

    worst = _worst(gap(h) for _, h, _ in windows(channel.iid_model(4, 4), realizations))
    return [CheckResult("prop2", "uniform-codeword-dominates", worst <= 1e-9, worst,
                        f"{realizations} realizations")]


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
    """Brute-force enumeration check of the weighted-max inequality, one prop3_gap call per (M, N)."""
    rng, _ = _streams("prop3", seed)
    count = 1000
    sizes = np.empty((count, 2), dtype=int)
    a_all, y_all = np.zeros((count, 4, 4)), np.zeros((count, 4, 4))
    for i in range(count):
        m = int(rng.gen.integers(1, 5))
        n = int(rng.gen.integers(1, 5))
        a_all[i, :m, :n] = rng.gen.uniform(size=(m, n))
        y_all[i, :m, :n] = rng.gen.normal(scale=3.0, size=(m, n))
        sizes[i] = m, n
    # each instance's weights offset by 1e-12 and divided by their row sums; a padded zero
    # adds exactly, so each row sum has the bits of the instance's own
    drawn = (np.arange(4) < sizes[:, :1])[:, :, None] & (np.arange(4) < sizes[:, 1:])[:, None, :]
    a_all[drawn] += 1e-12
    np.divide(a_all, a_all.sum(axis=2, keepdims=True), out=a_all, where=drawn)
    worst = np.inf
    for m, n in itertools.product(range(1, 5), repeat=2):
        group = (sizes == (m, n)).all(axis=1)
        gaps = prop3_gap(a_all[group, :m, :n], y_all[group, :m, :n])
        worst = min(worst, float(gaps.min(initial=np.inf)))
    return [CheckResult("prop3", "brute-force", worst >= -1e-12, worst,
                        f"{count} instances, M <= 4, N <= 4")]


def suite_lemma1(seed=DEFAULT_SEED):
    """Per-realization mutual-information gap never exceeds the received-SNR gap."""
    rng, windows = _streams("lemma1", seed)
    ev = MiEvaluator(Constellation.gaussian())
    nt, nc, k, realizations = 4, 4, 4, 10000
    cb = codebook.QuantizedCodebook(b=2, n1=4, n2=1, unitaries=haar_unitaries(4, nt, rng),
                                    lambdas=codebook.random_rank_two_lambdas(1, 1, nt, nc, k, rng)[0],
                                    k=k, nc=nc, nt=nt)

    def gap(h):
        smat, lam_max = codebook.s_matrix(h, cb.unitaries), channel.top_eigenvalues(h)
        return np.max([(codebook.delta_mi(smat, cb.lambdas, lam_max, rho, k, nt, nc, ev)
                        - codebook.delta_snr(smat, cb.lambdas, lam_max, rho, k, nt, nc)).max()
                       for rho in (1.0, 10.0)])

    worst = _worst(gap(h) for _, h, _ in windows(channel.v4_model(), realizations))
    return [CheckResult("lemma1", "mi-gap-below-snr-gap", worst <= 1e-9, worst,
                        f"{realizations} V4 realizations, rho in {{1, 10}}")]


def suite_eq10(seed=DEFAULT_SEED):
    """Concavity consequence I(z/k) >= (z/k) * mmse(z/k)."""
    a = np.array([1.0, 10.0, 100.0])[:, None] / np.arange(1, 9)
    worst = min(float((ev.mi(a) - a * ev.mmse(a)).min())
                for ev in (MiEvaluator(Constellation.gaussian()), MiEvaluator(Constellation.bpsk())))
    return [CheckResult("eq10", "chord-below-mi", worst >= -1e-9, worst,
                        "z in {1,10,100}, k = 1..8, gaussian+bpsk")]


def suite_immse(seed=DEFAULT_SEED):
    """Finite-difference dI/da of the reference I(a) against mmse(a), and concavity of I.

    The differences come from the table-free reference (the quadrature for
    BPSK, in one call so both sides share its order), so the check does not
    compare the table with its own derivative.
    """
    results = []
    points = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    for const in (Constellation.gaussian(), Constellation.bpsk()):
        ev = MiEvaluator(const)
        step = 1e-4
        upper, lower = ev.reference_mi(np.stack([points + step, points - step]))
        fd = (upper - lower) / (2 * step)
        rel = float(np.max(np.abs(fd - ev.mmse(points)) / ev.mmse(points)))
        results.append(CheckResult("immse", f"derivative-match-{const.kind}", rel <= 1e-3, rel,
                                   "6 points, central differences of the reference I"))
        grid = np.logspace(-3, 3, 50)
        h = 0.05 * grid
        second = ev.mi(grid + h) - 2 * ev.mi(grid) + ev.mi(grid - h)
        worst = float(second.max())
        results.append(CheckResult("immse", f"concavity-{const.kind}", worst <= 1e-6, worst,
                                   "50 log-spaced points"))
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
        ok, resid = dispersion.check_goc(dset)
        results.append(CheckResult("goc", f"{name}-constraint", ok, resid))
        pairs = dset.k * (dset.k - 1) // 2
        worst = _worst(dispersion.decoupling_residual(h, dset).max()
                       for _, h, _ in windows(channel.iid_model(4, 4), 100, evals_per_trial=pairs))
        results.append(CheckResult("goc", f"{name}-decoupling", worst <= 1e-10, worst,
                                   "100 random channels"))
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
