"""Numeric certificates for the library's structural claims.

Each suite re-checks one optimality/feasibility statement the code relies
on, at a fixed internal seed, and reports a pass/fail line with the
measured residual or margin. The CLI `verify` subcommand dispatches here;
the acceptance tests reuse the same suites at their stated sizes.
"""

from dataclasses import dataclass

import numpy as np

from . import channel, codebook, dispersion
from .errors import InfeasibleError
from .infotheory import Constellation, MiEvaluator, block_mi, perfect_csi_mi
from .matkit import Rng, haar_unitary, hermitian_eig
from .simengine import draw_trials

DEFAULT_SEED = 20180417


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


def _random_unit_vector(n, rng):
    v = rng.gen.standard_normal(n) + 1j * rng.gen.standard_normal(n)
    return v / np.linalg.norm(v)


def _random_psd(n, rng, trace):
    a = rng.gen.standard_normal((n, n)) + 1j * rng.gen.standard_normal((n, n))
    q = a @ a.conj().T
    return q * (trace / q.trace().real)


def _uniform_codeword(qs):
    """Each (K, Nt, Nt) covariance set replaced by K copies of its mean."""
    return np.broadcast_to(qs.mean(axis=1, keepdims=True), qs.shape)


def suite_prop1(seed=DEFAULT_SEED):
    """Feasibility of the unit-row matrix V with V V^H = I + i*skew, iff K <= 2*Nc."""
    worst = 0.0
    for nc in range(1, 9):
        for k in range(1, 2 * nc + 1):
            v = dispersion.build_v_matrix(k, nc)
            gram = v.rows @ v.rows.conj().T
            resid = max(
                np.linalg.norm(gram.real - np.eye(k)),
                np.linalg.norm(gram.imag + gram.imag.T),
            )
            worst = max(worst, float(resid))
    results = [CheckResult("prop1", "construction-residual", worst <= 1e-12, worst,
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
    rng = Rng(seed, 11)
    lam = np.array([8.0, 4.0, 4.0, 0.0])  # r = 3 positive modes, trace Nt*Nc/K = 16
    dset = dispersion.statistical_set(lam, k=2, nc=8, rng=rng)
    cov_resid = max(
        float(np.linalg.norm(q - np.diag(lam))) for q in dset.covariances()
    )
    _, goc_resid = dispersion.check_goc(dset)
    power_err = abs(dset.total_power() - dset.nt * dset.nc)
    results = [
        CheckResult("thm1", "equal-covariance", cov_resid <= 1e-10, cov_resid),
        CheckResult("thm1", "orthogonality", goc_resid <= 1e-10, goc_resid),
        CheckResult("thm1", "full-power", power_err <= 1e-9, power_err),
    ]
    # uniform symbol power never loses: sum_k I(a_k) <= K * I(mean a_k)
    ev = MiEvaluator(Constellation.gaussian())
    batch = draw_trials(channel.v4_model(), 100, seed, first_stream=100)
    traces = np.array([4.0, 6.0, 3.0, 3.0])  # per-symbol traces, sum = Nt*Nc budget
    qs = np.array([[_random_psd(4, rng, tr) for tr in traces] for _ in range(batch.trials)])
    split = block_mi(batch.h, qs, 1.0, 4, ev)
    uniform = block_mi(batch.h, _uniform_codeword(qs), 1.0, 4, ev)
    worst = float((split - uniform).max())
    results.append(CheckResult("thm1", "uniform-power-optimal", worst <= 1e-9, worst,
                               "100 channels x random splits"))
    return results


def suite_thm2(seed=DEFAULT_SEED, channels=100, qsets=20):
    """Per-realization MI bound K*I(rho*Nc/K*lmax) and its achievability."""
    rng = Rng(seed, 21)
    ev = MiEvaluator(Constellation.gaussian())
    k, nc, rho = 4, 4, 2.0
    trace = 4 * nc / k
    batch = draw_trials(channel.iid_model(4, 4), channels, seed, first_stream=200)
    best = perfect_csi_mi(batch.eigvals[:, 0], rho, k, nc, ev)
    qs = np.array([_random_psd(4, rng, trace) for _ in range(channels * qsets)])
    uniform = block_mi(np.repeat(batch.h, qsets, axis=0),
                       np.broadcast_to(qs[:, None], (qs.shape[0], k, 4, 4)), rho, 4, ev)
    worst_bound = float((uniform - np.repeat(best, qsets)).max())
    eig = hermitian_eig(np.swapaxes(batch.h.conj(), -1, -2) @ batch.h)
    beams = np.array([dispersion.rank_one_set(v, k, nc).covariances() for v in eig.vectors[:, :, 0]])
    worst_achieve = float(np.abs(block_mi(batch.h, beams, rho, 4, ev) - best).max())
    return [
        CheckResult("thm2", "upper-bound", worst_bound <= 1e-9, worst_bound,
                    f"{channels} channels x {qsets} uniform-Q sets"),
        CheckResult("thm2", "achievability", worst_achieve <= 1e-9, worst_achieve,
                    "top-eigenvector beamforming set"),
    ]


def suite_thm3(seed=DEFAULT_SEED, draws=1000):
    """Per-realization monotonicity of K*I(rho*Nc/K*lmax) in K, K = 1..2*Nc."""
    nc = 4
    lam_max = draw_trials(channel.iid_model(4, 4), draws, seed, first_stream=300).eigvals[:, 0]
    results = []
    for const in (Constellation.gaussian(), Constellation.bpsk()):
        ev = MiEvaluator(const)
        worst = -np.inf
        for rho in (1.0, 10.0):
            vals = np.stack([perfect_csi_mi(lam_max, rho, k, nc, ev) for k in range(1, 2 * nc + 1)])
            worst = max(worst, float((vals[:-1] - vals[1:]).max()))
        results.append(CheckResult("thm3", f"monotone-in-k-{const.kind}", worst <= 1e-8, worst,
                                   f"{draws} draws, K = 1..{2 * nc}"))
    return results


def suite_thm4(seed=DEFAULT_SEED, realizations=1000, competitors=20):
    """Rank-one codebooks with all Nt single modes beat any same-unitary codebook."""
    ev = MiEvaluator(Constellation.gaussian())
    nt, nc, k, rho = 4, 4, 4, 2.0
    n1, n2 = 4, 4
    rng = Rng(seed, 41)
    unitaries = [haar_unitary(nt, rng) for _ in range(n1)]
    budget = nt * nc / k
    batch = draw_trials(channel.iid_model(4, 4), realizations, seed, first_stream=400)
    comp = np.empty((realizations, competitors, n2, nt))
    for t in range(realizations):
        for c in range(competitors):
            w = rng.gen.uniform(size=(n2, nt))
            w /= w.sum(axis=1, keepdims=True)
            scale = rng.gen.uniform(0.5, 1.0, size=(n2, 1))
            comp[t, c] = budget * scale * w
    smat = codebook.s_matrix(batch.h, unitaries)
    ref = codebook.select_mi(smat, budget * np.eye(nt), rho, k, nt, ev)[0]
    got = codebook.select_mi(smat[:, None], comp, rho, k, nt, ev)[0]
    worst = float((got - ref[:, None]).max())
    return [CheckResult("thm4", "rank-one-strongly-optimal", worst <= 1e-9, worst,
                        f"{realizations} realizations x {competitors} competitors")]


def suite_thm5(seed=DEFAULT_SEED, realizations=500):
    """snr-rule objective is capped by max_im s_im and rank-one codebooks reach the cap."""
    nt, nc, k = 4, 4, 4
    rng = Rng(seed, 51)
    unitaries = [haar_unitary(nt, rng) for _ in range(4)]
    budget = nt * nc / k
    batch = draw_trials(channel.v4_model(), realizations, seed, first_stream=500)
    lamsets = np.array([codebook.random_rank_two_lambdas(3, 4, nt, nc, k, rng)
                        for _ in range(realizations)])
    smat = codebook.s_matrix(batch.h, unitaries)
    smax = smat.max(axis=(1, 2))
    comp = codebook.select_snr(smat[:, None], lamsets, k, nt, nc)[0]
    worst_cap = float((comp - smax[:, None]).max())
    full_modes = codebook.select_snr(smat, budget * np.eye(nt), k, nt, nc)[0]
    worst_achieve = float(np.abs(full_modes - smax).max())
    return [
        CheckResult("thm5", "snr-cap", worst_cap <= 1e-9, worst_cap,
                    f"{realizations} realizations x 3 rank-two codebooks"),
        CheckResult("thm5", "rank-one-achieves-cap", worst_achieve <= 1e-9, worst_achieve),
    ]


def suite_prop2(seed=DEFAULT_SEED, realizations=200):
    """Averaging a per-symbol-varying codeword never decreases the block MI."""
    ev = MiEvaluator(Constellation.gaussian())
    rng = Rng(seed, 61)
    k, nc, rho = 4, 4, 1.5
    batch = draw_trials(channel.iid_model(4, 4), realizations, seed, first_stream=600)
    qs = np.empty((realizations, k, 4, 4), dtype=np.complex128)
    for t in range(realizations):
        shares = rng.gen.uniform(size=k)
        shares = shares / shares.sum() * (4 * nc)
        qs[t] = [_random_psd(4, rng, tr) for tr in shares]
    gaps = block_mi(batch.h, qs, rho, 4, ev) - block_mi(batch.h, _uniform_codeword(qs), rho, 4, ev)
    worst = float(gaps.max())
    return [CheckResult("prop2", "uniform-codeword-dominates", worst <= 1e-9, worst,
                        f"{realizations} realizations")]


def prop3_gap(a, y):
    """RHS minus LHS of the max-vs-product-expectation inequality (>= 0 when it holds)."""
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


def suite_prop3(seed=DEFAULT_SEED, instances=1000):
    """Brute-force enumeration check of the weighted-max inequality."""
    rng = Rng(seed, 71)
    worst = np.inf
    for _ in range(instances):
        m = int(rng.gen.integers(1, 5))
        n = int(rng.gen.integers(1, 5))
        a = rng.gen.uniform(size=(m, n)) + 1e-12
        a /= a.sum(axis=1, keepdims=True)
        y = rng.gen.normal(scale=3.0, size=(m, n))
        worst = min(worst, prop3_gap(a, y))
    return [CheckResult("prop3", "brute-force", worst >= -1e-12, worst,
                        f"{instances} instances, M <= 4, N <= 4")]


def suite_lemma1(seed=DEFAULT_SEED, realizations=10000):
    """Per-realization mutual-information gap never exceeds the received-SNR gap."""
    ev = MiEvaluator(Constellation.gaussian())
    nt, nc, k = 4, 4, 4
    rng = Rng(seed, 81)
    unitaries = [haar_unitary(nt, rng) for _ in range(4)]
    lambdas = codebook.random_rank_two_lambdas(1, 1, nt, nc, k, rng)[0]
    cb = codebook.QuantizedCodebook(b=2, n1=4, n2=1, unitaries=unitaries, lambdas=lambdas,
                                    k=k, nc=nc, nt=nt)
    batch = draw_trials(channel.v4_model(), realizations, seed, first_stream=800)
    worst = max(float((codebook.delta_mi(cb, batch, rho, ev) - codebook.delta_snr(cb, batch, rho)).max())
                for rho in (1.0, 10.0))
    return [CheckResult("lemma1", "mi-gap-below-snr-gap", worst <= 1e-9, worst,
                        f"{realizations} V4 realizations, rho in {{1, 10}}")]


def suite_eq10(seed=DEFAULT_SEED):
    """Concavity consequence I(z/k) >= (z/k) * mmse(z/k)."""
    worst = np.inf
    for const in (Constellation.gaussian(), Constellation.bpsk()):
        ev = MiEvaluator(const)
        for z in (1.0, 10.0, 100.0):
            for k in range(1, 9):
                a = z / k
                worst = min(worst, ev.mi(a) - a * ev.mmse(a))
    return [CheckResult("eq10", "chord-below-mi", worst >= -1e-9, worst,
                        "z in {1,10,100}, k = 1..8, gaussian+bpsk")]


def suite_immse(seed=DEFAULT_SEED):
    """Finite-difference dI/da against mmse(a), and concavity of I."""
    results = []
    points = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    for const in (Constellation.gaussian(), Constellation.bpsk()):
        ev = MiEvaluator(const)
        step = 1e-4
        fd = (ev.mi(points + step) - ev.mi(points - step)) / (2 * step)
        rel = float(np.max(np.abs(fd - ev.mmse(points)) / ev.mmse(points)))
        results.append(CheckResult("immse", f"derivative-match-{const.kind}", rel <= 1e-3, rel,
                                   "6 points, central differences"))
        grid = np.logspace(-3, 3, 50)
        h = 0.05 * grid
        second = ev.mi(grid + h) - 2 * ev.mi(grid) + ev.mi(grid - h)
        worst = float(second.max())
        results.append(CheckResult("immse", f"concavity-{const.kind}", worst <= 1e-6, worst,
                                   "50 log-spaced points"))
    return results


def suite_goc(seed=DEFAULT_SEED, mutate=False):
    """Construction orthogonality residuals and the decoupling witness."""
    rng = Rng(seed, 91)
    model = channel.iid_model(4, 4)
    sets = {
        "rank-one": dispersion.rank_one_set(_random_unit_vector(4, rng), k=8, nc=4),
        "statistical": dispersion.statistical_set(np.array([8.0, 4.0, 4.0, 0.0]),
                                                  k=2, nc=8, rng=rng),
    }
    if mutate:
        broken = sets["rank-one"]
        mats = [m.copy() for m in broken.mats]
        mats[1] = mats[0]  # deliberate violation: duplicated dispersion matrix
        sets["rank-one"] = dispersion.DispersionSet(
            nt=broken.nt, nc=broken.nc, k=broken.k, mats=mats, goc_verified=False
        )
    results = []
    for name, dset in sets.items():
        ok, resid = dispersion.check_goc(dset, tol=1e-10)
        results.append(CheckResult("goc", f"{name}-constraint", ok, resid))
        worst = 0.0
        for t in range(100):
            model_t = model if dset.nt == 4 else channel.iid_model(dset.nt, dset.nt)
            real = channel.sample(model_t, Rng(seed, 900 + t))
            worst = max(worst, dispersion.decoupling_residual(real, dset))
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
        fn = SUITES[name]
        if name == "goc":
            results.extend(fn(seed=seed, mutate=mutate))
        else:
            results.extend(fn(seed=seed))
    return results
