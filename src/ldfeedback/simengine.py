"""Monte Carlo estimation of average mutual information.

Trials are drawn once per configuration with one RNG substream per trial
index, then every scheme is evaluated on the same draws (common random
numbers). Reductions accumulate in trial-index order, so results are
bit-identical regardless of how trials would be scheduled.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import from_normals
# unused here, but bench/tests/test_bench.py checks that the span tracer patches
# this call-site binding, so the name stays bound in this module
from .channel import sample  # noqa: F401
from .codebook import QuantizedCodebook, random_rank_two_lambdas, s_matrix, select_mi
from .errors import InfeasibleError, PreconditionError
from .infotheory import LN2, MiEvaluator, perfect_csi_mi
from .matkit import Rng, complex_gaussian_matrix, hermitian_eig, haar_unitary

# Flat stream-index namespace: trials take 0..trials-1, internal draws sit high.
STREAM_CODEBOOK = 1 << 48
STREAM_OPT = (1 << 48) + 1
STREAM_TOURNAMENT = (1 << 48) + 2
STATISTICAL_SCHEMES = ("statistical", "statistical-beamforming")
MIN_OPT_SAMPLES = 100
# trials per stacked eigendecomposition in draw_trials; bounds its scratch memory
EIG_CHUNK = 4096


def rho_from_db(snr_db):
    return 10.0 ** (snr_db / 10.0)


@dataclass
class SimConfig:
    """One Monte Carlo experiment: channel law, grid, schemes, and seed.

    schemes lists what run evaluates; it is empty when only the codebook
    searches (best_rank_one_codebook, rank_two_tournament) are wanted.
    """

    model: object
    snr_grid_db: list
    trials: int
    seed: int
    constellation: object
    k: int
    nc: int
    schemes: list
    opt_samples: int = 5000

    def validate(self):
        if self.trials < 1:
            raise PreconditionError("trials must be >= 1")
        grid = list(self.snr_grid_db)
        if not grid or not all(map(math.isfinite, grid)) or any(b <= a for a, b in zip(grid, grid[1:])):
            raise PreconditionError(f"snr grid must be non-empty, finite and strictly increasing, got {grid}")
        if self.k < 1 or self.nc < 1:
            raise PreconditionError(f"K = {self.k} and Nc = {self.nc} must both be >= 1")
        if self.k > 2 * self.nc:
            raise InfeasibleError(f"K = {self.k} violates K <= 2*Nc = {2 * self.nc}")
        if self.opt_samples < MIN_OPT_SAMPLES and any(s in STATISTICAL_SCHEMES for s in self.schemes):
            raise PreconditionError(
                f"opt_samples = {self.opt_samples}: the statistical optimizer needs at least "
                f"{MIN_OPT_SAMPLES} samples"
            )


@dataclass
class CurvePoint:
    """One (SNR, scheme) result row; MI is per channel use in bits."""

    snr_db: float
    scheme: str
    mi_bits_per_use: float
    stderr: float
    trials: int


@dataclass
class LambdaStat:
    """Result of the statistical power-allocation search."""

    diag: np.ndarray
    converged: bool
    iterations: int


@dataclass
class TrialBatch:
    """Channel draws shared by every scheme of one experiment."""

    h: np.ndarray  # (n, nr, nt)
    hind: np.ndarray  # (n, nr, nt)
    eigvals: np.ndarray  # (n, nt) of H^H H, descending, clipped at 0
    ind_col_power: np.ndarray  # (n, nt) squared column norms of hind

    @property
    def trials(self):
        return self.h.shape[0]


def draw_trials(model, trials, seed, first_stream=0):
    """Sample `trials` channels, trial i from substream first_stream + i.

    The per-trial loop only keys Rng(seed, first_stream + i) and fills row i
    of one standard-normal buffer; channel.from_normals turns the whole stack
    into channels at once. Row i therefore equals
    channel.sample(model, Rng(seed, first_stream + i)) bit for bit, whatever
    the window [first_stream, first_stream + trials) it is drawn in.
    """
    n = int(trials)
    z = np.empty((n, 2, model.nr, model.nt))
    for i in range(n):
        Rng(seed, first_stream + i).gen.standard_normal(out=z[i])
    h, hind = from_normals(model, z)
    eigvals = np.empty((n, model.nt))
    for lo in range(0, n, EIG_CHUNK):
        chunk = h[lo : lo + EIG_CHUNK]
        eig = hermitian_eig(np.swapaxes(chunk.conj(), -1, -2) @ chunk)
        eigvals[lo : lo + EIG_CHUNK] = np.maximum(eig.values, 0.0)
    ind_col_power = (np.abs(hind) ** 2).sum(axis=1)
    return TrialBatch(h=h, hind=hind, eigvals=eigvals, ind_col_power=ind_col_power)


def project_scaled_simplex(v, total):
    """Euclidean projection onto {x >= 0, sum(x) = total}."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, v.size + 1)
    support = np.nonzero(u - css / idx > 0)[0][-1] + 1
    theta = css[support - 1] / support
    return np.maximum(v - theta, 0.0)


def draw_ind_column_powers(model, samples, rng):
    """Squared column norms of `samples` draws of Hind, shape (samples, Nt): the optimizer's inputs."""
    hind = complex_gaussian_matrix(rng, np.broadcast_to(model.vmask, (samples, model.nr, model.nt)))
    return (np.abs(hind) ** 2).sum(axis=1)


def optimize_lambda(cols, rho, nt, k, nc, evaluator, max_iter=500, tol=1e-6):
    """Statistical-CSI power allocation by sample-average approximation.

    Projected gradient ascent of the sample mean of I(rho/Nt * cols @ lam)
    over non-negative diagonals of trace Nt*Nc/K, where row s of cols holds
    the squared column norms of Hind for sample s. Gradient components come
    from the derivative relation dI/da = mmse(a).
    """
    total = nt * nc / k

    def objective(lam):
        return float(np.mean(evaluator.mi(rho / nt * (cols @ lam))))

    def gradient(lam):
        a = rho / nt * (cols @ lam)
        return rho / nt * (evaluator.mmse(a)[:, None] * cols).mean(axis=0)

    lam = np.full(nt, total / nt)
    f_cur = objective(lam)
    best_lam, best_f = lam.copy(), f_cur
    converged = False
    step = 1.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        g = gradient(lam)
        pg = project_scaled_simplex(lam + g, total) - lam
        if np.linalg.norm(pg) <= tol:
            converged = True
            break
        step = min(max(step * 2.0, 1e-12), total / max(np.linalg.norm(g), 1e-300) * 4.0)
        accepted = False
        for _ in range(60):
            cand = project_scaled_simplex(lam + step * g, total)
            f_cand = objective(cand)
            gain = float(np.dot(g, cand - lam))
            if f_cand >= f_cur + 1e-4 * gain and f_cand > f_cur:
                lam, f_cur, accepted = cand, f_cand, True
                break
            step /= 2.0
        if not accepted:
            # no ascent direction survives backtracking: numerically stationary
            converged = np.linalg.norm(pg) <= 10 * tol
            break
        if f_cur > best_f:
            best_lam, best_f = lam.copy(), f_cur
    return LambdaStat(diag=best_lam, converged=converged, iterations=iterations)


def _best_single_mode(cols, rho, nt, k, nc, evaluator):
    """Mode index whose full-budget allocation maximizes the sample-mean MI."""
    total = nt * nc / k
    means = [float(np.mean(evaluator.mi(rho / nt * total * cols[:, m]))) for m in range(nt)]
    return int(np.argmax(means))


def scheme_block_mi(config, scheme, batch, opt_cols=None, smat=None):
    """Per-trial block MI in nats for one scheme, shape (n_snr, trials).

    The perfect scheme uses the K = 2*Nc benchmark; all other schemes use
    config.k. String schemes: perfect, statistical, statistical-beamforming.
    Quantized schemes come as ("quantized", label, codebook); smat, when
    given, is s_matrix(batch.h, codebook.unitaries).
    """
    evaluator = MiEvaluator(config.constellation)
    grid = list(config.snr_grid_db)
    rhos = [rho_from_db(s) for s in grid]
    nt, k, nc = config.model.nt, config.k, config.nc
    if isinstance(scheme, tuple):
        kind, _, cb = scheme
        if kind != "quantized":
            raise PreconditionError(f"unknown scheme tuple kind {kind!r}")
        if smat is None:
            smat = s_matrix(batch.h, cb.unitaries)
        return select_mi(smat, cb.lambda_matrix(), np.array(rhos), k, nt, evaluator)[0]
    if scheme == "perfect":
        return np.vstack([perfect_csi_mi(batch.eigvals[:, 0], rho, 2 * nc, nc, evaluator)
                          for rho in rhos])
    if scheme in STATISTICAL_SCHEMES:
        if opt_cols is None:
            opt_cols = draw_ind_column_powers(
                config.model, config.opt_samples, Rng(config.seed, STREAM_OPT)
            )
        rows = []
        for snr_db, rho in zip(grid, rhos):
            if scheme == "statistical":
                stat = optimize_lambda(opt_cols, rho, nt, k, nc, evaluator)
                if not stat.converged:
                    warnings.warn(f"{scheme} power optimizer did not converge at {snr_db} dB after "
                                  f"{stat.iterations} iterations; using its best iterate",
                                  RuntimeWarning, stacklevel=2)
                lam = stat.diag
            else:
                mode = _best_single_mode(opt_cols, rho, nt, k, nc, evaluator)
                lam = np.zeros(nt)
                lam[mode] = nt * nc / k
            rows.append(k * evaluator.mi(rho / nt * (batch.ind_col_power @ lam)))
        return np.vstack(rows)
    raise PreconditionError(f"unknown scheme {scheme!r}")


def _curve_points(config, label, block_mi_rows):
    bits = block_mi_rows / (config.nc * LN2)
    n = bits.shape[1]
    points = []
    for idx, snr in enumerate(config.snr_grid_db):
        stderr = float(bits[idx].std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        points.append(
            CurvePoint(
                snr_db=float(snr),
                scheme=label,
                mi_bits_per_use=float(bits[idx].mean()),
                stderr=stderr,
                trials=n,
            )
        )
    return points


def run(config, batch=None):
    """Estimate the mean per-channel-use MI of every configured scheme."""
    config.validate()
    if batch is None:
        batch = draw_trials(config.model, config.trials, config.seed)
    opt_cols = None
    if any(s in STATISTICAL_SCHEMES for s in config.schemes):
        opt_cols = draw_ind_column_powers(
            config.model, config.opt_samples, Rng(config.seed, STREAM_OPT)
        )
    curves = []
    for scheme in config.schemes:
        label = scheme[1] if isinstance(scheme, tuple) else scheme
        rows = scheme_block_mi(config, scheme, batch, opt_cols=opt_cols)
        curves.extend(_curve_points(config, label, rows))
    curves.sort(key=lambda p: (p.scheme, p.snr_db))
    return curves


def rank_one_candidates(nt, n2):
    """Distinct rank-one mode assignments: unordered size-N2 subsets of the Nt modes."""
    return list(itertools.combinations(range(nt), n2))


def default_unitaries(config, n1):
    """The experiment's RVQ unitary family, drawn once from the run seed."""
    rng = Rng(config.seed, STREAM_CODEBOOK)
    return [haar_unitary(config.model.nt, rng) for _ in range(n1)]


def best_rank_one_codebook(config, b, n1, n2, unitaries=None, batch=None):
    """Pick the rank-one mode assignment maximizing mean MI summed over the grid.

    All candidates are scored on the same trials; ties keep the first
    candidate. Returns (codebook, its curve).
    """
    config.validate()
    nt = config.model.nt
    candidates = rank_one_candidates(nt, n2)
    if not candidates:
        raise PreconditionError(f"no rank-one candidates for Nt = {nt}, N2 = {n2}")
    if unitaries is None:
        unitaries = default_unitaries(config, n1)
    if batch is None:
        batch = draw_trials(config.model, config.trials, config.seed)
    budget = nt * config.nc / config.k
    smat = s_matrix(batch.h, unitaries)
    best = None
    for modes in candidates:
        lambdas = []
        for mode in modes:
            lam = np.zeros(nt)
            lam[mode] = budget
            lambdas.append(lam)
        cb = QuantizedCodebook(
            b=b, n1=n1, n2=n2, unitaries=unitaries, lambdas=lambdas,
            k=config.k, nc=config.nc, nt=nt,
        )
        rows = scheme_block_mi(config, ("quantized", "quantized-rank1-best", cb), batch, smat=smat)
        score = float(rows.mean(axis=1).sum())
        if best is None or score > best[0]:
            best = (score, cb, rows)
    _, cb, rows = best
    return cb, _curve_points(config, "quantized-rank1-best", rows)


def rank_two_tournament(config, b, n1, n2, count, unitaries=None, batch=None):
    """Evaluate `count` random rank-two codebooks sharing the run's unitaries.

    Returns (best_curve, all_curves) where the best curve takes the
    per-SNR-point maximum of the mean MI across the codebooks.
    """
    config.validate()
    if count < 1:
        raise PreconditionError("tournament needs count >= 1")
    nt = config.model.nt
    if unitaries is None:
        unitaries = default_unitaries(config, n1)
    if batch is None:
        batch = draw_trials(config.model, config.trials, config.seed)
    rng = Rng(config.seed, STREAM_TOURNAMENT)
    lamsets = random_rank_two_lambdas(count, n2, nt, config.nc, config.k, rng)
    smat = s_matrix(batch.h, unitaries)
    all_curves = []
    per_point = []  # (n_codebooks, n_snr) means
    for idx, lambdas in enumerate(lamsets):
        cb = QuantizedCodebook(
            b=b, n1=n1, n2=n2, unitaries=unitaries, lambdas=lambdas,
            k=config.k, nc=config.nc, nt=nt,
        )
        points = _curve_points(
            config, f"quantized-rank2-{idx:02d}",
            scheme_block_mi(config, ("quantized", "", cb), batch, smat=smat),
        )
        all_curves.append(points)
        per_point.append([p.mi_bits_per_use for p in points])
    per_point = np.array(per_point)
    best_points = []
    for s_idx, snr in enumerate(config.snr_grid_db):
        winner = int(np.argmax(per_point[:, s_idx]))
        src = all_curves[winner][s_idx]
        best_points.append(
            CurvePoint(snr_db=float(snr), scheme="quantized-rank2-best", mi_bits_per_use=src.mi_bits_per_use,
                       stderr=src.stderr, trials=src.trials)
        )
    return best_points, [p for curve in all_curves for p in curve]
