"""Monte Carlo estimation of average mutual information.

Trial i of a configuration is drawn from its own RNG substream, and every
scheme is evaluated on the same draws (common random numbers). trial_windows
is the one window loop and the one draw path: it draws the trials
TRIAL_WINDOW channel evaluations at a time, for run and for every verify
suite that draws channels. A draw is its channels, the (h, hind) pair, and
each caller derives what it reads: run keeps of each window only what its
configured schemes read (the largest eigenvalues, the column powers of
Hind, the codebook's s_matrix rows), so a window's channels and their
scratch are freed before the next is drawn. Every per-trial value is
computed on its own and the reductions run over whole-run arrays, so
results are bit-identical whatever the window size.

scheme_table is the one dispatch on scheme labels. Each scheme has a keep
rule, a fit and a score; run fits every scheme on the trials and scores it
on the same trials, one SNR point at a time: the score makes one point's
(trials,) block MI, which is reduced to its CurvePoint before the next is
made. So besides the kept values run holds one window and one such row,
never an (n_snr, trials) block. The fitted policies:
- perfect: none;
- statistical: the optimizer's power diagonal at each SNR point, and
  statistical-beamforming: the full-budget single mode at each point, both
  (n_snr, Nt) and fitted on their own STREAM_OPT sample of Hind;
- quantized-rank1-best and quantized-rank2-best: (codebooks, winners), the
  candidate (N2, Nt) power diagonals and each SNR point's winner index,
  fitted on the trials' s_matrix rows.
"""

import itertools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .channel import column_powers, from_normals, hind_from_normals, top_eigenvalues
# unused here, but bench/tests/test_bench.py checks that the span tracer patches
# these call-site bindings, so the names stay bound in this module
from .channel import sample  # noqa: F401
from .matkit import hermitian_eig  # noqa: F401
from .codebook import check_rank_two, check_split, codeword_max, random_rank_two_lambdas, s_matrix, trace_mi
from .dispersion import check_symbols
from .errors import PreconditionError
from .infotheory import LN2, MiEvaluator, perfect_csi_mi
from .matkit import Rng, haar_unitaries, substream_normals

# Flat stream-index namespace: trials take 0..trials-1, internal draws sit high.
STREAM_CODEBOOK = 1 << 48
STREAM_OPT = (1 << 48) + 1
STREAM_TOURNAMENT = (1 << 48) + 2
MIN_OPT_SAMPLES = 100
# optimize_lambda stops after OPT_MAX_ITER steps or once the projected gradient norm is <= OPT_TOL
OPT_MAX_ITER = 500
OPT_TOL = 1e-6
# channel evaluations per window of trial_windows, which run and verify's suites iterate;
# bounds their scratch memory
TRIAL_WINDOW = 1024
# the rank-two tournament skips a point only when a codebook's Jensen bound (_jensen_bounds)
# is below the point's best score by more than this relative margin, far above the rounding of either side
JENSEN_MARGIN = 1e-12
# largest |snr_db| SimConfig.validate accepts: at 1000 dB rho = 1e100, so the
# kernel arguments rho * power / Nt stay finite for any power below 1e208, far
# above what a unit-variance channel draws, while 10 ** (snr_db / 10) itself
# overflows near 3083 dB and the arguments reach inf near 3080 dB
SNR_DB_LIMIT = 1000.0


def check_schemes(schemes):
    """Reject a label that is not in SCHEMES or that appears twice."""
    for idx, scheme in enumerate(schemes):
        if scheme not in SCHEMES:
            raise PreconditionError(f"unknown scheme {scheme!r}")
        if scheme in schemes[:idx]:
            raise PreconditionError(f"repeated scheme {scheme!r}")


@dataclass
class SimConfig:
    """One Monte Carlo experiment: channel law, grid, schemes, seed and codebook split.

    schemes lists the SCHEMES labels that run evaluates. The quantized
    schemes share one B-bit codebook split: n1 unitaries times n2 power
    diagonals with n1*n2 = 2^b; the rank-two tournament draws
    rank_two_sets codebooks.
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
    b: int = 2
    n1: int = 4
    n2: int = 1
    rank_two_sets: int = 50

    def validate(self):
        check_schemes(self.schemes)
        if self.trials < 1:
            raise PreconditionError("trials must be >= 1")
        grid = list(self.snr_grid_db)
        if not grid or not all(map(math.isfinite, grid)) or any(b <= a for a, b in zip(grid, grid[1:])):
            raise PreconditionError(f"snr grid must be non-empty, finite and strictly increasing, got {grid}")
        for snr_db in grid:
            if abs(snr_db) > SNR_DB_LIMIT:
                raise PreconditionError(f"snr_db = {snr_db!r} is outside [-{SNR_DB_LIMIT:g}, {SNR_DB_LIMIT:g}] dB")
        check_symbols(self.k, self.nc)
        if self.opt_samples < MIN_OPT_SAMPLES and {"statistical", "statistical-beamforming"} & set(self.schemes):
            raise PreconditionError(
                f"opt_samples = {self.opt_samples}: the statistical optimizer needs at least "
                f"{MIN_OPT_SAMPLES} samples"
            )
        check_split(self.b, self.n1, self.n2)
        if "quantized-rank1-best" in self.schemes and self.n2 > self.model.nt:
            raise PreconditionError(f"no rank-one candidates for Nt = {self.model.nt}, N2 = {self.n2}")
        if "quantized-rank2-best" in self.schemes:
            if self.rank_two_sets < 1:
                raise PreconditionError("rank_two_sets must be >= 1")
            check_rank_two(self.model.nt)


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


def draw_trials(model, trials, seed, first_stream=0):
    """Sample `trials` channels, trial i from substream first_stream + i, in one pass; returns (h, hind).

    matkit.substream_normals fills one standard-normal buffer whose row i is
    drawn from substream (seed, first_stream + i), and channel.from_normals
    turns it into the (trials, Nr, Nt) stacks h and hind at once, each
    channel on its own. So row i equals channel.sample(model, Rng(seed,
    first_stream + i)) bit for bit, whatever window it is drawn in. Nothing
    is factored: a caller derives what it reads, such as
    channel.top_eigenvalues(h). Its scratch grows with trials, so the
    package draws only through trial_windows.
    """
    return from_normals(model, substream_normals(seed, first_stream, int(trials), (2, model.nr, model.nt)))


def trial_windows(model, trials, seed, first_stream=0, evals_per_trial=1):
    """(lo, h, hind) windows covering range(trials) in order; (h, hind) draws the window's trials from lo on.

    A window holds max(1, TRIAL_WINDOW // evals_per_trial) trials, the last
    one may hold fewer, so a caller evaluating each trial evals_per_trial
    times (competitors, covariance sets, dispersion pairs) evaluates at most
    TRIAL_WINDOW at a time, or one trial. (h, hind) is draw_trials(model, n,
    seed, first_stream=first_stream + lo) of the window's n trials, the same
    bits as those rows of the whole draw. A caller that drops them at the
    end of each step holds one window at a time.
    """
    step = max(1, TRIAL_WINDOW // max(1, evals_per_trial))
    for lo in range(0, trials, step):
        yield (lo,) + draw_trials(model, min(step, trials - lo), seed, first_stream=first_stream + lo)


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
    """Squared column norms of `samples` draws of Hind, shape (samples, Nt): the optimizer's inputs.

    The normals are one (2, samples, Nr, Nt) draw; hind_from_normals and
    column_powers map them TRIAL_WINDOW samples at a time, each sample on
    its own, so the values are those of mapping the whole draw at once
    without its (samples, Nr, Nt) complex temporaries. The eigenbases are
    never applied: H is not read.
    """
    z = rng.gen.standard_normal((2, samples, model.nr, model.nt)).swapaxes(0, 1)
    cols = np.empty((samples, model.nt))
    for lo in range(0, samples, TRIAL_WINDOW):
        cols[lo:lo + TRIAL_WINDOW] = column_powers(hind_from_normals(model, z[lo:lo + TRIAL_WINDOW]))
    return cols


def _sample_mean_mi(cols, lam, rho, nt, evaluator):
    """Sample mean of I(rho/Nt * cols @ lam): the statistical schemes' objective."""
    return float(np.mean(evaluator.mi(rho / nt * (cols @ lam))))


def optimize_lambda(cols, rho, nt, k, nc, evaluator):
    """Statistical-CSI power allocation by sample-average approximation.

    Projected gradient ascent of the sample mean of I(rho/Nt * cols @ lam)
    over non-negative diagonals of trace Nt*Nc/K, where row s of cols holds
    the squared column norms of Hind for sample s. Gradient components come
    from the derivative relation dI/da = mmse(a).
    """
    total = nt * nc / k

    def gradient(lam):
        a = rho / nt * (cols @ lam)
        return rho / nt * (evaluator.mmse(a)[:, None] * cols).mean(axis=0)

    lam = np.full(nt, total / nt)
    f_cur = _sample_mean_mi(cols, lam, rho, nt, evaluator)
    converged = False
    step = 1.0
    iterations = 0
    for iterations in range(1, OPT_MAX_ITER + 1):
        g = gradient(lam)
        pg = project_scaled_simplex(lam + g, total) - lam
        if np.linalg.norm(pg) <= OPT_TOL:
            converged = True
            break
        step = min(max(step * 2.0, 1e-12), total / max(np.linalg.norm(g), 1e-300) * 4.0)
        accepted = False
        for _ in range(60):
            cand = project_scaled_simplex(lam + step * g, total)
            f_cand = _sample_mean_mi(cols, cand, rho, nt, evaluator)
            gain = float(np.dot(g, cand - lam))
            if f_cand >= f_cur + 1e-4 * gain and f_cand > f_cur:
                lam, f_cur, accepted = cand, f_cand, True
                break
            step /= 2.0
        if not accepted:
            # no ascent direction survives backtracking: numerically stationary
            converged = np.linalg.norm(pg) <= 10 * OPT_TOL
            break
    return LambdaStat(diag=lam, converged=converged, iterations=iterations)


def _rhos(config):
    """The linear SNRs of config's grid, shape (n_snr,)."""
    return np.array([10.0 ** (s / 10.0) for s in config.snr_grid_db])


def _keep_eigenvalues(config):
    return lambda h, hind: top_eigenvalues(h)


def _keep_column_powers(config):
    return lambda h, hind: column_powers(hind)


def _keep_smat(config):
    unitaries = default_unitaries(config)
    return lambda h, hind: s_matrix(h, unitaries)


def _opt_sample(config):
    """The statistical schemes' optimizer sample: config.opt_samples column powers of Hind from STREAM_OPT."""
    return draw_ind_column_powers(config.model, config.opt_samples, Rng(config.seed, STREAM_OPT))


def _fit_statistical(config, kept):
    """Per SNR point, optimize_lambda's power diagonal on the optimizer sample, shape (n_snr, Nt).

    A point whose optimizer did not converge warns and keeps the best iterate.
    """
    nt, evaluator, cols = config.model.nt, MiEvaluator(config.constellation), _opt_sample(config)
    diags = np.empty((len(config.snr_grid_db), nt))
    for idx, (snr_db, rho) in enumerate(zip(config.snr_grid_db, _rhos(config))):
        stat = optimize_lambda(cols, rho, nt, config.k, config.nc, evaluator)
        if not stat.converged:
            warnings.warn(f"statistical power optimizer did not converge at {snr_db} dB after "
                          f"{stat.iterations} iterations; using its best iterate", RuntimeWarning, stacklevel=2)
        diags[idx] = stat.diag
    return diags


def _fit_single_mode(config, kept):
    """Per SNR point, the full-budget single mode of largest sample-mean MI on the optimizer sample.

    Shape (n_snr, Nt); ties keep the first mode.
    """
    nt, evaluator, cols = config.model.nt, MiEvaluator(config.constellation), _opt_sample(config)
    modes = nt * config.nc / config.k * np.eye(nt)
    return np.stack([modes[np.argmax([_sample_mean_mi(cols, lam, rho, nt, evaluator) for lam in modes])]
                     for rho in _rhos(config)])


def _score_perfect(config, policy, lam_max):
    """(point, row) pairs: perfect_csi_mi of the K = 2*Nc benchmark at each SNR point."""
    evaluator = MiEvaluator(config.constellation)
    for point, rho in enumerate(_rhos(config)):
        yield point, perfect_csi_mi(lam_max, rho, 2 * config.nc, config.nc, evaluator)


def _score_diagonals(config, diags, ind_col_power):
    """(point, row) pairs: K * I(rho/Nt * ind_col_power @ lambda) with each SNR point's power diagonal lambda."""
    nt, k, evaluator = config.model.nt, config.k, MiEvaluator(config.constellation)
    for point, (rho, lam) in enumerate(zip(_rhos(config), diags)):
        yield point, k * evaluator.mi(rho / nt * (ind_col_power @ lam))


def _score_codebooks(config, policy, smat):
    """(point, row) pairs: codebook.select_mi of each SNR point's winning codebook, with config.k.

    Each distinct winner's codeword_max traces are computed once, and
    trace_mi scores them at each point the winner wins: select_mi's values,
    one point at a time.
    """
    codebooks, winners = policy
    rhos, k, nt, evaluator = _rhos(config), config.k, config.model.nt, MiEvaluator(config.constellation)
    # dict.fromkeys, not np.unique, which imports numpy.ma on first use: 1.1 MB of a process's peak RSS
    for winner in dict.fromkeys(winners.tolist()):
        traces = codeword_max(smat, codebooks[winner])
        for point in np.flatnonzero(winners == winner):
            yield int(point), trace_mi(traces, rhos[point], k, nt, evaluator)


def _curve_point(snr_db, label, bits):
    """The CurvePoint of per-trial MI values in bits per channel use: their mean and its standard error."""
    n = bits.size
    stderr = float(bits.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return CurvePoint(snr_db=float(snr_db), scheme=label, mi_bits_per_use=float(bits.mean()), stderr=stderr, trials=n)


def run(config):
    """Estimate the mean per-channel-use MI of every configured scheme.

    The config, scheme labels and codebook split included, is validated
    before anything is drawn. Then every scheme is fitted on the trials and
    scored on the same trials, by scheme_block_mi. The trials are drawn by
    trial_windows one TRIAL_WINDOW at a time, and run keeps of each window
    only what the configured schemes' keep rules read, each once, in
    whole-run arrays. So the channels of one window are alive at a time,
    never the whole run's, and each scheme is scored one SNR point at a
    time, one (trials,) row alive at a time, never an (n_snr, trials) block.
    """
    config.validate()
    table = scheme_table()
    windowed = {keep: keep(config) for keep in dict.fromkeys(table[s].keep for s in config.schemes)}
    kept = {}
    for lo, h, hind in trial_windows(config.model, config.trials, config.seed):
        for keep, window_values in windowed.items():
            values = window_values(h, hind)
            if keep not in kept:
                kept[keep] = np.empty((config.trials,) + values.shape[1:])
            kept[keep][lo:lo + len(h)] = values
        del h, hind
    curves = [p for s in config.schemes for p in scheme_block_mi(config, s, kept[table[s].keep])]
    return sorted(curves, key=lambda p: (p.scheme, p.snr_db))


def default_unitaries(config):
    """The experiment's config.n1 RVQ unitaries, drawn from the run seed."""
    return haar_unitaries(config.n1, config.model.nt, Rng(config.seed, STREAM_CODEBOOK))


def _jensen_bounds(traces, rhos, k, nt, evaluator):
    """Upper bounds on the trial mean of trace_mi(traces, rho, k, nt, evaluator), shape (n_snr,).

    rank_two_tournament skips the points they rule out. I is concave, so by
    Jensen's inequality the mean of K * I(rho/Nt * max(t, 0)) over the
    trials is at most K * I(rho/Nt * mean(max(t, 0))), the concavity behind
    Proposition 2 and eq. 10. The clipped traces are averaged once, and the
    bounds are one kernel call over the SNR points. The Gaussian closed
    form rounds each side within a few ulps, far inside JENSEN_MARGIN; a
    discrete alphabet's table is not certified concave in floating point,
    so its bounds are +inf and no point is skipped.
    """
    if evaluator.constellation.kind != "gaussian":
        return np.full(rhos.size, np.inf)
    clipped = np.maximum(traces, 0.0).mean()
    return k * evaluator.mi(clipped * rhos / nt)


def best_rank_one_codebook(config, smat):
    """The rank-one search's policy (codebooks, winners): one candidate, which wins at every point.

    Candidates are the C(Nt, N2) mode sets, each mode at the full
    Nt*Nc/K budget; config has passed SimConfig.validate (so N2 <= Nt), and
    smat is s_matrix(h, unitaries) of the trials to fit on. The winner
    maximizes mean block MI summed over the grid; ties keep the first
    candidate. codebooks is its (1, N2, Nt) diagonals and winners the
    (n_snr,) zeros that pick it at every point.

    Every candidate's codeword-max traces are computed once and scored at
    every SNR point, one point at a time; its score is the sum of the
    per-point means.
    """
    nt = config.model.nt
    k, evaluator, rhos = config.k, MiEvaluator(config.constellation), _rhos(config)
    budget = nt * config.nc / k
    means = np.empty(rhos.size)
    best = None
    for modes in itertools.combinations(range(nt), config.n2):
        lambdas = budget * np.eye(nt)[list(modes)]
        traces = codeword_max(smat, lambdas)
        for idx, rho in enumerate(rhos):
            means[idx] = trace_mi(traces, rho, k, nt, evaluator).mean()
        score = float(means.sum())
        if best is None or score > best[0]:
            best = (score, lambdas)
    return best[1][None], np.zeros(rhos.size, dtype=int)


def rank_two_tournament(config, smat):
    """The rank-two tournament's policy (codebooks, winners): per SNR point, the best of the drawn codebooks.

    codebooks is the config.rank_two_sets random rank-two codebooks' (sets,
    N2, Nt) diagonals, drawn by random_rank_two_lambdas from the
    STREAM_TOURNAMENT substream; they share the unitaries of smat, which is
    s_matrix(h, unitaries) of the trials to fit on. winners is the (n_snr,)
    index of each point's codebook of largest mean block MI in nats; ties go
    to the first codebook.

    Each codebook's codeword-max traces are computed once and scored one
    SNR point at a time, each point's (trials,) row dropped once its mean is
    taken. A point where the codebook's Jensen bound (_jensen_bounds) is
    below the best score by more than JENSEN_MARGIN cannot be won and is not
    scored. So the tournament's memory does not grow with
    config.rank_two_sets.
    """
    nt = config.model.nt
    k, evaluator, rhos = config.k, MiEvaluator(config.constellation), _rhos(config)
    lamsets = random_rank_two_lambdas(config.rank_two_sets, config.n2, nt, config.nc, k,
                                      Rng(config.seed, STREAM_TOURNAMENT))
    winners = np.zeros(rhos.size, dtype=int)
    best = np.empty(rhos.size)
    for idx, lambdas in enumerate(lamsets):
        traces = codeword_max(smat, lambdas)
        bounds = _jensen_bounds(traces, rhos, k, nt, evaluator)
        for point, rho in enumerate(rhos):
            if idx and bounds[point] < best[point] * (1.0 - JENSEN_MARGIN):
                continue
            score = trace_mi(traces, rho, k, nt, evaluator).mean()
            if idx == 0 or score > best[point]:
                best[point] = score
                winners[point] = idx
    return lamsets, winners


# One scheme's row of scheme_table. keep(config) is the function of a window's (h, hind) whose
# values run keeps for the scheme, fit(config, kept) the scheme's policy fitted on the whole run's
# kept values, and score(config, policy, kept) an iterator of (point, row) pairs, row the policy's
# per-trial block MI in nats at SNR point index point, shape (trials,), one pair per point. A
# row is made when its pair is drawn, so a consumer that drops each row holds one at a time.
SchemeRule = namedtuple("SchemeRule", "keep fit score")


def scheme_table():
    """The one dispatch on scheme labels: each SCHEMES label's keep, fit and score.

    The policies: perfect fits nothing; statistical fits the optimizer's
    power diagonal at each SNR point, and statistical-beamforming the
    full-budget single mode, both on the STREAM_OPT sample; the two codebook
    searches fit (codebooks, winners) on the trials' s_matrix rows. The
    table is made at each call from the module's current bindings, so a
    patched search or keep rule (a test's counter, the bench's span tracer)
    is the one called.
    """
    return {
        "perfect": SchemeRule(_keep_eigenvalues, lambda config, kept: None, _score_perfect),
        "statistical": SchemeRule(_keep_column_powers, _fit_statistical, _score_diagonals),
        "statistical-beamforming": SchemeRule(_keep_column_powers, _fit_single_mode, _score_diagonals),
        "quantized-rank1-best": SchemeRule(_keep_smat, best_rank_one_codebook, _score_codebooks),
        "quantized-rank2-best": SchemeRule(_keep_smat, rank_two_tournament, _score_codebooks),
    }


SCHEMES = tuple(scheme_table())


def scheme_block_mi(config, scheme, kept):
    """scheme's CurvePoints in grid order: its block MI fitted on kept and scored on it, point by point.

    kept is the whole run's values of the scheme's keep rule in
    scheme_table: channel.top_eigenvalues of the trials' channels for
    perfect, channel.column_powers of their Hind for the statistical
    schemes, and s_matrix(h, default_unitaries(config)) for the codebook
    searches. perfect uses the K = 2*Nc benchmark, every other scheme
    config.k. Each (trials,) row of the score, in nats per block, is turned
    into bits per channel use in place and reduced to its CurvePoint before
    the next row is made.
    """
    rule = scheme_table()[scheme]
    points = [None] * len(config.snr_grid_db)
    for point, block_mi in rule.score(config, rule.fit(config, kept), kept):
        block_mi /= config.nc * LN2
        points[point] = _curve_point(config.snr_grid_db[point], scheme, block_mi)
        # drop the row before the score makes the next one
        del block_mi
    return points
