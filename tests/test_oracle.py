"""The Monte Carlo curves against a value computed without the package: an analytic oracle.

With Gaussian input the perfect-CSI row (K = 2*Nc) is E[log2(1 + rho *
lambda_max)], lambda_max the largest eigenvalue of H^H H. For i.i.d. CN(0, 1)
entries its CDF is Khatri's determinant of lower incomplete gamma functions
(Khatri, Ann. Math. Statist. 1964), so the row is the one-dimensional
integral of rho / ((1 + rho x) ln 2) * (1 - F(x)) over x >= 0. A fault shared
by every code path, such as the channel's power normalization, the K/Nc
scaling or the nats-to-bits step, moves the curve away from it.

The statistical rows are K/(2 Nc) * E[log2(1 + 2 rho/Nt * cols . lambda)]
with lambda of trace Nt*Nc/K, cols the column powers of Hind. On i.i.d.
channels each column power is Gamma(Nr, 1) and their sum Gamma(Nt*Nr, 1).
The statistical row's optimum is the uniform diagonal, by symmetry and
concavity, so cols . lambda is Nc/K times a Gamma(Nt*Nr) variable (the row
is fitted on its own sample, so it may lie a second-order amount below);
statistical-beamforming puts the whole budget on one mode, Nt*Nc/K times a
Gamma(Nr) variable whichever mode it picks. Each is the same integral by
parts over the Gamma survival function.

The codebook path has one too. With one unitary U (N1 = 1) and N2 = Nt
power diagonals on i.i.d. channels, H U has the law of H, so the Nt mode
powers are i.i.d. Gamma(Nr, 1) and the rank-one search has a single
candidate: the full budget Nt*Nc/K on each mode. Its codeword maximum
keeps the strongest mode, M, the largest of Nt i.i.d. Gamma(Nr) variables,
with CDF P(Gamma(Nr) <= x)^Nt (David & Nagaraja, "Order Statistics",
Wiley 2003). So the quantized-rank1-best row is K/(2 Nc) * E[log2(1 +
2 rho/Nt * (Nt*Nc/K) * M)], which checks s_matrix, codeword_max, the
budget and trace_mi together.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, gammainc, gammaincc

from ldfeedback.cli import build_experiment, parse_config_text
from ldfeedback.simengine import run

BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"
# Bound stated before the first run: every point of a curve within 4 stderr of
# the integral. The points of a curve share their trials, so their z values are
# correlated; a miss is a finding against the code, not a bound to tune.
Z_BOUND = 4.0


def lam_max_cdf(x, m, n):
    """P(lambda_max <= x) for the m x m Wishart H^H H of an n x m CN(0, 1) matrix, m <= n.

    Khatri's form: det[gamma_lower(n - m + i + j - 1, x)]_{i,j=1..m} divided
    by Gamma_m(n) * Gamma_m(m), where Gamma_m(a) = prod_{i=1..m} Gamma(a - i + 1).
    """
    i = np.arange(1, m + 1)
    order = n - m + i[:, None] + i[None, :] - 1
    lower = gammainc(order, x) * gamma(order)
    return np.linalg.det(lower) / (np.prod(gamma(n - i + 1)) * np.prod(gamma(m - i + 1)))


def mean_log2(scale, survival):
    """E[log2(1 + scale * X)] of a variable X >= 0 with survival function P(X > x), by parts."""
    value, err = quad(lambda x: scale / ((1.0 + scale * x) * math.log(2.0)) * survival(x),
                      0.0, np.inf, epsabs=1e-11, epsrel=1e-11, limit=200)
    assert err <= 1e-8
    return value


def mean_log2_capacity(rho, nt, nr):
    """E[log2(1 + rho * lambda_max)] of an i.i.d. Nr x Nt channel, by parts over the CDF."""
    m, n = min(nt, nr), max(nt, nr)
    return mean_log2(rho, lambda x: 1.0 - lam_max_cdf(x, m, n))


def statistical_row(scheme, rho, config):
    """The i.i.d. channel's statistical or statistical-beamforming row in bits per channel use."""
    nt, nr, nc, k = config.model.nt, config.model.nr, config.nc, config.k
    if scheme == "statistical":  # uniform diagonal: Nc/K times the Gamma(Nt*Nr) total power
        scale, shape = 2.0 * rho * nc / (nt * k), nt * nr
    else:  # one full-budget mode: Nt*Nc/K times a Gamma(Nr) column power
        scale, shape = 2.0 * rho * nc / k, nr
    return k / (2.0 * nc) * mean_log2(scale, lambda x: gammaincc(shape, x))


def quantized_rank_one_row(rho, config):
    """The i.i.d. channel's quantized-rank1-best row in bits per channel use, for N1 = 1 and N2 = Nt."""
    nt, nr, nc, k = config.model.nt, config.model.nr, config.nc, config.k
    # every mode at the full budget Nt*Nc/K; the codeword max keeps the largest of Nt Gamma(Nr) powers
    scale = 2.0 * rho / nt * (nt * nc / k)
    return k / (2.0 * nc) * mean_log2(scale, lambda x: 1.0 - gammainc(nr, x) ** nt)


def test_oracle_mean_lam_max_2x2():
    # the known mean of the largest eigenvalue of a 2 x 2 complex Wishart with 2 degrees of freedom
    mean, _ = quad(lambda x: 1.0 - lam_max_cdf(x, 2, 2), 0.0, np.inf, epsabs=1e-12)
    assert abs(mean - 3.5) <= 1e-9


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 2), (2, 4), (4, 4)])
def test_oracle_cdf_is_a_distribution(m, n):
    # 0 at 0, 1 far out, non-decreasing in between; for m = 1, lambda_max is Gamma(n, 1)
    grid = np.linspace(0.0, 80.0, 400)
    cdf = np.array([lam_max_cdf(x, m, n) for x in grid])
    assert abs(cdf[0]) <= 1e-12 and abs(cdf[-1] - 1.0) <= 1e-9
    assert (np.diff(cdf) >= -1e-12).all()
    if m == 1:
        assert np.allclose(cdf, gammainc(n, grid), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("label", ["gauss_iid2x2", "gauss_iid4x4"])
def test_perfect_rows_match_the_integral(label):
    values = parse_config_text((BENCH_CONFIGS / f"{label}.cfg").read_text())
    config = build_experiment(values)
    points = run(replace(config, schemes=["perfect"]))
    assert len(points) == len(config.snr_grid_db)
    z = [(p.mi_bits_per_use - mean_log2_capacity(10.0 ** (p.snr_db / 10.0), config.model.nt, config.model.nr))
         / p.stderr for p in points]
    assert max(map(abs, z)) <= Z_BOUND, z


@pytest.mark.parametrize("scheme", ["statistical", "statistical-beamforming"])
def test_statistical_rows_match_the_integral(scheme):
    config = build_experiment(parse_config_text((BENCH_CONFIGS / "gauss_iid2x2.cfg").read_text()))
    points = run(replace(config, schemes=[scheme]))
    assert len(points) == len(config.snr_grid_db)
    z = [(p.mi_bits_per_use - statistical_row(scheme, 10.0 ** (p.snr_db / 10.0), config)) / p.stderr
         for p in points]
    assert max(map(abs, z)) <= Z_BOUND, z


@pytest.mark.parametrize("nt, nr, nc, k", [(2, 2, 2, 2), (4, 4, 4, 4), (4, 2, 4, 4), (2, 2, 2, 4)],
                         ids=["2x2", "4x4", "4tx-2rx", "2x2-k4-nc2"])
def test_quantized_rank_one_row_matches_the_integral(nt, nr, nc, k):
    # one unitary holding every mode: b bits give 2^b = Nt diagonals; K != Nc in the last case,
    # so a budget off by a factor K/Nc moves its row
    text = (f"model = iid\nnt = {nt}\nnr = {nr}\nnc = {nc}\nk = {k}\nb = {nt.bit_length() - 1}\nn1 = 1\n"
            f"n2 = {nt}\nsnr_db = 0,4,8,12,16,20\ntrials = 10000\nseed = 5\nschemes = quantized-rank1-best\n")
    config = build_experiment(parse_config_text(text))
    points = run(config)
    assert len(points) == len(config.snr_grid_db)
    z = [(p.mi_bits_per_use - quantized_rank_one_row(10.0 ** (p.snr_db / 10.0), config)) / p.stderr
         for p in points]
    assert max(map(abs, z)) <= Z_BOUND, z
