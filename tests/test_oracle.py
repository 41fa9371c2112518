"""The Monte Carlo curves against a value computed without the package: an analytic oracle.

With Gaussian input the perfect-CSI row (K = 2*Nc) is E[log2(1 + rho *
lambda_max)], lambda_max the largest eigenvalue of H^H H. For i.i.d. CN(0, 1)
entries its CDF is Khatri's determinant of lower incomplete gamma functions
(Khatri, Ann. Math. Statist. 1964), so the row is the one-dimensional
integral of rho / ((1 + rho x) ln 2) * (1 - F(x)) over x >= 0. A fault shared
by every code path, such as the channel's power normalization, the K/Nc
scaling or the nats-to-bits step, moves the curve away from it.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, gammainc

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


def mean_log2_capacity(rho, nt, nr):
    """E[log2(1 + rho * lambda_max)] of an i.i.d. Nr x Nt channel, by parts over the CDF."""
    m, n = min(nt, nr), max(nt, nr)
    value, err = quad(lambda x: rho / ((1.0 + rho * x) * math.log(2.0)) * (1.0 - lam_max_cdf(x, m, n)),
                      0.0, np.inf, epsabs=1e-11, epsrel=1e-11, limit=200)
    assert err <= 1e-8
    return value


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
