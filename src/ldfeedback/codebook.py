"""Quantized feedback codebooks with the N1 x N2 eigen-split.

A B-bit codebook factors its 2^B covariance codewords as Q = U_i L_j U_i^H:
N1 candidate unitaries times N2 candidate diagonal power allocations. Two
receiver selection rules are provided (instantaneous mutual information and
received SNR), plus the gap quantities against the perfect-CSI benchmark.
Every operation works on a stack of trials along the leading axis; one
realization is the n = 1 stack.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import column_powers
from .dispersion import check_symbols
from .errors import PreconditionError
from .infotheory import perfect_csi_mi
from .matkit import check_unitary
# unused here, but bench/tests/test_bench.py checks that the span tracer patches
# this call-site binding, so the name stays bound in this module
from .matkit import hermitian_eig  # noqa: F401

TRACE_TOL = 1e-9


def check_split(b, n1, n2):
    """Reject a B-bit split unless n1, n2 >= 1 and n1 * n2 = 2^B.

    The product is tested on its bits: a power of two with B + 1 of them,
    which also rejects B < 0. So a huge B is never raised to 2^B, and the
    message names the inputs only.
    """
    p = int(n1) * int(n2)
    if min(n1, n2) < 1 or p.bit_length() != b + 1 or p & (p - 1):
        raise PreconditionError(f"n1 = {n1}, n2 = {n2}: n1*n2 must equal 2^B for B = {b}")


def check_rank_two(nt):
    """Reject Nt < 2: a rank-two allocation needs a pair of modes."""
    if nt < 2:
        raise PreconditionError("rank-two allocations need Nt >= 2")


@dataclass
class QuantizedCodebook:
    """A validated B-bit codebook; lambdas holds its N2 power diagonals as one (N2, Nt) array."""

    b: int
    n1: int
    n2: int
    unitaries: list
    lambdas: np.ndarray
    k: int
    nc: int
    nt: int

    def __post_init__(self):
        check_split(self.b, self.n1, self.n2)
        check_symbols(self.k, self.nc)
        if len(self.unitaries) != self.n1 or len(self.lambdas) != self.n2:
            raise PreconditionError("unitary/diagonal counts must match the split")
        self.unitaries = [np.asarray(u, dtype=np.complex128) for u in self.unitaries]
        rows = [np.asarray(l, dtype=float).reshape(-1) for l in self.lambdas]
        check_unitary(np.stack(self.unitaries), self.nt, "unitaries")
        budget = self.nt * self.nc / self.k
        for lam in rows:
            if lam.size != self.nt:
                raise PreconditionError("power diagonals must have length Nt")
            if (lam < 0).any():
                raise PreconditionError("power diagonals must be non-negative")
            if lam.sum() > budget + TRACE_TOL:
                raise PreconditionError(
                    f"Tr(lambda) = {lam.sum()!r} exceeds the Nt*Nc/K = {budget!r} budget"
                )
        self.lambdas = np.stack(rows)


def rank_two_lambdas(pair, split, nt, nc, k):
    """Rank-two power diagonals, shape pair.shape + (Nt,), from pair indices and power splits.

    pair holds indices into the C(Nt, 2) mode pairs in
    itertools.combinations order, and split the matching w in [0, 1): each
    diagonal puts w and 1 - w of the full Nt*Nc/K budget on its pair's two
    modes.
    """
    budget = nt * nc / k
    modes = np.array(list(itertools.combinations(range(nt), 2)))[pair]
    sets = np.zeros(pair.shape + (nt,))
    np.put_along_axis(sets, modes, np.stack([split * budget, (1.0 - split) * budget], axis=-1), axis=-1)
    return sets


def random_rank_two_lambdas(count, n2, nt, nc, k, rng):
    """count random sets of N2 rank-two diagonals, as a (count, N2, Nt) array.

    Each diagonal excites a uniformly chosen pair of modes with a uniform
    power split, mapped by rank_two_lambdas. Diagonal after diagonal, the
    pair is one Generator.integers(C(Nt, 2)) draw and the split one
    Generator.random() draw.
    """
    if count < 1 or n2 < 1:
        raise PreconditionError("counts must be >= 1")
    check_rank_two(nt)
    check_symbols(k, nc)
    pairs, m = math.comb(nt, 2), count * n2
    pair, split = np.empty(m, dtype=int), np.empty(m)
    for i in range(m):
        pair[i], split[i] = rng.gen.integers(pairs), rng.gen.random()
    return rank_two_lambdas(pair, split, nt, nc, k).reshape(count, n2, nt)


def s_matrix(h, unitaries):
    """Per-mode received powers s[n, i, m] = ||H_n u_{i,m}||^2, shape (n, N1, Nt).

    h is an (n, Nr, Nt) channel stack and u_{i,m} column m of unitaries[i].
    Row (n, i) is channel.column_powers of H_n U_i, which equals the squared
    column norms of Lh^(1/2) Uh^H U_i where H_n^H H_n = Uh Lh Uh^H; it sums
    to Tr(H_n^H H_n) and never exceeds the largest eigenvalue.

    Each H U_i is one (n*Nr, Nt) @ (Nt, Nt) product over the stacked rows of
    h, not n small products; its values equal the stacked h @ U_i bit for
    bit (tested against it). The unitaries are checked where they are made,
    by matkit.haar_unitaries or QuantizedCodebook, not on every call.
    """
    nt = h.shape[-1]
    rows = h.reshape(-1, nt)
    return np.stack([column_powers((rows @ u).reshape(h.shape)) for u in unitaries], axis=1)


def codeword_max(smat, lambdas):
    """Largest trace sum_m s[i, m] * lambda_j[m] over the codewords (i, j), shape (...).

    The traces are one einsum; the maximum folds their N1*N2 codeword slices
    with np.maximum in flat (i, j) order, which equals the einsum's
    .max(axis=(-2, -1)) exactly without reducing over the small trailing axes.
    """
    traces = np.einsum("...im,...jm->...ij", smat, lambdas)
    slices = traces.reshape(traces.shape[:-2] + (-1,))
    best = slices[..., 0].copy()
    for c in range(1, slices.shape[-1]):
        np.maximum(best, slices[..., c], out=best)
    return best


def trace_mi(traces, rho, k, nt, evaluator):
    """K * I(max(t, 0) * rho/Nt) of codeword traces t at one SNR point rho, elementwise."""
    return k * evaluator.mi(np.maximum(traces, 0.0) * rho / nt)


def select_mi(smat, lambdas, rho, k, nt, evaluator):
    """Receiver rule: max over (i, j) of K * I(rho/Nt * Tr(H Q^{i,j} H^H)).

    smat (..., N1, Nt) comes from s_matrix and lambdas (..., N2, Nt) holds
    the power diagonals; leading axes broadcast, so a codebook shared by all
    trials passes its (N2, Nt) lambdas. Tr(H Q^{i,j} H^H) is
    sum_m s[i, m] * lambda_j[m]. rho is one SNR point; the values are
    returned over the leading axes.

    I is strictly increasing and t -> max(t, 0) * rho/Nt is non-decreasing
    for rho >= 0, so a codeword of largest trace maximizes K * I at every
    SNR: the largest trace is computed once, by codeword_max, and K * I only
    at it, by trace_mi. The Gaussian I is non-decreasing in floating point
    too. A discrete alphabet's table holds non-decreasing knot values capped
    at ln M and a monotone polynomial on each interval, and dense sweeps of
    every table find it non-decreasing in floating point as well. So the
    values equal the per-codeword maximum (tested exactly on BPSK and PAM4).
    """
    return trace_mi(codeword_max(smat, lambdas), rho, k, nt, evaluator)


def select_snr(smat, lambdas, k, nt, nc):
    """Receiver rule: max over (i, j) of sum_m alpha[j, m] * s[i, m].

    alpha = lambda * K / (Nt*Nc) are the normalized power weights; shapes
    are as in select_mi.
    """
    return codeword_max(smat, lambdas * (k / (nt * nc)))


def delta_snr(smat, lambdas, lam_max, rho, k, nt, nc):
    """Per-symbol received-SNR gap rho*Nc/K * (lam_max - selected weighted power), shape (n,).

    smat (n, N1, Nt) and lambdas (N2, Nt) are as in select_snr and lam_max
    (n,) is the largest eigenvalue of each H^H H. Uses the snr-rule
    selection; non-negative because lam_max dominates every convex
    combination of the per-mode powers.
    """
    return rho * nc / k * (lam_max - select_snr(smat, lambdas, k, nt, nc))


def delta_mi(smat, lambdas, lam_max, rho, k, nt, nc, evaluator):
    """Per-symbol mutual-information gap against the perfect-CSI benchmark, shape (n,).

    The arguments are as in delta_snr. Uses the mi-rule selection.
    Normalizing the block gap by K puts this on the same per-symbol scale as
    delta_snr, which is what makes the bound delta_mi <= delta_snr hold for
    every realization (the MMSE never exceeds the unit prior variance).
    """
    best = perfect_csi_mi(lam_max, rho, k, nc, evaluator)
    return (best - select_mi(smat, lambdas, rho, k, nt, evaluator)) / k
