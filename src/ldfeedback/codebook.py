"""Quantized feedback codebooks with the N1 x N2 eigen-split.

A B-bit codebook factors its 2^B covariance codewords as Q = U_i L_j U_i^H:
N1 candidate unitaries times N2 candidate diagonal power allocations. Two
receiver selection rules are provided (instantaneous mutual information and
received SNR), plus the gap quantities against the perfect-CSI benchmark.
Every operation works on a stack of trials along the leading axis; one
realization is the n = 1 stack.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .infotheory import perfect_csi_mi
from .matkit import matrix_from_lines, matrix_to_lines
# unused here, but bench/tests/test_bench.py checks that the span tracer patches
# this call-site binding, so the name stays bound in this module
from .matkit import hermitian_eig  # noqa: F401

UNITARY_TOL = 1e-12
TRACE_TOL = 1e-9


def _check_unitaries(unitaries, nt):
    for u in unitaries:
        if u.shape != (nt, nt):
            raise PreconditionError(f"unitaries must be {nt} x {nt}, got shape {u.shape}")
        resid = np.linalg.norm(u.conj().T @ u - np.eye(nt))
        if resid > UNITARY_TOL:
            raise PreconditionError(f"matrix is not unitary (residual {resid:.3e})")


@dataclass
class QuantizedCodebook:
    b: int
    n1: int
    n2: int
    unitaries: list
    lambdas: list
    k: int
    nc: int
    nt: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise PreconditionError("codebook needs n1, n2 >= 1")
        if self.n1 * self.n2 != 2**self.b:
            raise PreconditionError(f"n1*n2 = {self.n1 * self.n2} must equal 2^B = {2 ** self.b}")
        if len(self.unitaries) != self.n1 or len(self.lambdas) != self.n2:
            raise PreconditionError("unitary/diagonal counts must match the split")
        self.unitaries = [np.asarray(u, dtype=np.complex128) for u in self.unitaries]
        self.lambdas = [np.asarray(l, dtype=float).reshape(-1) for l in self.lambdas]
        _check_unitaries(self.unitaries, self.nt)
        budget = self.nt * self.nc / self.k
        for lam in self.lambdas:
            if lam.size != self.nt:
                raise PreconditionError("power diagonals must have length Nt")
            if (lam < 0).any():
                raise PreconditionError("power diagonals must be non-negative")
            if lam.sum() > budget + TRACE_TOL:
                raise PreconditionError(
                    f"Tr(lambda) = {lam.sum()!r} exceeds the Nt*Nc/K = {budget!r} budget"
                )

    def lambda_matrix(self):
        """All diagonals stacked as an (N2, Nt) array."""
        return np.stack(self.lambdas)


def random_rank_two_lambdas(count, n2, nt, nc, k, rng):
    """count random sets of N2 rank-two diagonals.

    Each diagonal excites a uniformly chosen pair of modes with a uniform
    power split (w, 1-w) scaled to the full Nt*Nc/K budget.
    """
    if count < 1 or n2 < 1:
        raise PreconditionError("counts must be >= 1")
    if nt < 2:
        raise PreconditionError("rank-two allocations need Nt >= 2")
    budget = nt * nc / k
    pairs = list(itertools.combinations(range(nt), 2))
    sets = []
    for _ in range(count):
        diags = []
        for _ in range(n2):
            p0, p1 = pairs[int(rng.gen.integers(len(pairs)))]
            w = float(rng.gen.uniform())
            lam = np.zeros(nt)
            lam[p0] = w * budget
            lam[p1] = (1.0 - w) * budget
            diags.append(lam)
        sets.append(diags)
    return sets


def s_matrix(h, unitaries):
    """Per-mode received powers s[n, i, m] = ||H_n u_{i,m}||^2, shape (n, N1, Nt).

    h is an (n, Nr, Nt) channel stack and u_{i,m} column m of unitaries[i].
    Row (n, i) equals the squared column norms of Lh^(1/2) Uh^H U_i where
    H_n^H H_n = Uh Lh Uh^H; it sums to Tr(H_n^H H_n) and never exceeds the
    largest eigenvalue.
    """
    _check_unitaries(unitaries, h.shape[-1])
    return np.stack([(np.abs(h @ u) ** 2).sum(axis=1) for u in unitaries], axis=1)


def _best_codeword(obj):
    """Maximum over the trailing (N1, N2) axes with its indices; ties go to the smallest i, then j."""
    flat = obj.reshape(obj.shape[:-2] + (-1,))
    idx = flat.argmax(axis=-1)
    i, j = np.divmod(idx, obj.shape[-1])
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], i, j


def select_mi(smat, lambdas, rho, k, nt, evaluator):
    """Receiver rule: argmax over (i, j) of K * I(rho/Nt * Tr(H Q^{i,j} H^H)).

    smat (..., N1, Nt) comes from s_matrix and lambdas (..., N2, Nt) holds
    the power diagonals; leading axes broadcast, so a codebook shared by all
    trials passes its (N2, Nt) lambda_matrix(). Tr(H Q^{i,j} H^H) is
    sum_m s[i, m] * lambda_j[m]. rho is a scalar or a 1-D array of SNR
    points; an array puts a leading SNR axis on the results. Returns
    (values, i, j) over the SNR and leading axes.

    I is strictly increasing and t -> max(t, 0) * rho/Nt is non-decreasing
    for rho > 0, so a codeword of largest trace maximizes K * I at every
    positive SNR: the traces and their argmax are computed once, and K * I
    only at the selected trace. Ties go to the smallest i, then j. At
    rho = 0 every codeword gives I(0) = 0, and that full tie returns (0, 0).
    The Gaussian I is non-decreasing in floating point too, so the values
    equal the per-codeword maximum exactly. A discrete alphabet's table is
    non-decreasing only up to ripples of at most two ulps where
    a * d_min^2 > 140 (there I is within 1e-16 of ln M), so a value whose
    codewords reach that range can sit up to two ulps of K ln M below the
    per-codeword maximum.
    """
    traces, i, j = _best_codeword(np.einsum("...im,...jm->...ij", smat, lambdas))
    rho = np.asarray(rho, dtype=float)
    if rho.ndim > 1:
        raise PreconditionError(f"rho must be a scalar or a 1-D array, got shape {rho.shape}")
    rho = rho.reshape(rho.shape + (1,) * traces.ndim)
    values = k * evaluator.mi(np.maximum(traces, 0.0) * rho / nt)
    zero = rho == 0
    return values, np.where(zero, 0, i), np.where(zero, 0, j)


def select_snr(smat, lambdas, k, nt, nc):
    """Receiver rule: argmax over (i, j) of sum_m alpha[j, m] * s[i, m].

    alpha = lambda * K / (Nt*Nc) are the normalized power weights; shapes
    and the returned (values, i, j) are as in select_mi.
    """
    return _best_codeword(np.einsum("...im,...jm->...ij", smat, lambdas * (k / (nt * nc))))


def delta_snr(cb, batch, rho):
    """Per-symbol received-SNR gap rho*Nc/K * (lmax - selected weighted power), shape (n,).

    Uses the snr-rule selection and lmax = batch.eigvals[:, 0]; non-negative
    because lmax dominates every convex combination of the per-mode powers.
    """
    value = select_snr(s_matrix(batch.h, cb.unitaries), cb.lambda_matrix(), cb.k, cb.nt, cb.nc)[0]
    return rho * cb.nc / cb.k * (batch.eigvals[:, 0] - value)


def delta_mi(cb, batch, rho, evaluator):
    """Per-symbol mutual-information gap against the perfect-CSI benchmark, shape (n,).

    Uses the mi-rule selection. Normalizing the block gap by K puts this on
    the same per-symbol scale as delta_snr, which is what makes the bound
    delta_mi <= delta_snr hold for every realization (the MMSE never
    exceeds the unit prior variance).
    """
    best = perfect_csi_mi(batch.eigvals[:, 0], rho, cb.k, cb.nc, evaluator)
    smat = s_matrix(batch.h, cb.unitaries)
    return (best - select_mi(smat, cb.lambda_matrix(), rho, cb.k, cb.nt, evaluator)[0]) / cb.k


def to_text(cb):
    """Header 'b n1 n2 nt nc k', N1 unitary blocks of Nt lines, then N2 diagonal lines."""
    lines = [f"{cb.b} {cb.n1} {cb.n2} {cb.nt} {cb.nc} {cb.k}"]
    for u in cb.unitaries:
        lines.extend(matrix_to_lines(u))
    for lam in cb.lambdas:
        lines.extend(matrix_to_lines(lam[None, :].astype(complex)))
    return "\n".join(lines) + "\n"


def from_text(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty codebook text")
    try:
        b, n1, n2, nt, nc, k = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise ValueError(f"bad header line {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != n1 * nt + n2:
        raise ValueError(f"expected {n1 * nt + n2} body lines, got {len(body)}")
    unitaries = [matrix_from_lines(body[i * nt : (i + 1) * nt], nt, nt) for i in range(n1)]
    lambdas = []
    for j in range(n2):
        row = matrix_from_lines([body[n1 * nt + j]], 1, nt)[0]
        if np.abs(row.imag).max(initial=0.0) != 0.0:
            raise ValueError("power diagonals must be real")
        lambdas.append(row.real)
    return QuantizedCodebook(b=b, n1=n1, n2=n2, unitaries=unitaries, lambdas=lambdas, k=k, nc=nc, nt=nt)
