"""Linear-dispersion code sets under the generalized orthogonality constraint.

A code set holds K dispersion matrices A_k of shape Nt x Nc spreading K real
symbols over a coherence block. The orthogonality constraint
A_k A_j^H + A_j A_k^H = 0 (k != j) is what makes joint ML decoding factor
into per-symbol decoding; constructions here verify it numerically.
to_text writes a set in the plain-text form that `construct` emits.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, PreconditionError
from .matkit import haar_unitaries

GOC_TOL = 1e-10
POWER_TOL = 1e-9


@dataclass
class DispersionSet:
    """K >= 1 dispersion matrices as one (K, Nt, Nc) complex array, with power budget Nt * Nc.

    mats may also be a stack of sets, (..., K, Nt, Nc): every set is
    checked, and total_power and check_goc report per set. One set is the
    stack of no leading axes. K, Nt and Nc are read off the last three axes.
    """

    mats: np.ndarray

    def __post_init__(self):
        self.mats = np.asarray(self.mats, dtype=np.complex128)
        if self.mats.ndim < 3 or self.k < 1:
            raise PreconditionError(f"dispersion set shape {self.mats.shape} is not (K, Nt, Nc) with K >= 1")
        if not np.isfinite(self.mats).all():
            raise PreconditionError("dispersion matrices must be finite")
        power = float(np.max(self.total_power()))
        if power > self.nt * self.nc + POWER_TOL:
            raise PreconditionError(f"total power {power!r} exceeds the Nt*Nc = {self.nt * self.nc} budget")

    @property
    def k(self):
        return self.mats.shape[-3]

    @property
    def nt(self):
        return self.mats.shape[-2]

    @property
    def nc(self):
        return self.mats.shape[-1]

    def total_power(self):
        """sum_k ||A_k||_F^2, added up in symbol order: a float for one set, else one per set of the stack."""
        flat = self.mats.reshape(self.mats.shape[:-3] + (self.k, -1))
        power = np.cumsum(_row_dots(flat.conj(), flat).real, axis=-1)[..., -1]
        return float(power) if self.mats.ndim == 3 else power

    def covariances(self):
        """The (K, Nt, Nt) stack of per-symbol covariances Q_k = A_k A_k^H."""
        return self.mats @ self.mats.conj().swapaxes(-1, -2)


def _row_dots(x, y):
    """sum_i x[..., i] * y[..., i] per row of two (..., n) arrays, each by numpy's 1-D dot.

    np.vdot and np.linalg.norm use that dot too, so stacked checks round as per-pair ones.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def check_goc(dset):
    """Report on the orthogonality constraint.

    Returns (ok, worst) where worst = max over pairs k < j of
    ||A_k A_j^H + A_j A_k^H||_F and ok is worst <= GOC_TOL. Vacuously true
    for K = 1. For a stack of sets both are arrays over the stack axes, one
    entry per set, each the one-set value bit for bit.
    """
    ks, js = np.triu_indices(dset.k, 1)
    mats = dset.mats
    cross = mats[..., ks, :, :] @ mats[..., js, :, :].conj().swapaxes(-1, -2)
    sums = (cross + cross.conj().swapaxes(-1, -2)).reshape(mats.shape[:-3] + (ks.size, dset.nt * dset.nt))
    norms = np.sqrt(_row_dots(sums.real, sums.real) + _row_dots(sums.imag, sums.imag))
    worst = norms.max(axis=-1, initial=0.0)
    if mats.ndim == 3:
        worst = float(worst)
    return worst <= GOC_TOL, worst


def _verified(dset):
    """dset itself, once check_goc confirms the orthogonality its construction guarantees, set by set."""
    ok, worst = check_goc(dset)
    if not np.all(ok):
        raise PreconditionError(f"construction violates the GOC (residual {np.max(worst):.3e})")
    return dset


def check_symbols(k, nc):
    """Reject K or Nc below 1, and K above the feasibility bound K <= 2*Nc of Proposition 1."""
    if k < 1 or nc < 1:
        raise PreconditionError(f"K = {k} and Nc = {nc} must both be >= 1")
    if k > 2 * nc:
        raise InfeasibleError(f"K = {k} exceeds the feasibility bound K <= 2*Nc = {2 * nc}")


def v_residual(rows):
    """Distance of V V^H from I + i*X, X real skew-symmetric, for the (K, Nc) rows of V.

    V V^H is Hermitian, so its imaginary part is always skew-symmetric and
    the distance is ||Re(V V^H) - I||_F.
    """
    return np.linalg.norm((rows @ rows.conj().T).real - np.eye(len(rows)))


def build_v_matrix(k, nc):
    """The (K, Nc) unit-norm rows of a V with V V^H = I + i*X, X real skew-symmetric.

    For k <= nc the rows are k distinct standard basis vectors, so V V^H = I
    exactly. Above that the doubled pattern e_1, i*e_1, e_2, i*e_2, ...
    truncated to k rows satisfies the condition, and a feasible V exists if
    and only if K <= 2*Nc. Every entry is 0, 1 or i, so v_residual is
    exactly 0.
    """
    check_symbols(k, nc)
    r = np.arange(k)
    rows = np.zeros((k, nc), dtype=np.complex128)
    if k <= nc:
        rows[r, r] = 1.0
    else:
        rows[r, r // 2] = np.where(r % 2, 1j, 1.0)
    return rows


def rank_one_set(u, k, nc):
    """All-K-symbols beamforming set A_k = sqrt(Nt*Nc/K) * u v_k; for an (n, Nt) stack of beams u, a stack of sets.

    Every covariance is the same rank-one matrix (Nt*Nc/K) u u^H, total power
    is exactly Nt * Nc, and the orthogonality constraint holds by the choice
    of the v_k rows. Every beam must have unit norm within 1e-12, and each
    set of a stack is made and checked as it would be alone, bit for bit.
    """
    u = np.asarray(u, dtype=np.complex128)
    nt = u.shape[-1]
    norms = np.sqrt(_row_dots(u.real, u.real) + _row_dots(u.imag, u.imag))
    if (np.abs(norms - 1.0) > 1e-12).any():
        raise PreconditionError("beamforming vector must be unit norm")
    v = build_v_matrix(k, nc)
    scale = np.sqrt(nt * nc / k)
    mats = scale * (u[..., None, :, None] * v[:, None, :])
    return _verified(DispersionSet(mats))


def statistical_set(lambda_diag, k, nc, rng):
    """Code set whose every covariance equals diag(lambda_diag).

    With r positive modes the construction assigns each symbol r distinct
    columns of one shared Haar unitary of size Nc, which needs r*K <= Nc
    (pairs then satisfy A_k A_j^H = 0, stronger than the orthogonality
    constraint). Feasibility in the wider Nc < r*K <= 2*Nc range is not
    constructed here.
    """
    check_symbols(k, nc)
    lam = np.asarray(lambda_diag, dtype=float).reshape(-1)
    nt = lam.size
    if not np.isfinite(lam).all():
        raise PreconditionError(f"lambda diagonal must be finite, got {lam}")
    if (lam < 0).any():
        raise PreconditionError("lambda diagonal must be non-negative")
    if abs(lam.sum() - nt * nc / k) > POWER_TOL:
        raise PreconditionError(
            f"Tr(lambda) = {lam.sum()!r} must equal Nt*Nc/K = {nt * nc / k!r}"
        )
    modes = np.flatnonzero(lam > 0)
    r = modes.size
    if r * k > nc:
        raise InfeasibleError(
            f"r*K = {r * k} exceeds Nc = {nc}; only the r*K <= Nc construction is implemented"
        )
    # symbol s takes columns s*r .. (s+1)*r - 1 of the unitary, disjoint across symbols
    cols = haar_unitaries(1, nc, rng)[0, :, : k * r].T.conj().reshape(k, r, nc)
    mats = np.zeros((k, nt, nc), dtype=np.complex128)
    mats[:, modes, :] = np.sqrt(lam[modes])[:, None] * cols
    return _verified(DispersionSet(mats))


def decoupling_residual(h, dset):
    """Worst pairwise overlap of the received waveforms H A_k for each channel of an (n, Nr, Nt) stack.

    Entry t of the (n,) result is max over k != j of |Re Tr(H_t A_k A_j^H H_t^H)|,
    which is zero for every H exactly when the orthogonality constraint holds
    (0 for K = 1). The pairs k < j are indexed once for the whole stack.
    """
    if h.ndim != 3 or h.shape[2] != dset.nt:
        raise PreconditionError(f"channel stack must be (n, Nr, {dset.nt}), got shape {h.shape}")
    ks, js = np.triu_indices(dset.k, 1)
    n, length = len(h), h.shape[1] * dset.nc
    waves = (h[:, None] @ dset.mats).reshape(n, dset.k, length)
    dots = _row_dots(waves[:, js].reshape(-1, length).conj(), waves[:, ks].reshape(-1, length))
    return np.abs(dots.real.reshape(n, ks.size)).max(axis=1, initial=0.0)


def format_complex(z):
    """Render one complex entry as a+bi with 17 significant digits (round-trips float64)."""
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def matrix_to_lines(m):
    return [" ".join(format_complex(z) for z in row) for row in np.asarray(m)]


def to_text(dset):
    """Plain-text form: header 'nt nc k', then K blocks of Nt lines.

    Entries render as a+bi with 17 significant digits, enough to read every
    float64 back exactly.
    """
    lines = [f"{dset.nt} {dset.nc} {dset.k}", *matrix_to_lines(dset.mats.reshape(-1, dset.nc))]
    return "\n".join(lines) + "\n"
