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
from .matkit import haar_unitary

GOC_TOL = 1e-10
POWER_TOL = 1e-9


@dataclass
class DispersionSet:
    """K dispersion matrices with their power budget Nt * Nc."""

    nt: int
    nc: int
    k: int
    mats: list

    def __post_init__(self):
        if len(self.mats) != self.k:
            raise PreconditionError(f"expected {self.k} matrices, got {len(self.mats)}")
        self.mats = [np.asarray(a, dtype=np.complex128) for a in self.mats]
        for a in self.mats:
            if a.shape != (self.nt, self.nc):
                raise PreconditionError(f"dispersion matrix shape {a.shape} != ({self.nt}, {self.nc})")
            if not np.isfinite(a).all():
                raise PreconditionError("dispersion matrices must be finite")
        power = self.total_power()
        if power > self.nt * self.nc + POWER_TOL:
            raise PreconditionError(
                f"total power {power!r} exceeds the Nt*Nc = {self.nt * self.nc} budget"
            )

    def total_power(self):
        return float(sum(np.vdot(a, a).real for a in self.mats))

    def covariances(self):
        """Per-symbol covariances Q_k = A_k A_k^H."""
        return [a @ a.conj().T for a in self.mats]


def check_goc(dset):
    """Report on the orthogonality constraint.

    Returns (ok, worst) where worst = max over pairs k != j of
    ||A_k A_j^H + A_j A_k^H||_F and ok is worst <= GOC_TOL. Vacuously true
    for K = 1.
    """
    worst = 0.0
    for a_idx in range(dset.k):
        for b_idx in range(a_idx + 1, dset.k):
            a, b = dset.mats[a_idx], dset.mats[b_idx]
            cross = a @ b.conj().T
            worst = max(worst, float(np.linalg.norm(cross + cross.conj().T)))
    return worst <= GOC_TOL, worst


def _verified(dset):
    """dset itself, once check_goc confirms the orthogonality its construction guarantees."""
    ok, worst = check_goc(dset)
    if not ok:
        raise PreconditionError(f"construction violates the GOC (residual {worst:.3e})")
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
    rows = np.zeros((k, nc), dtype=np.complex128)
    if k <= nc:
        rows[np.arange(k), np.arange(k)] = 1.0
    else:
        for r in range(k):
            kk = r + 1
            if kk % 2 == 1:
                rows[r, (kk + 1) // 2 - 1] = 1.0
            else:
                rows[r, kk // 2 - 1] = 1j
    return rows


def rank_one_set(u, k, nc):
    """All-K-symbols beamforming set A_k = sqrt(Nt*Nc/K) * u v_k.

    Every covariance is the same rank-one matrix (Nt*Nc/K) u u^H, total power
    is exactly Nt * Nc, and the orthogonality constraint holds by the choice
    of the v_k rows.
    """
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    nt = u.size
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise PreconditionError("beamforming vector must be unit norm")
    v = build_v_matrix(k, nc)
    scale = np.sqrt(nt * nc / k)
    mats = [scale * np.outer(u, v[i]) for i in range(k)]
    return _verified(DispersionSet(nt=nt, nc=nc, k=k, mats=mats))


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
    y = haar_unitary(nc, rng)
    mats = []
    for sym in range(k):
        cols = y[:, sym * r : (sym + 1) * r]  # Nc x r, disjoint across symbols
        a = np.zeros((nt, nc), dtype=np.complex128)
        a[modes, :] = np.sqrt(lam[modes])[:, None] * cols.conj().T
        mats.append(a)
    return _verified(DispersionSet(nt=nt, nc=nc, k=k, mats=mats))


def decoupling_residual(h, dset):
    """Worst pairwise overlap of the received waveforms H A_k for one Nr x Nt channel h.

    Returns max over k != j of |Re Tr(H A_k A_j^H H^H)|, which is zero for
    every H exactly when the orthogonality constraint holds.
    """
    if h.shape[1] != dset.nt:
        raise PreconditionError(f"channel has {h.shape[1]} tx antennas, set has {dset.nt}")
    waves = [h @ a for a in dset.mats]
    worst = 0.0
    for a_idx in range(dset.k):
        for b_idx in range(a_idx + 1, dset.k):
            overlap = np.vdot(waves[b_idx], waves[a_idx]).real
            worst = max(worst, abs(float(overlap)))
    return worst


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
    lines = [f"{dset.nt} {dset.nc} {dset.k}"]
    for a in dset.mats:
        lines.extend(matrix_to_lines(a))
    return "\n".join(lines) + "\n"
