"""Minimal dense complex matrix kit.

Stacked Hermitian eigendecomposition with a fixed ordering/phase
convention, Haar-distributed random unitaries, complex Gaussian matrices,
and a deterministic streaming RNG that the Monte Carlo layers build on.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

HERMITIAN_TOL = 1e-9


class Rng:
    """Deterministic random stream backed by the Philox counter-based generator.

    A stream is identified by the pair (seed, stream); the value of draw n
    depends only on (seed, stream, n), never on what other streams have done.
    This makes per-trial substreams safe to evaluate in any order or on any
    number of workers. Callers partition the flat 64-bit stream namespace.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream = int(stream) & 0xFFFFFFFFFFFFFFFF
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"


@dataclass
class EigSystem:
    """Eigendecompositions of a stack of Hermitian matrices.

    values (..., n) are real and sorted non-increasing; column i of
    vectors[...] pairs with values[..., i]. In each eigenvector the entry of
    largest magnitude is real and non-negative (ties broken by lowest index).
    """

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(m):
    """Eigendecomposition of each Hermitian matrix in a (..., n, n) stack (n <= 8 in practice).

    Every matrix is symmetrized before factoring; a matrix further than
    1e-9 * ||M||_F from Hermitian is rejected. Each matrix is factored on
    its own, so entry t of a stacked call equals the call on matrix t alone.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise PreconditionError(f"hermitian_eig needs square matrices, got shape {m.shape}")
    mh = np.swapaxes(m, -1, -2).conj()
    scale = np.linalg.norm(m, axis=(-2, -1))
    herm_resid = np.linalg.norm(m - mh, axis=(-2, -1))
    bad = herm_resid > HERMITIAN_TOL * np.maximum(scale, 1e-300)
    if bad.any():
        idx = np.unravel_index(np.argmax(bad), bad.shape)
        raise PreconditionError(
            f"matrix is not Hermitian: ||M - M^H|| = {herm_resid[idx]:.3e} vs ||M|| = {scale[idx]:.3e}"
        )
    w, v = np.linalg.eigh((m + mh) / 2.0)
    w = w[..., ::-1].copy()
    v = v[..., ::-1].copy()
    # phase convention: largest-magnitude entry of each column real non-negative
    piv = np.take_along_axis(v, np.abs(v).argmax(axis=-2)[..., None, :], axis=-2)
    mag = np.abs(piv)
    nonzero = mag > 0
    v *= np.where(nonzero, piv.conj() / np.where(nonzero, mag, 1.0), 1.0)
    return EigSystem(values=w, vectors=v)


def haar_unitary(n, rng):
    """Haar-distributed n x n unitary.

    QR of an i.i.d. complex Gaussian matrix with the column phases fixed so
    that diag(R) is real positive, which makes the distribution exactly Haar.
    """
    if n < 1:
        raise PreconditionError("haar_unitary needs n >= 1")
    z = (rng.gen.standard_normal((n, n)) + 1j * rng.gen.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q


def complex_gaussian_matrix(rng, variances):
    """Matrix with independent CN(0, variances[i, j]) entries.

    Zero-variance positions come out exactly zero.
    """
    variances = np.asarray(variances, dtype=float)
    if (variances < 0).any() or not np.isfinite(variances).all():
        raise PreconditionError("variances must be finite and >= 0")
    z = rng.gen.standard_normal((2,) + variances.shape)
    return (z[0] + 1j * z[1]) * np.sqrt(variances / 2.0)


def format_complex(z):
    """Render one complex entry as a+bi with 17 significant digits (round-trips float64)."""
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_complex(token):
    """Inverse of format_complex."""
    if not token.endswith("i"):
        raise ValueError(f"bad complex token {token!r}")
    return complex(token[:-1] + "j")


def matrix_to_lines(m):
    return [" ".join(format_complex(z) for z in row) for row in np.asarray(m)]


def matrix_from_lines(lines, rows, cols):
    if len(lines) != rows:
        raise ValueError(f"expected {rows} matrix lines, got {len(lines)}")
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, line in enumerate(lines):
        toks = line.split()
        if len(toks) != cols:
            raise ValueError(f"expected {cols} entries on line {i}, got {len(toks)}")
        out[i] = [parse_complex(t) for t in toks]
    return out
