"""Minimal dense complex matrix kit.

The top eigenpair of each matrix of a Hermitian stack, with a fixed phase
convention, stacks of Haar-distributed unitaries, the one unitarity check
(of a whole stack at once, which haar_unitaries applies to each stack it
makes), and the deterministic Philox substreams the Monte Carlo layers
build on: Rng for one-off streams and substream_normals, which fills one
row per substream of a window by re-keying a single generator. Channel
entries are made from standard normals by channel.from_normals.
"""

import math

import numpy as np

from .errors import PreconditionError

HERMITIAN_TOL = 1e-9
UNITARY_TOL = 1e-12
# Philox key words are 64 bits wide: seeds and stream indices are taken mod KEY_LIMIT
KEY_LIMIT = 1 << 64


def _stream_key(seed, stream):
    """Philox key words of substream (seed, stream)."""
    return int(seed) % KEY_LIMIT, int(stream) % KEY_LIMIT


class Rng:
    """Deterministic random stream backed by the Philox counter-based generator.

    A stream is identified by the pair (seed, stream); the value of draw n
    depends only on (seed, stream, n), never on what other streams have done.
    This makes per-trial substreams safe to evaluate in any order or on any
    number of workers. Callers partition the flat 64-bit stream namespace.
    """

    def __init__(self, seed, stream=0):
        self.seed, self.stream = _stream_key(seed, stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"


def substream_normals(seed, first_stream, n, shape):
    """(n,) + shape standard normals; row i is drawn from substream (seed, first_stream + i).

    Row i equals Rng(seed, first_stream + i).gen.standard_normal(shape) bit
    for bit. Philox is counter-based, so a fresh stream is only a key with
    the counter and the output buffer cleared: one generator is re-keyed
    per row instead of being built per row. The rows are filled through a
    flat (n, prod(shape)) view, in the same C order.
    """
    z = np.empty((n, math.prod(shape)))
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    normal = np.random.Generator(bitgen).standard_normal
    cleared = (0, 0, 0, 0)
    words = {"counter": cleared, "key": None}
    state = {"bit_generator": "Philox", "state": words, "buffer": cleared,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    seed, first_stream = _stream_key(seed, first_stream)
    for i, row in enumerate(z):
        words["key"] = (seed, (first_stream + i) % KEY_LIMIT)
        bitgen.state = state
        normal(out=row)
    return z.reshape((n, *shape))


def hermitian_eig(m):
    """Top eigenpair (values (...), vectors (..., n)) of each Hermitian matrix in a (..., n, n) stack.

    Every matrix is symmetrized before factoring; a matrix further than
    1e-9 * ||M||_F from Hermitian is rejected. Each matrix is factored on
    its own, so entry t of a stacked call equals the call on matrix t alone.
    vectors[...] is a unit eigenvector of the largest eigenvalue values[...];
    its entry of largest magnitude is real and non-negative (ties broken by
    lowest index).
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
    top = v[..., -1]
    piv = np.take_along_axis(top, np.abs(top).argmax(axis=-1)[..., None], axis=-1)
    mag = np.abs(piv)
    nonzero = mag > 0
    return w[..., -1], top * np.where(nonzero, piv.conj() / np.where(nonzero, mag, 1.0), 1.0)


def check_unitary(u, n, name):
    """Reject an (..., n, n) stack u unless every ||U^H U - I||_F <= UNITARY_TOL.

    One matrix is the stack of no leading axes, and an empty stack passes.
    The message names the largest residual, and a NaN residual fails too.
    """
    if u.shape[-2:] != (n, n):
        raise PreconditionError(f"{name} must be {n} x {n}, got shape {u.shape}")
    resid = np.linalg.norm(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(n), axis=(-2, -1)).max(initial=0.0)
    if not resid <= UNITARY_TOL:
        raise PreconditionError(f"{name} is not unitary (residual {resid:.3e})")


def haar_unitaries(count, n, rng):
    """(count, n, n) stack of independent Haar-distributed n x n unitaries.

    QR of i.i.d. complex Gaussian matrices with the column phases fixed so
    that diag(R) is real positive, which makes the distribution exactly Haar.
    Matrix t takes the real then the imaginary (n, n) normals after those of
    matrix t - 1, so the stack equals count successive one-matrix draws.
    The stack passes check_unitary here, once, so its users need not check
    it again.
    """
    if n < 1:
        raise PreconditionError("haar_unitaries needs n >= 1")
    z = rng.gen.standard_normal((count, 2, n, n))
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[:, None, :]
    check_unitary(u, n, "Haar unitaries")
    return u
