"""Scalar information kernel for the real channel y = sqrt(a)*x + n.

The noise n is real zero-mean Gaussian of variance 1/2, so for a Gaussian
input I(a) = 0.5*ln(1+2a) and mmse(a) = 1/(1+2a), and the derivative
relation dI/da = mmse(a) holds for every unit-variance input. Discrete
alphabets are handled by Gauss-Hermite quadrature of the output-density
mixture, with the order doubled until two successive evaluations agree.
"""

import math

import numpy as np

from .errors import InfeasibleError, PreconditionError

NOISE_ENTROPY = 0.5 * math.log(math.pi * math.e)  # h(n) for variance-1/2 real noise
LN2 = math.log(2.0)

# numpy's hermgauss overflows past order ~320; 256 already gives <= 2e-10
# absolute error on the mixtures handled here
_QUAD_CAP = 256
_QUAD_AGREEMENT = 1e-9
_gh_cache = {}


def _gh_nodes(order):
    """Gauss-Hermite nodes/weights normalized so E[g(mu + t)] = sum(w * g)."""
    if order not in _gh_cache:
        t, w = np.polynomial.hermite.hermgauss(order)
        _gh_cache[order] = (t, w / math.sqrt(math.pi))
    return _gh_cache[order]


class Constellation:
    """Unit-variance real input alphabet with uniform priors (or Gaussian)."""

    def __init__(self, kind, points=None):
        self.kind = kind
        if kind == "gaussian":
            self.points = None
            return
        points = np.asarray(points, dtype=float)
        mean = float(points.mean())
        meansq = float(np.mean(points**2))
        if abs(mean) > 1e-12 or abs(meansq - 1.0) > 1e-12:
            raise PreconditionError(
                f"alphabet must be zero mean unit variance, got mean {mean}, E[x^2] {meansq}"
            )
        self.points = points

    @classmethod
    def gaussian(cls):
        return cls("gaussian")

    @classmethod
    def bpsk(cls):
        return cls("bpsk", np.array([-1.0, 1.0]))

    @classmethod
    def pam(cls, m):
        """Equally spaced M-ary alphabet, zero mean, scaled to unit variance."""
        if m < 2:
            raise PreconditionError("PAM needs at least 2 levels")
        raw = np.arange(1 - m, m, 2, dtype=float)
        return cls(f"pam{m}", raw / math.sqrt(np.mean(raw**2)))

    @classmethod
    def from_name(cls, name):
        name = name.lower()
        if name == "gaussian":
            return cls.gaussian()
        if name == "bpsk":
            return cls.bpsk()
        if name.startswith("pam"):
            return cls.pam(int(name[3:]))
        raise PreconditionError(f"unknown constellation {name!r}")

    def __repr__(self):
        return f"Constellation({self.kind})"


class MiEvaluator:
    """Mutual information I(a) and MMSE(a) for one constellation.

    Immutable after construction; mi/mmse accept scalars or arrays of
    SNR-like arguments a >= 0 and evaluate elementwise.
    """

    def __init__(self, constellation, quad_order=64):
        self.constellation = constellation
        self.quad_order = int(quad_order)
        if not 2 <= self.quad_order <= _QUAD_CAP:
            raise PreconditionError(f"quadrature order must be in [2, {_QUAD_CAP}]")

    def mi(self, a):
        flat, shape = self._check_arg(a)
        if self.constellation.kind == "gaussian":
            out = 0.5 * np.log1p(2.0 * flat)
        else:
            out = self._discrete(flat, self._mi_at_order)
        return float(out[0]) if shape is None else out.reshape(shape)

    def mmse(self, a):
        flat, shape = self._check_arg(a)
        if self.constellation.kind == "gaussian":
            out = 1.0 / (1.0 + 2.0 * flat)
        else:
            out = self._discrete(flat, self._mmse_at_order)
        return float(out[0]) if shape is None else out.reshape(shape)

    def _check_arg(self, a):
        arr = np.asarray(a, dtype=float)
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise PreconditionError("mi/mmse need finite arguments a >= 0")
        return arr.reshape(-1), (None if arr.ndim == 0 else arr.shape)

    def _discrete(self, a, fn):
        order = self.quad_order
        prev = fn(a, order)
        while order < _QUAD_CAP:
            order *= 2
            cur = fn(a, order)
            if np.max(np.abs(cur - prev)) <= _QUAD_AGREEMENT:
                return cur
            prev = cur
        return prev

    def _mi_at_order(self, a, order):
        return self._quad_chunked(a, order, self._mi_chunk)

    def _mmse_at_order(self, a, order):
        return self._quad_chunked(a, order, self._mmse_chunk)

    def _quad_chunked(self, a, order, chunk_fn):
        pts = self.constellation.points
        # keep the (chunk, S, Q, S) work array around 2^22 doubles
        chunk = max(1, (1 << 22) // (pts.size * pts.size * order))
        out = np.empty_like(a)
        for lo in range(0, a.size, chunk):
            out[lo : lo + chunk] = chunk_fn(a[lo : lo + chunk], order)
        return out

    def _mixture_logits(self, a, order):
        """Log of prior * component density at the per-component quadrature nodes.

        Shapes: y is (A, S, Q); returned logits are (A, S, Q, S') over the
        mixture components S'. Densities are N(mu_s, 1/2) so
        ln p(y) = logsumexp(logits) - 0.5*ln(pi).
        """
        pts = self.constellation.points
        t, w = _gh_nodes(order)
        mu = np.sqrt(a)[:, None] * pts[None, :]  # (A, S)
        y = mu[:, :, None] + t[None, None, :]  # (A, S, Q)
        diff = y[:, :, :, None] - mu[:, None, None, :]  # (A, S, Q, S')
        return -(diff * diff) - math.log(pts.size), w

    def _mi_chunk(self, a, order):
        logits, w = self._mixture_logits(a, order)
        peak = logits.max(axis=-1)
        lnp = peak + np.log(np.exp(logits - peak[..., None]).sum(axis=-1)) - 0.5 * math.log(math.pi)
        h_y_comp = -(w[None, None, :] * lnp).sum(axis=-1)  # (A, S)
        return h_y_comp.mean(axis=-1) - NOISE_ENTROPY  # uniform priors

    def _mmse_chunk(self, a, order):
        pts = self.constellation.points
        logits, w = self._mixture_logits(a, order)
        peak = logits.max(axis=-1, keepdims=True)
        unnorm = np.exp(logits - peak)
        post_mean = (unnorm * pts).sum(axis=-1) / unnorm.sum(axis=-1)  # (A, S, Q)
        second = (w[None, None, :] * post_mean**2).sum(axis=-1).mean(axis=-1)
        return 1.0 - second


def block_mi(h, qsets, rho, nt, evaluator):
    """Per-block mutual information sum_k I(rho/Nt * Tr(H_n Q_nk H_n^H)) in nats, shape (n,).

    h is an (n, Nr, Nt) stack of channels and qsets an (n, K, Nt, Nt) stack
    of per-symbol covariances. Exact only when the underlying dispersion set
    satisfies the orthogonality constraint; callers pass covariances of
    verified sets or codebook covariances.
    """
    qsets = np.asarray(qsets, dtype=np.complex128)
    if qsets.ndim != 4 or qsets.shape[-2:] != (nt, nt):
        raise PreconditionError(f"covariance stack shape {qsets.shape} is not (n, K, {nt}, {nt})")
    if qsets.shape[1]:
        wmin = float(np.linalg.eigvalsh((qsets + np.swapaxes(qsets, -1, -2).conj()) / 2.0)[..., 0].min())
        if wmin < -1e-10:
            raise PreconditionError(f"covariance has eigenvalue {wmin:.3e} < -1e-10")
    args = np.einsum("nij,nkjl,nil->nk", h, qsets, h.conj()).real
    return evaluator.mi(np.maximum(args, 0.0) * rho / nt).sum(axis=-1)


def perfect_csi_mi(lam_max, rho, k, nc, evaluator):
    """Best achievable block mutual information with K symbols: K*I(rho*Nc/K * lmax).

    lam_max holds the largest eigenvalue of H^H H per trial, for instance a
    trial batch's eigvals[:, 0].
    """
    if k > 2 * nc:
        raise InfeasibleError(f"K = {k} exceeds the feasibility bound K <= 2*Nc = {2 * nc}")
    return k * evaluator.mi(rho * nc / k * lam_max)
