"""Scalar information kernel for the real channel y = sqrt(a)*x + n.

The noise n is real zero-mean Gaussian of variance 1/2, so for a Gaussian
input I(a) = 0.5*ln(1+2a) and mmse(a) = 1/(1+2a), and the derivative
relation dI/da = mmse(a) holds for every unit-variance input. A discrete
alphabet is served from a table: I on knots uniform in u = ln a, with node
slopes dI/du = a*mmse(a), interpolated by cubic Hermite polynomials in u;
mmse is the interpolant's derivative divided by a. The node values come
from one fixed-order Gauss-Hermite quadrature of the output-density
mixture, which yields I and mmse from the same mixture logits; that
quadrature stays available as the reference the table is tested against.
"""

import functools
import math

import numpy as np

from .dispersion import check_symbols
from .errors import PreconditionError

NOISE_ENTROPY = 0.5 * math.log(math.pi * math.e)  # h(n) for variance-1/2 real noise
LN2 = math.log(2.0)

# numpy's hermgauss overflows past order ~320. On the table knots, order 256 is
# within 2.5e-10 / 3.7e-10 / 4.3e-10 of adaptive quadrature in mi (BPSK at
# a ~ 7.16, PAM4 at a ~ 35.8, PAM8 at a ~ 150) and within 1.9e-8 in mmse (BPSK
# at a ~ 6.06); order 128 differs from it by up to 4.4e-8 in mi, 1.2e-6 in mmse.
_QUAD_ORDER = 256
# doubles in one (S', A, S, Q) quadrature work array; the joint I/mmse pass
# holds several of them at once
_QUAD_WORK = 1 << 17

# Interpolation table: knot spacing in ln a (the cubic's error scales with its
# fourth power), the first knot (below it I = a - a^2 and mmse = 1 - 2a, off
# by O(a^3) and O(a^2)) and a*d_min^2 at the last knot (above it the symbols
# are told apart with error probability ~exp(-a*d_min^2/4), so I = ln M and
# mmse = 0).
_TABLE_SPACING = 1.0 / 90.0
_TABLE_A_MIN = 1e-6
_TABLE_SATURATION = 200.0
_table_cache = {}


@functools.cache
def _gh_nodes():
    """Gauss-Hermite nodes/weights normalized so E[g(mu + t)] = sum(w * g)."""
    t, w = np.polynomial.hermite.hermgauss(_QUAD_ORDER)
    return t, w / math.sqrt(math.pi)


def _gaussian_mi(a, out=None):
    """0.5 * ln(1 + 2a), each step computed in out when it is given."""
    out = np.multiply(2.0, a, out=out)
    np.log1p(out, out=out)
    return np.multiply(0.5, out, out=out)


def _gaussian_mmse(a):
    return 1.0 / (1.0 + 2.0 * a)


class _Table:
    """Cubic Hermite interpolant of I(a) in u = ln a, exact at the knots."""

    def __init__(self, knots, mi, mmse, ln_m):
        self.knots = knots
        self.u = np.log(knots)
        self.mi_knots = mi
        self.mmse_knots = mmse
        self.ln_m = ln_m
        # I(u_i + s) = mi_i + s*(slope_i + s*(c2_i + s*c3_i)); the zero entry after the
        # last knot makes that knot an interval of its own, so it is exact too
        self.slope = knots * mmse
        h = np.diff(self.u)
        delta = np.diff(mi) / h
        self.c2 = np.append((3.0 * delta - 2.0 * self.slope[:-1] - self.slope[1:]) / h, 0.0)
        self.c3 = np.append((self.slope[:-1] + self.slope[1:] - 2.0 * delta) / (h * h), 0.0)

    def _locate(self, a):
        """Interval index, a clipped to the first knot, and s = ln a - u_i."""
        i = np.clip(np.searchsorted(self.knots, a, side="right") - 1, 0, self.knots.size - 1)
        x = np.maximum(a, self.knots[0])
        return i, x, np.log(x) - self.u[i]

    def mi(self, a):
        i, _, s = self._locate(a)
        inner = self.mi_knots[i] + s * (self.slope[i] + s * (self.c2[i] + s * self.c3[i]))
        return np.where(a < self.knots[0], a - a * a, np.where(a > self.knots[-1], self.ln_m, inner))

    def mmse(self, a):
        # dI/du / a, written so that a knot returns its own mmse value exactly
        i, x, s = self._locate(a)
        inner = self.mmse_knots[i] * (self.knots[i] / x) + s * (2.0 * self.c2[i] + 3.0 * s * self.c3[i]) / x
        return np.where(a < self.knots[0], 1.0 - 2.0 * a, np.where(a > self.knots[-1], 0.0, inner))


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
        if (np.diff(np.sort(points)) == 0).any():
            raise PreconditionError("alphabet points must be distinct")
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
    SNR-like arguments a >= 0 and evaluate elementwise. A discrete alphabet
    builds its table on the first call; every evaluator of the same points
    shares it.
    """

    def __init__(self, constellation):
        self.constellation = constellation

    def mi(self, a, out=None):
        """I(a) in nats: closed form for Gaussian input, the alphabet's table otherwise.

        Given out, an array of a's shape (it may be a itself), the values are
        written to it and out is returned. The Gaussian closed form is then
        computed in out; the table's values are copied into it.
        """
        return self._apply(a, _gaussian_mi, lambda x: self._table().mi(x), out)

    def mmse(self, a):
        """mmse(a) = dI/da: closed form for Gaussian input, the table's derivative otherwise."""
        return self._apply(a, _gaussian_mmse, lambda x: self._table().mmse(x))

    def reference_mi(self, a, out=None):
        """I(a) without the table: for a discrete alphabet, the quadrature the table is built from.

        out is as in mi, so either method can stand in for the other.
        """
        return self._apply(a, _gaussian_mi, lambda x: self._quadrature(x)[0], out)

    def reference_mmse(self, a):
        """mmse(a) without the table, as reference_mi."""
        return self._apply(a, _gaussian_mmse, lambda x: self._quadrature(x)[1])

    def _apply(self, a, gaussian, discrete, out=None):
        arr = np.asarray(a, dtype=float)
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise PreconditionError("mi/mmse need finite arguments a >= 0")
        if out is not None and out.shape != arr.shape:
            raise PreconditionError(f"out has shape {out.shape}, the argument {arr.shape}")
        if self.constellation.kind == "gaussian" and out is not None:
            return gaussian(arr, out)
        flat = arr.reshape(-1)
        values = gaussian(flat) if self.constellation.kind == "gaussian" else discrete(flat)
        if out is None:
            return float(values[0]) if arr.ndim == 0 else values.reshape(arr.shape)
        out[...] = values.reshape(arr.shape)
        return out

    def _table(self):
        """The alphabet's interpolation table, built from the quadrature on first use."""
        pts = self.constellation.points
        key = pts.tobytes()
        if key not in _table_cache:
            a_max = _TABLE_SATURATION / float(np.diff(np.sort(pts)).min()) ** 2
            count = math.ceil(math.log(a_max / _TABLE_A_MIN) / _TABLE_SPACING) + 1
            knots = np.exp(np.linspace(math.log(_TABLE_A_MIN), math.log(a_max), count))
            _table_cache[key] = _Table(knots, *self._quadrature(knots), math.log(pts.size))
        return _table_cache[key]

    def _quadrature(self, a):
        """(I(a), mmse(a)) of the discrete alphabet by Gauss-Hermite quadrature.

        Each chunk takes one pass over the logits ln(prior * component density)
        at the per-component nodes, shaped (S', A, S, Q) with the mixture
        components S' leading so that reductions over them are elementwise
        across whole slabs. Densities are N(mu_s, 1/2), so
        ln p(y) = logsumexp(logits) - 0.5*ln(pi).
        """
        pts = self.constellation.points
        t, w = _gh_nodes()
        chunk = max(1, _QUAD_WORK // (pts.size * pts.size * t.size))
        mi, mmse = np.empty_like(a), np.empty_like(a)
        for lo in range(0, a.size, chunk):
            part = slice(lo, lo + chunk)
            mu = np.sqrt(a[part])[:, None] * pts[None, :]  # (A, S)
            y = mu[:, :, None] + t[None, None, :]  # (A, S, Q)
            diff = y[None] - mu.T[:, :, None, None]  # (S', A, S, Q)
            logits = -(diff * diff) - math.log(pts.size)
            peak = logits.max(axis=0)
            unnorm = np.exp(logits - peak)
            total = unnorm.sum(axis=0)
            lnp = peak + np.log(total) - 0.5 * math.log(math.pi)
            h_y_comp = -(w[None, None, :] * lnp).sum(axis=-1)  # (A, S)
            mi[part] = h_y_comp.mean(axis=-1) - NOISE_ENTROPY  # uniform priors
            post_mean = (unnorm * pts[:, None, None, None]).sum(axis=0) / total  # (A, S, Q)
            mmse[part] = 1.0 - (w[None, None, :] * post_mean**2).sum(axis=-1).mean(axis=-1)
        return mi, mmse


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
    check_symbols(k, nc)
    return k * evaluator.mi(rho * nc / k * lam_max)
