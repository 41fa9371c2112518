"""Scalar information kernel for the real channel y = sqrt(a)*x + n.

The noise n is real zero-mean Gaussian of variance 1/2, so for a Gaussian
input I(a) = 0.5*ln(1+2a) and mmse(a) = 1/(1+2a), and the derivative
relation dI/da = mmse(a) holds for every unit-variance input. A discrete
alphabet is served from a table: I on knots uniform in u = ln a, with node
slopes dI/du = a*mmse(a), interpolated by cubic Hermite polynomials in u;
mmse is the interpolant's derivative divided by a. The node values come
from one fixed-order Gauss-Hermite quadrature of the output-density
mixture, which yields I and mmse from the same mixture weights; that
quadrature stays available as the reference the table is tested against.
Its order-256 rule is tabulated in _hermite_rule, loaded with the first
table, so building a table takes no dense linear algebra; the derivation
of the rule (an eigenproblem of the Hermite Jacobi matrix) is kept in the
tests, which check the literals against it.

The quadrature integrates I(a) = ln M - E[ln sum_s' exp(t^2 - (t + mu_s -
mu_s')^2)] and mmse(a) = 1 - E[E[x | y]^2] over t ~ N(0, 1/2) for each
component s. It keeps only the nodes that can reach a double: node q adds
at most w_q * (t_q^2 + ln M + max x^2) to either sum, and the outer nodes
whose bounds total below _QUAD_DROP are left out. Every alphabet
Constellation makes (BPSK and PAM-M) is zero mean, unit variance and
mirror-symmetric by construction, and both integrands of components s and
M-1-s are equal by that symmetry, so only the components s < ceil(M/2) are
integrated, with weight 2 (the middle point of an odd M has weight 1).
"""

import math
import re

import numpy as np

from .dispersion import check_symbols
from .errors import PreconditionError

LN2 = math.log(2.0)

# The order of the tabulated rule of _gh_nodes (its derivation, kept in the
# tests, overflows in the weights 1 / (n p_{n-1}^2) past order ~370). On the table
# knots, order 256 is within 2.5e-10 / 3.7e-10 / 4.3e-10 of adaptive
# quadrature in mi (BPSK at a ~ 7.16, PAM4 at a ~ 35.8, PAM8 at a ~ 150) and
# within 1.9e-8 in mmse (BPSK at a ~ 6.06); order 128 differs from it by up
# to 4.4e-8 in mi, 1.2e-6 in mmse. Of its 256 nodes the quadrature keeps the
# 98 with |t| < 6.9 (BPSK through PAM8): the outer pairs it drops would add at
# most _QUAD_DROP to I and to mmse together, about 1e-4 of an ulp of ln M and
# of 1, from which the quadrature subtracts its sums.
_QUAD_ORDER = 256
_QUAD_DROP = 1e-20
# doubles in the (S', A, S, Q) quadrature work array; every knot is integrated
# on its own, so the tables are the same bits at any size (tested at 2^12, 2^15
# and 2^17, where a PAM8 chunk holds 1, 10 and 41 knots)
_QUAD_WORK = 1 << 15

# Interpolation table: knot spacing in ln a (the cubic's error scales with its
# fourth power), the first knot (below it I = a - a^2 and mmse = 1 - 2a, off
# by O(a^3) and O(a^2)) and a*d_min^2 at the last knot (above it the symbols
# are told apart with error probability ~exp(-a*d_min^2/4), so I = ln M and
# mmse = 0).
_TABLE_SPACING = 1.0 / 90.0
_TABLE_A_MIN = 1e-6
_TABLE_SATURATION = 200.0
_table_cache = {}
# largest PAM alphabet: a table build holds M * ceil(M/2) * (about 98 nodes) doubles per
# knot, 1.6 MB at 64 levels and about 0.4 GB at 1000
PAM_MAX_LEVELS = 64


def _gh_nodes():
    """Gauss-Hermite nodes/weights normalized so E[g(mu + t)] = sum(w * g), nodes increasing.

    The order-_QUAD_ORDER rule is tabulated: _hermite_rule holds its 128
    positive nodes and weights as decimal literals, mirrored here, so a
    process's first table build factors no Jacobi matrix (that eigenproblem
    and its matrix product were the largest memory step of a discrete-alphabet
    process). The derivation the literals come from is kept in
    tests/test_infotheory.py, which checks them against it. The literals are
    imported here, on the way to the first table, so a process that builds
    no table never loads them.
    """
    from ._hermite_rule import NODES, WEIGHTS

    return np.concatenate([-NODES[::-1], NODES]), np.concatenate([WEIGHTS[::-1], WEIGHTS])


def _quadrature_nodes(bound):
    """The kept nodes and weights: all but the outer pairs whose w * (t^2 + bound) sum below _QUAD_DROP."""
    t, w = _gh_nodes()
    outer = 2.0 * np.cumsum((w * (t * t + bound))[: t.size // 2])
    drop = int(np.searchsorted(outer, _QUAD_DROP))
    return t[drop : t.size - drop], w[drop : t.size - drop]


def _gaussian_mi(a):
    return 0.5 * np.log1p(2.0 * a)


def _gaussian_mmse(a):
    return 1.0 / (1.0 + 2.0 * a)


class _Table:
    """Cubic Hermite interpolant of I(a) in u = ln a, exact at the knots, non-decreasing."""

    def __init__(self, knots, mi, mmse, ln_m):
        self.knots = knots
        self.u = np.log(knots)
        self.step = (self.u[-1] - self.u[0]) / (knots.size - 1)
        # I is non-decreasing and at most ln M; the stored knots are made so exactly
        mi = np.minimum(np.maximum.accumulate(mi), ln_m)
        self.mi_knots = mi
        # 1 - E[E[x | y]^2] cancels to -2.2e-16 at some saturated knots; an mmse is never negative
        self.mmse_knots = np.maximum(mmse, 0.0)
        self.ln_m = ln_m
        # I(u_i + s) = mi_i + s*(slope_i + s*(c2_i + s*c3_i)); the zero entry after the
        # last knot makes that knot an interval of its own, so it is exact too. The
        # cubic with node slopes m0, m1 is monotone when both are >= 0 and
        # m0^2 + m1^2 <= 9 delta^2 (Fritsch-Carlson); an interval that fails this,
        # which happens only where I is within ulps of ln M and the node slopes are
        # rounding noise, is linear, and mmse holds its left knot's a*mmse there
        h = np.diff(self.u)
        delta = np.diff(mi) / h
        m0, m1 = knots[:-1] * mmse[:-1], knots[1:] * mmse[1:]
        cubic = (m0 >= 0) & (m1 >= 0) & (m0 * m0 + m1 * m1 <= 9.0 * delta * delta)
        self.slope = np.append(np.where(cubic, m0, delta), 0.0)
        self.c2 = np.append(np.where(cubic, (3.0 * delta - 2.0 * m0 - m1) / h, 0.0), 0.0)
        self.c3 = np.append(np.where(cubic, (m0 + m1 - 2.0 * delta) / (h * h), 0.0), 0.0)

    def _locate(self, a):
        """Interval index, a clipped to the first knot, and s = ln a - u_i.

        The knots are uniform in u up to rounding, so the index is read off
        ln x with the grid's own step and corrected by one compare against
        the knots each way; it equals searchsorted(knots, a, "right") - 1
        clipped to the knots.
        """
        x = np.maximum(a, self.knots[0])
        ln_x = np.log(x)
        i = np.clip(np.floor((ln_x - self.u[0]) / self.step), 0, self.knots.size - 2).astype(np.intp)
        i -= self.knots[i] > x
        i += self.knots[i + 1] <= x
        return i, x, ln_x - self.u[i]

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
    """Real input alphabet with uniform priors, or Gaussian input, made from its name.

    The name, in any case, is gaussian (no points), bpsk ([-1, 1]) or pam<M>,
    M in ASCII digits with 2 <= M <= PAM_MAX_LEVELS: M equally spaced levels
    scaled to unit variance, of kind f"pam{M}". Any other name is rejected.
    Every discrete alphabet is therefore zero mean, unit variance and
    mirror-symmetric by construction; the quadrature relies on the symmetry
    to integrate only half of its components.
    """

    def __init__(self, name):
        self.kind, self.points = name.lower(), None
        pam = re.fullmatch(r"pam([0-9]+)", self.kind)
        if self.kind == "bpsk":
            self.points = np.array([-1.0, 1.0])
        elif pam:
            # a count too long to be in range is rejected on its length, before int reads it
            digits = pam[1].lstrip("0") or "0"
            if len(digits) > len(str(PAM_MAX_LEVELS)) or not 2 <= int(digits) <= PAM_MAX_LEVELS:
                raise PreconditionError(f"PAM needs 2 to {PAM_MAX_LEVELS} levels, got {digits}")
            m = int(digits)
            raw = np.arange(1 - m, m, 2, dtype=float)
            self.kind, self.points = f"pam{m}", raw / math.sqrt(np.mean(raw**2))
        elif self.kind != "gaussian":
            raise PreconditionError(
                f"unknown constellation {name!r}; known: gaussian, bpsk, pam<M> for 2 <= M <= {PAM_MAX_LEVELS}")

    @classmethod
    def gaussian(cls):
        return cls("gaussian")

    @classmethod
    def bpsk(cls):
        return cls("bpsk")

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

    def mi(self, a):
        """I(a) in nats: closed form for Gaussian input, the alphabet's table otherwise."""
        return self._apply(a, _gaussian_mi, lambda x: self._table().mi(x))

    def mmse(self, a):
        """mmse(a) = dI/da: closed form for Gaussian input, the table's derivative otherwise."""
        return self._apply(a, _gaussian_mmse, lambda x: self._table().mmse(x))

    def reference_mi(self, a):
        """I(a) without the table: for a discrete alphabet, the quadrature the table is built from."""
        return self._apply(a, _gaussian_mi, lambda x: self._quadrature(x)[0])

    def _apply(self, a, gaussian, discrete):
        arr = np.asarray(a, dtype=float)
        # min and max propagate NaN, so these two passes reject NaN, inf and negative arguments
        if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
            raise PreconditionError("mi/mmse need finite arguments a >= 0")
        flat = arr.reshape(-1)
        values = gaussian(flat) if self.constellation.kind == "gaussian" else discrete(flat)
        return float(values[0]) if arr.ndim == 0 else values.reshape(arr.shape)

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

        Each chunk makes one pass over the squared distances (t + mu_s - mu_s')^2
        of the kept nodes t, in one (S', A, S, Q) work array, with the mixture
        components S' leading so that reductions over them are elementwise
        across whole slabs; S holds the integrated half of the components. The
        distances are subtracted from their least and exponentiated in place,
        and the posterior mean is one matrix product over S'. The work array
        and the three (A, S, Q) arrays of the least distance, the total and the
        posterior mean are allocated once and every step writes into them.
        numpy's iterator still allocates its buffers, at most np.getbufsize()
        = 8192 elements per operand, in the two steps that broadcast the nodes:
        under numpy 2.4.6, tracemalloc reads 128 KiB for the distances and up
        to 64 KiB for the excess in each chunk, beside a work array near
        256 KiB. With the own component s' = s the distance is t^2 exactly, so
        the integrand of I, t^2 - least + ln(sum of the exponentials), is never
        negative.
        """
        pts = np.sort(self.constellation.points)
        m = pts.size
        t, w = _quadrature_nodes(math.log(m) + float(np.max(pts * pts)))
        half = (m + 1) // 2
        share = np.full(half, 2.0 / m)  # each component of the integrated half stands for its mirror too
        if m % 2:
            share[-1] = 1.0 / m
        gap = pts[:half] - pts[:, None]  # (S', S): x_s - x_s'
        tsq = t * t
        chunk = max(1, _QUAD_WORK // (m * half * t.size))
        cells = min(chunk, a.size) * half * t.size  # (A, S, Q) of the largest chunk
        buf = np.empty(m * cells)
        side = np.empty((3, cells))  # the least distance, the total and the posterior mean
        integrals = np.empty((2, a.size, half))  # E[excess] and E[E[x | y]^2] per knot and component
        for lo in range(0, a.size, chunk):
            part = slice(lo, lo + chunk)
            gaps = gap[:, None, :] * np.sqrt(a[part])[:, None]  # (S', A, S): mu_s - mu_s'
            work = buf[: gaps.size * t.size].reshape(gaps.shape + t.shape)
            least, total, post_mean = side[:, : work[0].size].reshape((3,) + work.shape[1:])
            np.add(gaps[..., None], t, out=work)
            np.square(work, out=work)
            np.min(work, axis=0, out=least)
            np.subtract(least, work, out=work)
            np.exp(work, out=work)
            np.sum(work, axis=0, out=total)
            np.matmul(pts, work.reshape(m, -1), out=post_mean.reshape(-1))
            post_mean /= total
            post_mean *= post_mean
            np.matmul(post_mean, w, out=integrals[1, part])
            excess = np.subtract(tsq, least, out=least)
            excess += np.log(total, out=total)
            np.matmul(excess, w, out=integrals[0, part])
        # weighted over S in one product for all knots, so that no knot's bits
        # depend on the chunk holding it: numpy takes a one-row product as a
        # dot, and the BLAS matrix-vector product of 8 or more columns rounds
        # a row by its place in its blocks
        excess_mean, square_mean = integrals @ share
        return math.log(m) - excess_mean, 1.0 - square_mean


def block_mi(h, qsets, rho, evaluator):
    """Per-block mutual information sum_k I(rho/Nt * Tr(H_n Q_nk H_n^H)) in nats, shape (n,).

    h is an (n, Nr, Nt) stack of channels, which fixes Nt, and qsets an
    (n, K, Nt, Nt) stack of per-symbol covariances; each distinct covariance
    is checked to be positive semidefinite. Exact only when the underlying
    dispersion set satisfies the orthogonality constraint; callers pass
    covariances of verified sets or codebook covariances.
    """
    nt = h.shape[-1]
    qsets = np.asarray(qsets, dtype=np.complex128)
    if qsets.ndim != 4 or qsets.shape[-2:] != (nt, nt):
        raise PreconditionError(f"covariance stack shape {qsets.shape} is not (n, K, {nt}, {nt})")
    if qsets.shape[1]:
        # a broadcast (stride-0) channel or symbol axis repeats one matrix, so it is factored once
        distinct = qsets[tuple(slice(None, 1) if step == 0 else slice(None) for step in qsets.strides[:2])]
        wmin = float(np.linalg.eigvalsh((distinct + np.swapaxes(distinct, -1, -2).conj()) / 2.0)[..., 0].min())
        if wmin < -1e-10:
            raise PreconditionError(f"covariance has eigenvalue {wmin:.3e} < -1e-10")
    args = np.einsum("nij,nkjl,nil->nk", h, qsets, h.conj()).real
    return evaluator.mi(np.maximum(args, 0.0) * rho / nt).sum(axis=-1)


def perfect_csi_mi(lam_max, rho, k, nc, evaluator):
    """Best achievable block mutual information with K symbols: K*I(rho*Nc/K * lmax).

    lam_max holds the largest eigenvalue of H^H H per trial, for instance
    channel.top_eigenvalues of a channel stack.
    """
    check_symbols(k, nc)
    return k * evaluator.mi(rho * nc / k * lam_max)
