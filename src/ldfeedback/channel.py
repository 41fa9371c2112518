"""Correlated Rayleigh MIMO channel law and sampling.

The channel decomposes as H = Ur @ Hind @ Ut^H where Hind has independent
zero-mean complex Gaussian entries with per-entry variances given by a mask.
Total channel power E[Tr(H H^H)] is normalized to Nt * Nr, so the mask
entries must sum to Nt * Nr. Draws are built as stacks along a leading
trial axis; one realization is the n = 1 stack.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .matkit import check_unitary

POWER_TOL = 1e-9


def check_antennas(nt, nr):
    """Reject an antenna count below 1."""
    if nt < 1 or nr < 1:
        raise PreconditionError(f"antenna counts must be >= 1, got Nt = {nt}, Nr = {nr}")


@dataclass(frozen=True)
class CorrelationModel:
    """Channel law: eigenbases and the Nr x Nt per-entry variance mask, which fixes Nr and Nt."""

    ut: np.ndarray
    ur: np.ndarray
    vmask: np.ndarray

    def __post_init__(self):
        if self.vmask.ndim != 2:
            raise PreconditionError(f"vmask must be a 2-D Nr x Nt array, got shape {self.vmask.shape}")
        check_antennas(self.nt, self.nr)
        for name, m in (("ut", self.ut), ("ur", self.ur), ("vmask", self.vmask)):
            if not np.isfinite(m).all():
                raise PreconditionError(f"{name} entries must be finite")
        check_unitary(self.ut, self.nt, "ut")
        check_unitary(self.ur, self.nr, "ur")
        if (self.vmask < 0).any():
            raise PreconditionError("vmask entries must be non-negative")
        total = float(self.vmask.sum())
        if abs(total - self.nt * self.nr) > POWER_TOL:
            raise PreconditionError(
                f"vmask sum {total!r} violates the Nt*Nr = {self.nt * self.nr} power normalization"
            )

    @property
    def nr(self):
        return self.vmask.shape[0]

    @property
    def nt(self):
        return self.vmask.shape[1]

    @property
    def identity_bases(self):
        return bool(
            np.array_equal(self.ut, np.eye(self.nt)) and np.array_equal(self.ur, np.eye(self.nr))
        )


def custom_model(vmask, ut=None, ur=None):
    """Model from an explicit variance mask (identity eigenbases by default)."""
    vmask = np.asarray(vmask, dtype=float)
    # sizes for the identity defaults only: CorrelationModel rejects a mask that is not 2-D
    nr, nt = np.atleast_2d(vmask).shape[-2:]
    if ut is None:
        ut = np.eye(nt, dtype=np.complex128)
    if ur is None:
        ur = np.eye(nr, dtype=np.complex128)
    return CorrelationModel(ut=np.asarray(ut), ur=np.asarray(ur), vmask=vmask)


def iid_model(nt, nr):
    """The i.i.d. CN(0,1)-entries model (identity eigenbases, all-ones mask)."""
    check_antennas(nt, nr)
    return custom_model(np.ones((nr, nt)))


def v4_model():
    """4x4 correlated benchmark channel.

    The raw variance pattern sums to 2.6 and is rescaled by 16/2.6 so total
    channel power is Nt * Nr = 16. Eigenbases are identity.
    """
    raw = np.array(
        [
            [0.1, 0.0, 0.4, 0.0],
            [0.0, 0.1, 0.4, 0.0],
            [0.0, 0.0, 0.4, 0.4],
            [0.0, 0.0, 0.4, 0.4],
        ]
    )
    return custom_model((16.0 / 2.6) * raw)


def hind_from_normals(model, z):
    """Hind stack from standard normals z of shape (n, 2, Nr, Nt), without the eigenbases.

    hind = (z[:, 0] + i z[:, 1]) * sqrt(vmask / 2) has independent
    CN(0, vmask) entries (zero-variance entries come out exactly zero). z may
    be a view, such as a (2, n, Nr, Nt) block with its first two axes swapped.

    hind is built in one complex buffer, i z[:, 1] plus z[:, 0] then times the
    scale: complex addition is commutative in IEEE arithmetic, so these are
    the bits of the one-expression form without its two complex temporaries.
    """
    hind = 1j * z[:, 1]
    hind += z[:, 0]
    hind *= np.sqrt(model.vmask / 2.0)
    return hind


def from_normals(model, z):
    """Channel stack from standard normals z of shape (n, 2, Nr, Nt); returns (h, hind).

    hind is hind_from_normals(model, z) and h = Ur @ hind @ Ut^H; with
    identity eigenbases h is hind itself.
    """
    hind = hind_from_normals(model, z)
    if model.identity_bases:
        return hind, hind
    return model.ur @ hind @ model.ut.conj().T, hind


def column_powers(x):
    """Squared column norms of each matrix of an (n, Nr, Nt) stack, shape (n, Nt)."""
    return (np.abs(x) ** 2).sum(axis=1)


def top_eigenvalues(h):
    """Largest eigenvalue of each H^H H of an (n, Nr, Nt) stack, clipped at 0, by one stacked eigvalsh call."""
    return np.maximum(np.linalg.eigvalsh(np.swapaxes(h.conj(), -1, -2) @ h)[:, -1], 0.0)


def sample(model, rng):
    """One channel draw as from_normals' n = 1 stacks (h, hind), the pair draw_trials returns for n trials."""
    return from_normals(model, rng.gen.standard_normal((1, 2, model.nr, model.nt)))
