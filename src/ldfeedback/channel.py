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

UNITARY_TOL = 1e-12
POWER_TOL = 1e-9


@dataclass(frozen=True)
class CorrelationModel:
    """Channel law: dimensions, eigenbases, and the per-entry variance mask."""

    nt: int
    nr: int
    ut: np.ndarray
    ur: np.ndarray
    vmask: np.ndarray

    def __post_init__(self):
        if self.nt < 1 or self.nr < 1:
            raise PreconditionError("antenna counts must be >= 1")
        if self.ut.shape != (self.nt, self.nt) or self.ur.shape != (self.nr, self.nr):
            raise PreconditionError("eigenbasis dimensions do not match antenna counts")
        for name, m in (("ut", self.ut), ("ur", self.ur), ("vmask", self.vmask)):
            if not np.isfinite(m).all():
                raise PreconditionError(f"{name} entries must be finite")
        for name, u in (("ut", self.ut), ("ur", self.ur)):
            resid = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
            if resid > UNITARY_TOL:
                raise PreconditionError(f"{name} is not unitary (residual {resid:.3e})")
        if self.vmask.shape != (self.nr, self.nt):
            raise PreconditionError("vmask must be Nr x Nt")
        if (self.vmask < 0).any():
            raise PreconditionError("vmask entries must be non-negative")
        total = float(self.vmask.sum())
        if abs(total - self.nt * self.nr) > POWER_TOL:
            raise PreconditionError(
                f"vmask sum {total!r} violates the Nt*Nr = {self.nt * self.nr} power normalization"
            )

    @property
    def identity_bases(self):
        return bool(
            np.array_equal(self.ut, np.eye(self.nt)) and np.array_equal(self.ur, np.eye(self.nr))
        )


@dataclass(frozen=True)
class ChannelRealization:
    """One channel draw: h together with the independent-entry factor hind."""

    h: np.ndarray
    hind: np.ndarray


def iid_model(nt, nr):
    """The i.i.d. CN(0,1)-entries model (identity eigenbases, all-ones mask)."""
    if nt < 1 or nr < 1:
        raise PreconditionError("antenna counts must be >= 1")
    return CorrelationModel(
        nt=nt,
        nr=nr,
        ut=np.eye(nt, dtype=np.complex128),
        ur=np.eye(nr, dtype=np.complex128),
        vmask=np.ones((nr, nt)),
    )


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
    return CorrelationModel(
        nt=4,
        nr=4,
        ut=np.eye(4, dtype=np.complex128),
        ur=np.eye(4, dtype=np.complex128),
        vmask=(16.0 / 2.6) * raw,
    )


def custom_model(vmask, ut=None, ur=None):
    """Model from an explicit variance mask (identity eigenbases by default)."""
    vmask = np.asarray(vmask, dtype=float)
    nr, nt = vmask.shape
    if ut is None:
        ut = np.eye(nt, dtype=np.complex128)
    if ur is None:
        ur = np.eye(nr, dtype=np.complex128)
    return CorrelationModel(nt=nt, nr=nr, ut=np.asarray(ut), ur=np.asarray(ur), vmask=vmask)


def from_normals(model, z):
    """Channel stack from standard normals z of shape (n, 2, Nr, Nt); returns (h, hind).

    hind = (z[:, 0] + i z[:, 1]) * sqrt(vmask / 2) has independent
    CN(0, vmask) entries (zero-variance entries come out exactly zero) and
    h = Ur @ hind @ Ut^H; with identity eigenbases h is hind itself.
    """
    hind = (z[:, 0] + 1j * z[:, 1]) * np.sqrt(model.vmask / 2.0)
    if model.identity_bases:
        return hind, hind
    return model.ur @ hind @ model.ut.conj().T, hind


def sample(model, rng):
    """Draw one channel realization from the model: the n = 1 call of from_normals."""
    h, hind = from_normals(model, rng.gen.standard_normal((1, 2, model.nr, model.nt)))
    return ChannelRealization(h=h[0], hind=hind[0])
