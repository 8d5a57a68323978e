"""Beam-splitter loss (binomial damping) acting on two-mode states.

The channel is realized as per-mode Kraus operators
K_k = sum_n sqrt(C(n,k) eta^(n-k) (1-eta)^k) |n-k><n|,
equivalent to mixing each mode with a vacuum mode on a beam splitter of
transmission eta and tracing the vacuum out.  Detected cross moments then
scale as (eta_a * eta_b)^(n/2) times the input moment, which the tests verify
against the full Kraus map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    FixedNState,
    OperatorMonomial,
    State,
    TwoModeDensityMatrix,
    log_factorial,
    moment,
    to_density_matrix,
)


@dataclass(frozen=True)
class LossSetting:
    """Per-mode transmission probabilities of the loss channel."""

    eta_a: float
    eta_b: float

    def __post_init__(self):
        for eta in (self.eta_a, self.eta_b):
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"transmission must lie in [0, 1], got {eta!r}")

    @classmethod
    def uniform(cls, eta: float) -> "LossSetting":
        return cls(eta, eta)

    @property
    def is_uniform(self) -> bool:
        return self.eta_a == self.eta_b


def _log_pow(base: float, expo: np.ndarray) -> np.ndarray:
    # log(base**expo) with the 0**0 == 1 convention.
    expo = np.asarray(expo, dtype=float)
    if base == 0.0:
        return np.where(expo == 0, 0.0, -np.inf)
    return expo * np.log(base)


def kraus_weights(eta: float, dim: int, k: int) -> np.ndarray:
    """Diagonal of K_k shifted by k: weights[i] = <i|K_k|i+k> for i < dim-k."""
    i = np.arange(dim - k)
    n = i + k
    log_binom = log_factorial(n) - log_factorial(k) - log_factorial(i)
    return np.exp(0.5 * (log_binom + _log_pow(eta, i) + _log_pow(1.0 - eta, k)))


def kraus_operators(eta: float, dim: int) -> list[np.ndarray]:
    """All Kraus operators of the single-mode loss channel on ``dim`` levels."""
    ops = []
    for k in range(dim):
        op = np.zeros((dim, dim), dtype=complex)
        w = kraus_weights(eta, dim, k)
        op[np.arange(dim - k), np.arange(k, dim)] = w
        ops.append(op)
    return ops


def _damp_mode(
    rho: TwoModeDensityMatrix, blocks: list[np.ndarray], eta: float, mode_b: bool
) -> list[np.ndarray]:
    """Apply the single-mode channel to mode a (or b) of sector blocks laid
    out as rho's.  Losing k quanta moves the rows and columns that hold at
    least k quanta in that mode, weighted by the Kraus diagonals, from sector
    N to sector N - k; losses from b also shift the b count, i.e. the block
    index, down by k."""
    dim = rho.cutoff + 1
    weights = [kraus_weights(eta, dim, k) for k in range(dim)]
    out = [np.zeros_like(block) for block in blocks]
    for total, block in enumerate(blocks):
        if not block.any():
            continue
        m = rho.block_start(total) + np.arange(len(block))
        quanta = m if mode_b else total - m
        for k in range(int(quanta.max()) + 1):
            rows = np.flatnonzero(quanta >= k)  # one contiguous run
            lo, hi = rows[0], rows[-1] + 1
            w = weights[k][quanta[lo:hi] - k]
            at = m[lo] - (k if mode_b else 0) - rho.block_start(total - k)
            out[total - k][at : at + hi - lo, at : at + hi - lo] += (
                w[:, None] * w[None, :] * block[lo:hi, lo:hi]
            )
    return out


def apply_loss(rho: TwoModeDensityMatrix, loss: LossSetting) -> TwoModeDensityMatrix:
    """Trace-preserving binomial-damping channel on both modes."""
    blocks = _damp_mode(rho, list(rho.blocks), loss.eta_a, mode_b=False)
    blocks = _damp_mode(rho, blocks, loss.eta_b, mode_b=True)
    # remove rounding-level asymmetry
    blocks = [(block + block.conj().T) / 2.0 for block in blocks]
    return TwoModeDensityMatrix._from_blocks(rho.cutoff, blocks)


def detected_moment(state: State, mono, loss: LossSetting) -> complex:
    """Cross moment <(a^dag)^n b^n> of the fields after loss.

    With equal transmission on both modes the detected moment is exactly
    eta^n times the input moment, so the channel never has to be
    materialized; unequal transmissions go through the full Kraus map.
    """
    mono = mono if isinstance(mono, OperatorMonomial) else OperatorMonomial(*mono)
    if mono.q != 0 or mono.r != 0 or mono.p != mono.s:
        raise ValueError("detected_moment expects a cross moment (n, 0, 0, n)")
    if loss.is_uniform:
        return loss.eta_a ** mono.p * moment(state, mono)
    rho = to_density_matrix(state) if isinstance(state, FixedNState) else state
    return moment(apply_loss(rho, loss), mono)


def _damping_transfer(eta: float, dim: int) -> np.ndarray:
    """Column-stochastic matrix T[i, j] = P(j quanta -> i survive)."""
    i, j = np.indices((dim, dim))
    with np.errstate(invalid="ignore"):
        log_binom = log_factorial(j) - log_factorial(i) - log_factorial(j - i)
    t = np.zeros((dim, dim))
    lower = i <= j
    t[lower] = np.exp(
        log_binom[lower] + _log_pow(eta, i[lower]) + _log_pow(1.0 - eta, (j - i)[lower])
    )
    return t


def lossy_number_distribution(
    state: FixedNState, loss: LossSetting, floor: float = 1e-15
) -> dict[int, float]:
    """P(2 J_Z) after loss, propagating occupation probabilities only.

    The damping channel acts on each diagonal of the density matrix
    independently, so the output number distribution depends only on the
    input one; this avoids materializing the dense channel for large N.
    Cross-checked against apply_loss in the tests.
    """
    n_tot = state.total_number
    dim = n_tot + 1
    joint = np.zeros((dim, dim))
    for m, p in enumerate(state.probabilities()):
        joint[n_tot - m, m] = p
    joint = _damping_transfer(loss.eta_a, dim) @ joint
    joint = joint @ _damping_transfer(loss.eta_b, dim).T
    dist: dict[int, float] = {}
    for diff in range(-n_tot, n_tot + 1):
        p = float(np.diagonal(joint, -diff).sum())  # the n_a - n_b = diff line
        if p > floor:
            dist[diff] = p
    return dict(sorted(dist.items()))
