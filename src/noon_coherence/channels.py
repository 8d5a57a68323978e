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
    _difference_distribution,
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


def _damp_mode(blocks: list[np.ndarray], eta: float, mode_b: bool) -> list[np.ndarray]:
    """Apply the single-mode channel to mode a (or b) of the complete sector
    blocks N = 0..cutoff.  Losing k quanta maps the rows and columns of
    sector N that hold at least k quanta in that mode, weighted by the Kraus
    diagonals, onto rows 0..N-k of sector N - k: rows m >= k for mode b
    (which also lowers the b count m by k), rows m <= N - k for mode a."""
    weights = [kraus_weights(eta, len(blocks), k) for k in range(len(blocks))]
    out = [np.zeros_like(block) for block in blocks]
    for total, block in enumerate(blocks):
        if not block.any():
            continue
        for k in range(total + 1):
            kept = total - k + 1
            if mode_b:  # row m holds m quanta in b
                w, part = weights[k][:kept], block[k:, k:]
            else:  # row m holds total - m quanta in a
                w, part = weights[k][kept - 1 :: -1], block[:kept, :kept]
            out[total - k] += w[:, None] * w[None, :] * part
    return out


def apply_loss(rho: TwoModeDensityMatrix, loss: LossSetting) -> TwoModeDensityMatrix:
    """Trace-preserving binomial-damping channel on both modes."""
    blocks = _damp_mode(list(rho.blocks), loss.eta_a, mode_b=False)
    blocks = _damp_mode(blocks, loss.eta_b, mode_b=True)
    # remove rounding-level asymmetry
    blocks = [(block + block.conj().T) / 2.0 for block in blocks]
    return TwoModeDensityMatrix(rho.cutoff, blocks)


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
    i, j = np.triu_indices(dim)
    log_binom = log_factorial(j) - log_factorial(i) - log_factorial(j - i)
    t = np.zeros((dim, dim))
    t[i, j] = np.exp(log_binom + _log_pow(eta, i) + _log_pow(1.0 - eta, j - i))
    return t


def lossy_number_distribution(state: FixedNState, loss: LossSetting) -> dict[int, float]:
    """P(2 J_Z) after loss, propagating occupation probabilities only; values
    at or below 1e-15 (``fock.DISTRIBUTION_FLOOR``) are dropped.

    The damping channel acts on each diagonal of the density matrix
    independently, so the output number distribution depends only on the
    input one; this avoids materializing the dense channel for large N.
    Cross-checked against apply_loss in the tests.
    """
    n_tot = state.total_number
    dim = n_tot + 1
    m = np.arange(dim)
    joint = np.zeros((dim, dim))
    joint[n_tot - m, m] = state.probabilities()
    joint = _damping_transfer(loss.eta_a, dim) @ joint
    joint = joint @ _damping_transfer(loss.eta_b, dim).T
    return _difference_distribution(joint)
