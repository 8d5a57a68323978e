"""Beam-splitter loss (binomial damping) acting on two-mode states.

The channel is realized as per-mode Kraus operators
K_k = sum_n sqrt(C(n,k) eta^(n-k) (1-eta)^k) |n-k><n|,
equivalent to mixing each mode with a vacuum mode on a beam splitter of
transmission eta and tracing the vacuum out.  All their weights come from
one (dim, dim) table per transmission, built from strided views of the
cached log(n!) table.  On a density matrix the channel
keeps the offset d = m' - m of every block element, so ``apply_loss`` runs
it as one triangular matrix product per mode on a grid per offset, batched
over offsets, with the grids gathered from and scattered back to the
concatenated blocks.  Normally ordered moments scale exactly as
eta_a^((p+r)/2) eta_b^((q+s)/2), so ``detected_moment`` gives the lossy
cross moment, for any pair of transmissions, as (eta_a eta_b)^(n/2) times
the input moment without building the channel; the tests check it against
the explicit Kraus map, whose dense operators live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fock import (
    FixedNState,
    OperatorMonomial,
    State,
    TwoModeDensityMatrix,
    _block_index,
    _difference_distribution,
    log_factorial,
    moment,
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


def _log_transfer(eta: float, dim: int) -> np.ndarray:
    """log P(j quanta -> i survive) = log(C(j, i) eta^i (1-eta)^(j-i)) on the
    (dim, dim) grid [i, j], and -inf where i > j.

    The terms that depend on j - i come from strided views of one line each
    (``_toeplitz``), with log(k!) read from the cached table, so nothing is
    gathered per cell; the cells i <= j see the same operations in the same
    order as an elementwise evaluation."""
    lags = np.arange(1 - dim, dim)  # j - i
    log_fact = log_factorial(lags)  # +inf for j < i
    counts = log_fact[dim - 1 :]  # log n!, n = 0..dim-1
    log_binom = counts[None, :] - counts[:, None] - _toeplitz(log_fact, dim)
    return log_binom + _log_pow(eta, lags[dim - 1 :])[:, None] + _toeplitz(
        _log_pow(1.0 - eta, lags), dim
    )


def _toeplitz(line: np.ndarray, dim: int) -> np.ndarray:
    """The (dim, dim) view [i, j] -> line[j - i + dim - 1] of a contiguous
    line of 2 dim - 1 floats.  (``np.ndarray`` makes the view directly;
    ``sliding_window_view`` costs about 10 us of Python per call.)"""
    step = line.itemsize
    return np.ndarray((dim, dim), line.dtype, line, (dim - 1) * step, (-step, step))


def _kraus_table(eta: float, dim: int, out: np.ndarray | None = None) -> np.ndarray:
    """Upper-triangular A[i, n] = <i|K_(n-i)|n> = sqrt(P(n quanta -> i survive)):
    every Kraus weight of the single-mode channel on ``dim`` levels."""
    return np.exp(0.5 * _log_transfer(eta, dim), out=out)


def _damping_transfer(eta: float, dim: int) -> np.ndarray:
    """Column-stochastic matrix T[i, j] = P(j quanta -> i survive)."""
    return np.exp(_log_transfer(eta, dim))


# Block offsets d per batched product in apply_loss: the grids of a batch are
# padded to the largest of them, so a wider batch pads more and loops less.
# apply_loss on a full-block state, median of 5 timed runs at widths
# 2/4/8/16/32: 0.49/0.47/0.44/0.37/0.38 ms at cutoff 12, 1.98/1.95/1.95/
# 2.02/4.31 ms at cutoff 40, 39/42/45/51/60 ms at cutoff 100 (2-core Xeon
# VM, numpy 2.4).  8 stays within 2 % of the best at cutoff 40 and within
# 20 % at 12 and 100.
_OFFSETS_PER_BATCH = 8


class _LossIndex(NamedTuple):
    """Where apply_loss reads and writes, for one cutoff c.

    The elements rho[m, m'] of the sector blocks with offset d = m' - m >= 0
    are laid out, per d, on a grid [n_a - d, n_b] of side L = c + 1 - d;
    the cells with n_a + n_b > c stay zero.  The grids of ``batches``
    (d0, d1, start) hold d0 <= d < d1, each padded to side c + 1 - d0, at
    ``start`` of a store of G cells.  The element with offset -d is the
    conjugate of its transpose, which shares its cell."""

    gather: np.ndarray  # store position of each grid cell, S for the padding
    scatter: np.ndarray  # grid cell of each store position
    lower: np.ndarray  # True where m' < m: the store takes the conjugate
    batches: tuple[tuple[int, int, int], ...]


@lru_cache(maxsize=8)
def _loss_index(cutoff: int) -> _LossIndex:
    """The cached ``_LossIndex`` of a cutoff, as read-only arrays.  It retains
    5 bytes per stored element and 4 per grid cell (0.24 MB at cutoff 40 and
    3.3 MB at cutoff 100), and the cache keeps the last 8 cutoffs."""
    index = _block_index(cutoff)
    count = int(index.starts[-1])
    dim = cutoff + 1
    gather, batches = [], []
    scatter = np.empty(count, dtype=index.transpose.dtype)
    start = 0
    for d0 in range(0, dim, _OFFSETS_PER_BATCH):
        d1 = min(d0 + _OFFSETS_PER_BATCH, dim)
        side = dim - d0
        d, row, col = np.indices((d1 - d0, side, side))
        d += d0
        # row: the a quanta n_a - d of the column state; column: the b quanta
        # m of the row state; the element is [m, m + d] of sector row + col + d
        total = row + col + d
        inside = total <= cutoff
        pos = index.starts[np.minimum(total, cutoff)] + col * (total + 1) + col + d
        cells = start + np.arange(pos.size).reshape(pos.shape)
        scatter[pos[inside]] = cells[inside]
        scatter[index.transpose[pos[inside]]] = cells[inside]
        gather.append(np.where(inside, pos, count).ravel())
        batches.append((d0, d1, start))
        start += pos.size
    loss_index = _LossIndex(
        gather=np.concatenate(gather).astype(scatter.dtype),
        scatter=scatter,
        lower=index.row > index.col,
        batches=tuple(batches),
    )
    for arr in (loss_index.gather, loss_index.scatter, loss_index.lower):
        arr.setflags(write=False)
    return loss_index


def _shifted_tables(eta: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The Kraus table A zero-padded to side 2 dim - 1, and the read-only
    view W[d, p, q] = A[p + d, q + d] of it for d, p, q < dim: the channel
    matrix of offset d is A[:L, :L] * W[d, :L, :L], zero beyond side
    L = dim - d."""
    padded = np.zeros((2 * dim - 1, 2 * dim - 1))
    _kraus_table(eta, dim, out=padded[:dim, :dim])
    row, step = padded.strides
    shifted = np.ndarray((dim, dim, dim), float, padded, 0, (row + step, row, step))
    shifted.setflags(write=False)
    return padded, shifted


def apply_loss(rho: TwoModeDensityMatrix, loss: LossSetting) -> TwoModeDensityMatrix:
    """Trace-preserving binomial-damping channel on both modes.

    Losing quanta from mode a keeps n_b and the block offset d = m' - m,
    and losing them from mode b keeps n_a and d; so on the grid of each d
    the channel is T_a(d) @ grid @ T_b(d).T with the triangular
    T(d)[p, q] = A[p, q] A[p + d, q + d] of the Kraus weights A.  The input
    is made exactly Hermitian first, the offsets -d are the conjugates of
    +d, and the grids of a batch of offsets go through one matmul."""
    cutoff = rho.cutoff
    dim = cutoff + 1
    index = _block_index(cutoff)
    loss_index = _loss_index(cutoff)
    flat = rho._flat
    # Every index below is in range; mode="clip" only spares the buffered
    # copy that np.take makes for out= under its default mode.
    # The Hermitian part, and a zero at position S for the padding cells:
    hermitian = np.zeros(len(flat) + 1, dtype=complex)
    np.take(flat, index.transpose, out=hermitian[:-1], mode="clip")
    np.conjugate(hermitian, out=hermitian)
    hermitian[:-1] += flat
    hermitian *= 0.5
    grids = np.empty((2, len(loss_index.gather)))
    np.take(hermitian.real, loss_index.gather, out=grids[0], mode="clip")
    np.take(hermitian.imag, loss_index.gather, out=grids[1], mode="clip")
    table_a, shifted_a = _shifted_tables(loss.eta_a, dim)
    table_b, shifted_b = _shifted_tables(loss.eta_b, dim)
    for d0, d1, start in loss_index.batches:
        side = dim - d0
        shape = (2, d1 - d0, side, side)
        part = grids[:, start : start + shape[1] * side * side].reshape(shape)
        left = table_a[:side, :side] * shifted_a[d0:d1, :side, :side]
        right = table_b[:side, :side] * shifted_b[d0:d1, :side, :side]
        np.matmul(left @ part, right.transpose(0, 2, 1), out=part)
    lossy = hermitian[:-1]  # the grids hold the state now; reuse the buffer
    np.take(grids[0], loss_index.scatter, out=lossy.real, mode="clip")
    np.take(grids[1], loss_index.scatter, out=lossy.imag, mode="clip")
    np.conjugate(lossy, out=lossy, where=loss_index.lower)
    return TwoModeDensityMatrix._from_store(cutoff, lossy)


def detected_moment(state: State, mono, loss: LossSetting) -> complex:
    """Cross moment <(a^dag)^n b^n> of the fields after loss.

    Binomial loss scales every normally ordered moment
    <(a^dag)^p (b^dag)^q a^r b^s> exactly by eta_a^((p+r)/2) eta_b^((q+s)/2),
    so for every pair of transmissions the cross moment is
    sqrt(eta_a eta_b)^n times the input moment, and the channel is never
    materialized.  With equal transmissions sqrt(eta^2) rounds back to eta,
    so the scale is exactly eta^n.
    """
    mono = mono if isinstance(mono, OperatorMonomial) else OperatorMonomial(*mono)
    if mono.q != 0 or mono.r != 0 or mono.p != mono.s:
        raise ValueError("detected_moment expects a cross moment (n, 0, 0, n)")
    return math.sqrt(loss.eta_a * loss.eta_b) ** mono.p * moment(state, mono)


def lossy_number_distribution(state: FixedNState, loss: LossSetting) -> dict[int, float]:
    """P(2 J_Z) after loss, propagating occupation probabilities only; values
    at or below 1e-15 (``fock.DISTRIBUTION_FLOOR``) are dropped.

    The damping channel acts on each diagonal of the density matrix
    independently, so the output number distribution depends only on the
    input one; this avoids materializing the dense channel for large N.
    Cross-checked against apply_loss in the tests.
    """
    dim = state.total_number + 1
    # the joint input holds P(m) at [N - m, m], one entry per column, so
    # T_a @ joint is column m of T_a reversed, scaled by P(m)
    joint = _damping_transfer(loss.eta_a, dim)[:, ::-1] * state.probabilities()
    joint = joint @ _damping_transfer(loss.eta_b, dim).T
    return _difference_distribution(joint)
