"""Simulated measurement layer for two-mode states.

Covers the 50/50 beam-splitter-plus-phase mode rotation
c = (a + b e^{i phi})/sqrt(2), d = (a - b e^{i phi})/sqrt(2), output-intensity
fringes, binned-count probability scans with their discrete Fourier content,
and the routes that express the cross moments <(a^dag)^n b^n> through
Schwinger-spin or quadrature measurements.

Every mode map goes through one routine, ``_rotate_columns``, which applies
its sector matrix to a stack of columns through the cached J_X eigenbasis:
the amplitudes of a pure state, the occupied one-hot columns of a fringe
scan, the phase-grid columns of a cross-moment scan, the blocks of a density
matrix, and the identity's columns for ``sector_unitary``.

The spin and quadrature identities are validated as operator-matrix
equalities on a truncated Fock grid (with a margin so truncation cannot leak
into the compared block); the third-order spin identity ships in the variant
that survives that validation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import AliasingError, NumericalError
from .fock import (
    FixedNState,
    State,
    TwoModeDensityMatrix,
    _block_index,
    _moments,
    annihilation_matrix,
    log_factorial,
    moment,
    schwinger_moments,
)
from .tolerances import EQ_TOL, NORM_TOL

# Levels above the cutoff on the grid of the operator-identity check, so that
# truncation of the ladder operators cannot reach the compared block.
IDENTITY_MARGIN = 4


# ---------------------------------------------------------------------------
# mode rotations
# ---------------------------------------------------------------------------


def beam_splitter_matrix(phi: float) -> np.ndarray:
    """Mode map (c, d) = U (a, b) of a 50/50 splitter with phase phi on b."""
    ph = np.exp(1j * phi)
    return np.array([[1.0, ph], [1.0, -ph]], dtype=complex) / np.sqrt(2.0)


def _euler_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """(theta, alpha, beta, gamma) with U = e^{i phi} R_z(alpha) R_x(beta) R_z(gamma),
    R_z(t) = exp(i t sigma_z / 2), R_x(t) = exp(i t sigma_x / 2) and
    theta = phi + (alpha - beta + gamma)/2, the phase that U's sector matrix
    takes per particle (``_Rotation``).

    With e^{-i phi} U = [[a, b], [-conj b, conj a]] in SU(2):
    a = cos(beta/2) e^{i (alpha + gamma)/2}, b = i sin(beta/2) e^{i (alpha - gamma)/2}.
    Where a or b vanishes only alpha + gamma or alpha - gamma is defined,
    and the angle of 0 (zero) fixes the other.  Raises ValueError unless U
    is a 2x2 unitary matrix.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.max(np.abs(u @ u.conj().T - np.eye(2))) > EQ_TOL:
        raise ValueError("mode transform must be a 2x2 unitary matrix")
    phi = 0.5 * float(np.angle(np.linalg.det(u)))
    a, b = u[0] * np.exp(-1j * phi)
    beta = 2.0 * float(np.arctan2(abs(b), abs(a)))
    total, difference = float(np.angle(a)), float(np.angle(b)) - np.pi / 2.0
    return phi + total - beta / 2.0, total + difference, beta, total - difference


# Bytes of J_X eigenbases kept between calls.  One sector at N = 500 takes
# 2.0 MB, and the batched bases of every sector up to cutoff 20 / 40 / 100
# take 0.04 / 0.24 / 3.1 MB; a stack larger than the bound is built for its
# call and not kept.
BASIS_CACHE_BYTES = 8 * 2**20

# key (first, last) -> read-only bases, least recently used first
_basis_cache: dict[tuple[int, int], np.ndarray] = {}
_basis_lock = threading.Lock()


def _jx_bases(first: int, last: int) -> np.ndarray:
    """Eigenbases V_N of J_X for the sectors N = first..last, stacked and
    zero-padded to side last + 1: J_X = V_N diag(j - N/2) V_N^T, with the
    columns j = 0..N in ascending order of the eigenvalue.

    The stacks are cached, least recently used out first, while they hold
    more than ``BASIS_CACHE_BYTES`` (8 MiB) in all; a miss solves them with
    ``_solve_jx_bases``.  A lock guards the cache, so threads may share it.
    """
    key = (first, last)
    with _basis_lock:
        bases = _basis_cache.pop(key, None)
        if bases is not None:
            _basis_cache[key] = bases
            return bases
    bases = _solve_jx_bases(first, last)
    if bases.nbytes <= BASIS_CACHE_BYTES:
        with _basis_lock:
            _basis_cache[key] = bases
            while sum(b.nbytes for b in _basis_cache.values()) > BASIS_CACHE_BYTES:
                del _basis_cache[next(iter(_basis_cache))]
    return bases


def _solve_jx_bases(first: int, last: int) -> np.ndarray:
    """The read-only stack of ``_jx_bases``.  J_X is real symmetric
    tridiagonal with the exact, simple spectrum j - N/2, so one real batched
    ``eigh`` of the padded generators gives every V_N; each padding row sits
    alone on the diagonal above the spectrum, so its eigenvalue sorts after
    the sector's, and the padding is zeroed afterwards."""
    side = last + 1
    totals = np.arange(first, side)[:, None]
    m = np.arange(side)
    inside = m <= totals
    generators = np.zeros((len(totals), side, side))
    # sqrt((m + 1)(N - m))/2 couples m and m + 1; 0 from m = N on
    coupling = 0.5 * np.sqrt(np.maximum((m[:-1] + 1) * (totals - m[:-1]), 0))
    generators[:, m[:-1], m[1:]] = coupling
    generators[:, m[1:], m[:-1]] = coupling
    generators[:, m, m] = np.where(inside, 0.0, side + m)
    bases = np.linalg.eigh(generators)[1]
    bases *= inside[:, :, None] & inside[:, None, :]
    bases.setflags(write=False)
    return bases


class _Rotation(NamedTuple):
    """The factors of a mode map's sector matrices
    R_N = e^{i N theta} P_alpha V_N Q_beta V_N^T P_gamma: the phase per
    particle theta and the vectors P_t = e^{-i t m} and Q_beta = e^{i beta j}
    for m, j = 0..size-1 (``_rotation``), as columns.  They do not depend on
    N; sector N uses their first N + 1 entries."""

    theta: float
    p_alpha: np.ndarray
    q_beta: np.ndarray
    p_gamma: np.ndarray


def _rotation(u: np.ndarray, size: int) -> _Rotation:
    """The ``_Rotation`` of U from its Euler angles (``_euler_angles``), for
    sectors up to N = size - 1."""
    theta, alpha, beta, gamma = _euler_angles(u)
    steps = np.arange(size)
    phases = np.exp(1j * np.multiply.outer((-alpha, beta, -gamma), steps))[:, :, None]
    return _Rotation(theta, *phases)


def _rotate_columns(first: int, last: int, rotation: _Rotation, columns: np.ndarray) -> np.ndarray:
    """R_N x for every column x of a stack of sector columns.

    ``columns`` holds, for each sector N = first..last, the columns of that
    sector zero-padded to last + 1 rows: shape (last - first + 1, last + 1, k).
    R_N comes from ``rotation`` and the cached J_X eigenbases V_N
    (``_jx_bases``).  Each phase is a row scaling of a C-contiguous complex
    stack, whose float view holds the real and imaginary parts as
    interleaved columns, so each V product is one real batched product.
    The factor e^{i N theta} is skipped where theta is 0.  Returns a new
    array of the same shape.
    """
    side = last + 1
    bases = _jx_bases(first, last)
    x = np.multiply(rotation.p_gamma[:side], columns, order="C")
    x = (bases.transpose(0, 2, 1) @ x.view(float)).view(complex)
    x *= rotation.q_beta[:side]
    x = (bases @ x.view(float)).view(complex)
    x *= rotation.p_alpha[:side]
    if rotation.theta:
        x *= np.exp(1j * rotation.theta * np.arange(first, side))[:, None, None]
    return x


def sector_unitary(total_number: int, u: np.ndarray) -> np.ndarray:
    """Matrix of the mode map (c, d) = U (a, b) on the fixed-N sector.

    Column m holds |N-m>_a |m>_b written in the |N-j>_c |j>_d basis: the
    rotation of the identity's columns (``_rotate_columns``), which writes the
    matrix as e^{i N theta} P_alpha V_N Q_beta V_N^T P_gamma from the Euler
    angles of U and the J_X eigenbasis V_N, taken from a cache (``_jx_bases``;
    8 (N+1)^2 bytes per sector, 2.0 MB at N = 500).  No eigensolver runs once
    V_N is cached, and the result is unitary to rounding for any N.  No
    library path needs the matrix; the rotations apply R_N to columns.
    """
    identity = np.eye(total_number + 1, dtype=complex)[None]
    rotation = _rotation(u, total_number + 1)
    return _rotate_columns(total_number, total_number, rotation, identity)[0]


def mode_transform(state: FixedNState, u: np.ndarray) -> FixedNState:
    """Rewrite a fixed-N state in the modes (c, d) = U (a, b).

    The amplitudes are one column through ``_rotate_columns``: two real
    matrix-vector products with the cached V_N, O(N^2) work.  Raises
    NumericalError when the rotated norm drifts from the input's by more
    than NORM_TOL.
    """
    n_tot = state.total_number
    column = state.amplitudes[None, :, None]
    rotated = _rotate_columns(n_tot, n_tot, _rotation(u, n_tot + 1), column)[0, :, 0]
    drift = np.vdot(rotated, rotated).real - np.vdot(state.amplitudes, state.amplitudes).real
    if abs(drift) > NORM_TOL:
        raise NumericalError(f"mode transform changed the state norm by {drift:.3e}")
    return FixedNState(n_tot, rotated)


# Sectors per batched product in mode_transform_density: each batch is padded
# to its largest sector, so a wider batch pads more and loops less.  On a
# lossy NOON state, median of 50 calls (10 at cutoff 100) at widths 4/8/16/
# 32/all: 0.37/0.20/0.16/0.18/0.16 ms at cutoff 12, 0.64/0.29/0.29/0.35/
# 0.33 ms at 20, 2.1/1.3/1.4/1.7/2.6 ms at 40 and 34/34/36/41/94 ms at 100
# (2-core Xeon VM, numpy 2.4).  8 stays within 5 % of the best at 20 and 40
# and within 25 % at 12 and 100.
_SECTORS_PER_BATCH = 8


class _RotationIndex(NamedTuple):
    """The sector blocks of one cutoff c laid out for batched products: the
    sectors first..last of each batch (first, last, start) sit zero-padded to
    side last + 1 at ``start`` of a stack of P cells."""

    cells: np.ndarray  # stack cell of each store position
    batches: tuple[tuple[int, int, int], ...]
    size: int  # P


@lru_cache(maxsize=8)
def _rotation_index(cutoff: int) -> _RotationIndex:
    """The cached ``_RotationIndex`` of a cutoff, as a read-only array: 4 bytes
    per stored element (0.10 MB at cutoff 40, 1.4 MB at cutoff 100), and the
    cache keeps the last 8 cutoffs."""
    index = _block_index(cutoff)
    batches, first_cell = [], np.empty(cutoff + 1, dtype=np.int64)
    side_of = np.empty(cutoff + 1, dtype=np.int64)
    start = 0
    for first in range(0, cutoff + 1, _SECTORS_PER_BATCH):
        last = min(first + _SECTORS_PER_BATCH, cutoff + 1) - 1
        side = last + 1
        totals = np.arange(first, side)
        first_cell[totals] = start + (totals - first) * side * side
        side_of[totals] = side
        batches.append((first, last, start))
        start += (side - first) * side * side
    total = index.n_a + index.n_b  # per state
    row_total = total[index.row]
    cells = first_cell[row_total] + (
        index.n_b[index.row] * side_of[row_total] + index.n_b[index.col]
    )
    cells = cells.astype(index.row.dtype)
    cells.setflags(write=False)
    return _RotationIndex(cells, tuple(batches), start)


def mode_transform_density(
    rho: TwoModeDensityMatrix, u: np.ndarray
) -> TwoModeDensityMatrix:
    """Apply the mode map to a density matrix, every sector block at once.

    Each block becomes R_N rho_N R_N^dag.  The blocks are gathered into
    stacks of up to 8 sectors (``_SECTORS_PER_BATCH``), zero-padded to the
    largest, and each stack X goes twice through the rotation routine
    (``_rotate_columns``): Y = R X, then R Y^dag = R X R^dag, as X is
    Hermitian.  The phase e^{i N theta} cancels there, so it is dropped.
    The call caches the bases of each batch (``_jx_bases``; 0.04 / 0.24 /
    3.1 MB for every sector up to cutoff 20 / 40 / 100) and the stack
    position of each stored element per cutoff (``_rotation_index``; 4 bytes
    per element).

    Raises NumericalError, naming the first such sector, when a rotated
    block's trace drifts from the input's by more than NORM_TOL.
    """
    cutoff = rho.cutoff
    rotation = _rotation(u, cutoff + 1)._replace(theta=0.0)
    layout = _rotation_index(cutoff)
    stack = np.zeros(layout.size, dtype=complex)
    stack[layout.cells] = rho._flat
    for first, last, start in layout.batches:
        side = last + 1
        x = stack[start : start + (side - first) * side * side].reshape(-1, side, side)
        y = _rotate_columns(first, last, rotation, x)
        x[...] = _rotate_columns(first, last, rotation, y.conj().transpose(0, 2, 1))
    rotated = np.take(stack, layout.cells)
    index = _block_index(cutoff)
    rotated += np.conjugate(np.take(rotated, index.transpose))
    rotated *= 0.5
    first_state = np.arange(cutoff + 1) * np.arange(1, cutoff + 2) // 2
    before = np.add.reduceat(rho._flat[index.diag].real, first_state)
    drift = np.add.reduceat(rotated[index.diag].real, first_state) - before
    drifting = np.flatnonzero(np.abs(drift) > NORM_TOL)
    if drifting.size:
        total = int(drifting[0])
        raise NumericalError(
            f"mode transform changed the trace of sector N={total} by {drift[total]:.3e}"
        )
    return TwoModeDensityMatrix._from_store(cutoff, rotated)


def rotate_modes(state: FixedNState, phi: float) -> FixedNState:
    """State in the output basis of the 50/50 splitter with phase phi."""
    return mode_transform(state, beam_splitter_matrix(phi))


# ---------------------------------------------------------------------------
# intensity fringes
# ---------------------------------------------------------------------------


def intensity_difference(state: State, phi: float) -> float:
    """<c^dag c - d^dag d> = 2 Re(e^{i phi} <a^dag b>)
    = 2 <J_X> cos(phi) - 2 <J_Y> sin(phi)."""
    return float(2.0 * (np.exp(1j * phi) * moment(state, (1, 0, 0, 1))).real)


def fringe_visibility(state: State) -> float:
    """Peak-to-mean amplitude of the first-order fringe, 2 |<a^dag b>|."""
    return 2.0 * abs(moment(state, (1, 0, 0, 1)))


# ---------------------------------------------------------------------------
# binned-count probability scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FringeScan:
    """P(n_c >= M) over a uniform phase grid plus its Fourier magnitudes.

    ``spectrum[w]`` is the magnitude of the exact Fourier coefficient at
    integer angular frequency w = 0..K/2, folded modulo the grid size K; a
    bin that no amplitude-index difference of the state reaches is exactly 0.0.
    """

    phases: np.ndarray
    bin_threshold: int
    probabilities: np.ndarray
    spectrum: np.ndarray

    def __post_init__(self):
        for arr in (self.phases, self.probabilities, self.spectrum):
            arr.setflags(write=False)

    def dominant_frequency(self) -> int:
        """Angular frequency >= 1 with the largest magnitude (mean excluded)."""
        return int(np.argmax(self.spectrum[1:])) + 1


def binned_probability_scan(
    state: FixedNState, bin_threshold: int, grid_size: int = 256
) -> FringeScan:
    """Exact P(n_c >= M)(phi) over a power-of-two phase grid, with spectrum.

    The phase enters amplitude d_m as e^{i phi m}, so with R the rotation at
    phi = 0 and G = R^dag Pi_M R (Pi_M keeps n_c >= M),
    P(phi) = sum_w c_w e^{i w phi} with c_w = sum_{m - m' = w} conj(d_m') d_m G[m', m].
    Only the columns of R at the occupied amplitudes enter G, so R is
    applied to their one-hot columns alone.  The coefficients are summed
    exactly, folded modulo the grid size K (aliasing included when K <= 2N);
    the scan is their inverse transform.
    """
    n_tot = state.total_number
    if not 0 <= bin_threshold <= n_tot:
        raise ValueError("bin threshold must lie in [0, N]")
    if grid_size < 2 or grid_size & (grid_size - 1):
        raise ValueError("grid_size must be a power of two")
    phases = 2.0 * np.pi * np.arange(grid_size) / grid_size
    occupied = np.flatnonzero(state.amplitudes)
    d = state.amplitudes[occupied]
    # n_c = N - m_d >= M  <=>  amplitude index m_d <= N - M.
    one_hot = np.zeros((1, n_tot + 1, len(occupied)), dtype=complex)
    one_hot[0, occupied, np.arange(len(occupied))] = 1.0
    rotation = _rotation(beam_splitter_matrix(0.0), n_tot + 1)
    kept = _rotate_columns(n_tot, n_tot, rotation, one_hot)[0, : n_tot - bin_threshold + 1]
    terms = (np.conj(d)[:, None] * d[None, :] * (kept.conj().T @ kept)).ravel()
    bins = (occupied[None, :] - occupied[:, None]).ravel() % grid_size
    coeffs = np.bincount(bins, terms.real, grid_size) + 1j * np.bincount(
        bins, terms.imag, grid_size
    )
    probs = grid_size * np.fft.ifft(coeffs).real
    return FringeScan(phases, bin_threshold, probs, np.abs(coeffs[: grid_size // 2 + 1]))


def cross_moment_scan(state: FixedNState, order: int, grid_size: int = 256) -> np.ndarray:
    """<c^dag^n c^n>(phi) over the uniform phase grid.

    The phase grid enters as e^{i phi m} on the amplitudes, one column per
    phase, and the rotation at phi = 0 is applied to those columns; then
    n_c!/(n_c - n)! weights the rotated probabilities.
    """
    n_tot = state.total_number
    phases = 2.0 * np.pi * np.arange(grid_size) / grid_size
    shifted = state.amplitudes[:, None] * np.exp(1j * np.outer(np.arange(n_tot + 1), phases))
    keep = max(n_tot + 1 - order, 0)  # rows m_d <= N - n, where n_c >= n
    rotation = _rotation(beam_splitter_matrix(0.0), n_tot + 1)
    rotated = _rotate_columns(n_tot, n_tot, rotation, shifted[None])[0, :keep]
    n_c = n_tot - np.arange(keep)
    return np.exp(log_factorial(n_c) - log_factorial(n_c - order)) @ np.abs(rotated) ** 2


def moment_from_fringes(values: np.ndarray, order: int) -> complex:
    """Recover <(a^dag)^n b^n> from a <c^dag^n c^n>(phi) scan.

    The e^{i n phi} Fourier coefficient of the scan carries the cross moment
    with a 1/2^n prefactor from the splitter expansion.
    """
    values = np.asarray(values, dtype=float)
    k = len(values)
    if k <= 2 * order:
        raise AliasingError(f"grid of {k} points cannot resolve frequency {order}")
    phases = 2.0 * np.pi * np.arange(k) / k
    coeff = np.sum(values * np.exp(-1j * order * phases)) / k
    return complex(2.0**order * coeff)


# ---------------------------------------------------------------------------
# spin and quadrature routes to the cross moments
# ---------------------------------------------------------------------------


def moment_from_spins(state: State, order: int) -> complex:
    """<(a^dag)^n b^n> for n <= 3 from Schwinger spin moments alone.

    n=1: <J_X> + i <J_Y>;  n=2: <J_X^2> - <J_Y^2> + i <{J_X, J_Y}>;
    n=3 combines third moments of J_X, J_Y and of the pi/4-rotated pair
    (J_{pi/4}, G_{pi/4}).  The n=3 sign layout is the one that passes the
    dense operator-identity validation (see identity_residuals).
    """
    if order == 1:
        m = schwinger_moments(state)
        return complex(m.jx + 1j * m.jy)
    if order == 2:
        m = schwinger_moments(state)
        return complex(m.jx2 - m.jy2 + 1j * m.jxy_anti)
    if order == 3:
        quarter = np.pi / 4.0
        m = schwinger_moments(state, angles=(0.0, np.pi / 2.0, quarter))
        jx3 = m.jtheta3[0.0]
        jy3 = m.jtheta3[np.pi / 2.0]
        jp3 = m.jtheta3[quarter]
        gp3 = m.gtheta3[quarter]
        return complex(
            2.0 * jx3
            - np.sqrt(2.0) * (jp3 - gp3)
            + 1j * (np.sqrt(2.0) * (jp3 + gp3) - 2.0 * jy3)
        )
    raise ValueError("the spin route covers orders 1..3 only")


# (p, q, r, s) of b^dag a, a^dag b, b^dag^2 a^2, a^dag^2 b^2, a^dag a, b^dag b
_QUADRATURE_MONOMIALS = (
    (0, 1, 1, 0), (1, 0, 0, 1), (0, 2, 2, 0), (2, 0, 0, 2), (1, 0, 1, 0), (0, 1, 0, 1),
)


@dataclass(frozen=True)
class QuadratureMoments:
    """Quadrature moments entering the homodyne routes, X = (a + a^dag)/2.

    xx..px are the cross first-order products; dd, aa, ad, da are the
    second-order blocks <(X_A^2 - P_A^2)(X_B^2 - P_B^2)>,
    <{X_A,P_A}{X_B,P_B}>, <{X_A,P_A}(X_B^2-P_B^2)>, <(X_A^2-P_A^2){X_B,P_B}>.
    Per-mode entries include the pi/4-rotated second moment, which must equal
    (<X^2> + <P^2> + <{X,P}>)/2.
    """

    xx: float
    pp: float
    xp: float
    px: float
    dd: float
    aa: float
    ad: float
    da: float
    x2_a: float
    p2_a: float
    xp_anti_a: float
    x2_rot_a: float
    x2_b: float
    p2_b: float
    xp_anti_b: float
    x2_rot_b: float

    @classmethod
    def from_state(cls, state: State) -> "QuadratureMoments":
        # The six number-conserving monomials in one pass; the other eight
        # (a b, a^dag b^dag, a^2 b^2, ..., b^dag^2) change the total number
        # and vanish exactly, for pure states and density matrices alike.
        abd, adb, mx, my, na, nb = _moments(state, _QUADRATURE_MONOMIALS).tolist()
        ab = adbd = m22 = mz = a2 = ad2 = b2 = bd2 = 0j
        return cls(
            xx=((ab + abd + adb + adbd) / 4.0).real,
            pp=(-(ab - abd - adb + adbd) / 4.0).real,
            xp=((ab - abd + adb - adbd) / 4j).real,
            px=((ab + abd - adb - adbd) / 4j).real,
            dd=((m22 + mx + my + mz) / 4.0).real,
            aa=(-(m22 - mx - my + mz) / 4.0).real,
            ad=((m22 + mx - my - mz) / 4j).real,
            da=((m22 - mx + my - mz) / 4j).real,
            x2_a=((a2 + ad2 + 2.0 * na + 1.0) / 4.0).real,
            p2_a=((-a2 - ad2 + 2.0 * na + 1.0) / 4.0).real,
            xp_anti_a=((a2 - ad2) / 2j).real,
            x2_rot_a=((-1j * a2 + 1j * ad2 + 2.0 * na + 1.0) / 4.0).real,
            x2_b=((b2 + bd2 + 2.0 * nb + 1.0) / 4.0).real,
            p2_b=((-b2 - bd2 + 2.0 * nb + 1.0) / 4.0).real,
            xp_anti_b=((b2 - bd2) / 2j).real,
            x2_rot_b=((-1j * b2 + 1j * bd2 + 2.0 * nb + 1.0) / 4.0).real,
        )


def moment_from_quadratures(state: State, order: int) -> complex:
    """<(a^dag)^n b^n> for n <= 2 from quadrature moments alone."""
    q = QuadratureMoments.from_state(state)
    if order == 1:
        return complex(q.xx + q.pp + 1j * (q.xp - q.px))
    if order == 2:
        return complex(q.dd + q.aa + 1j * (q.da - q.ad))
    raise ValueError("the quadrature route covers orders 1 and 2 only")


# ---------------------------------------------------------------------------
# operator-identity validation
# ---------------------------------------------------------------------------


def _two_mode_ops(cutoff: int) -> dict[str, np.ndarray]:
    dim = cutoff + IDENTITY_MARGIN + 1
    a = annihilation_matrix(dim)
    eye = np.eye(dim, dtype=complex)
    big_a = np.kron(a, eye)
    big_b = np.kron(eye, a)
    na, nb = [g.ravel() for g in np.indices((dim, dim))]
    inner = np.flatnonzero((na <= cutoff) & (nb <= cutoff))
    return {"a": big_a, "b": big_b, "inner": inner}


def _inner_residual(lhs: np.ndarray, rhs: np.ndarray, inner: np.ndarray) -> float:
    block = np.ix_(inner, inner)
    return float(np.max(np.abs(lhs[block] - rhs[block])))


def identity_residuals(cutoff: int = 6) -> dict[str, float]:
    """Max element-wise residuals of the measurement identities.

    Operators are built with a 4-level margin (``IDENTITY_MARGIN``) above
    the cutoff and compared on the inner block only, so the residuals
    reflect the identities, not truncation.  Two candidate sign layouts of
    the third-order spin combination are evaluated (they differ in the
    rotated-pair correction term); only 'third_order_spin', the variant
    moment_from_spins uses, is expected to vanish.
    """
    ops = _two_mode_ops(cutoff)
    a, b, inner = ops["a"], ops["b"], ops["inner"]
    ad, bd = a.conj().T, b.conj().T
    jx = (ad @ b + a @ bd) / 2.0
    jy = (ad @ b - a @ bd) / 2j
    xa, pa = (a + ad) / 2.0, (a - ad) / 2j
    xb, pb = (b + bd) / 2.0, (b - bd) / 2j

    res: dict[str, float] = {}

    # n = 2 spin route: a^dag^2 b^2 = J_X^2 - J_Y^2 + i {J_X, J_Y}
    res["second_order_spin"] = _inner_residual(
        ad @ ad @ b @ b, jx @ jx - jy @ jy + 1j * (jx @ jy + jy @ jx), inner
    )

    # first-order quadrature route
    res["first_order_quadrature"] = _inner_residual(
        ad @ b, xa @ xb + pa @ pb + 1j * (xa @ pb - pa @ xb), inner
    )

    # second-order quadrature route
    da_blk = xa @ xa - pa @ pa
    db_blk = xb @ xb - pb @ pb
    aa_blk = xa @ pa + pa @ xa
    ab_blk = xb @ pb + pb @ xb
    res["second_order_quadrature"] = _inner_residual(
        ad @ ad @ b @ b,
        da_blk @ db_blk + aa_blk @ ab_blk - 1j * aa_blk @ db_blk + 1j * da_blk @ ab_blk,
        inner,
    )

    # quadrature rotation: X_{pi/4}^2 = (X^2 + P^2 + {X, P}) / 2 per mode
    x_rot = (xa + pa) / np.sqrt(2.0)
    res["quadrature_rotation"] = _inner_residual(
        x_rot @ x_rot, (xa @ xa + pa @ pa + aa_blk) / 2.0, inner
    )

    # third-order spin route, both published sign layouts
    def j_theta(theta: float) -> np.ndarray:
        return np.cos(theta) * jx + np.sin(theta) * jy

    def cube(mat: np.ndarray) -> np.ndarray:
        return mat @ mat @ mat

    jx3, jy3 = cube(jx), cube(jy)
    jp3 = cube(j_theta(np.pi / 4.0))
    gp3 = cube(j_theta(3.0 * np.pi / 4.0))
    lhs = ad @ ad @ ad @ b @ b @ b
    root2 = np.sqrt(2.0)
    res["third_order_spin"] = _inner_residual(
        lhs,
        2.0 * jx3 - 2j * jy3 + 1j * root2 * (jp3 + gp3) - root2 * (jp3 - gp3),
        inner,
    )
    res["third_order_spin_alt"] = _inner_residual(
        lhs,
        2.0 * jx3 - 2j * jy3 + 1j * root2 * (jp3 + gp3) - root2 * (jp3 + gp3),
        inner,
    )
    return res
