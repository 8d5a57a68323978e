"""Two-mode bosonic Fock-space algebra.

A pure state with fixed total particle number N lives on the (N+1)-dimensional
sector spanned by |N-m>_a |m>_b; the amplitude vector stores d_0..d_N with d_m
multiplying |N-m>_a |m>_b.  Mixed states are truncated at a total-number
cutoff, n_a + n_b <= cutoff: every state, channel, rotation and spin operator
here conserves or only lowers the total number, so nothing ever leaves that
space.  They are built from and stored as one complete (N+1) x (N+1) block
per sector N = 0..cutoff in that same basis, about cutoff^3/3 numbers, kept
as one concatenated row-major array.  The constructor checks, the spin
moments, the loss channel and the coherence spread are a fixed number of
whole-array passes over it, through per-cutoff cached index arrays
(``_block_index``), and so are the mode rotations (``interferometry``).
The dense matrix over flattened pairs (n_a, n_b) -> n_a * (cutoff + 1) + n_b
is only an output, ``entries``, that no library path reads.

All factorial ratios go through a cached table of log(n!), correctly rounded
to float64, which keeps ladder-operator moments representable in float64 up
to N of several hundred without big-integer arithmetic.
"""

from __future__ import annotations

import decimal
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .tolerances import EQ_TOL, NORM_TOL


def _log_factorial_table(size: int) -> np.ndarray:
    """log(0!) .. log((size-1)!), each correctly rounded to float64.

    The logs of 1..size-1 are taken in extended precision and split into a
    coarse part, a multiple of 2**-s with s chosen so that every partial sum
    of the coarse parts is exact in float64, and the exact remainder, whose
    partial sums are kept in extended precision.  Rounding the two sums once
    gives each entry, unless the error bound of the extended logs (4 eps of
    the sum) reaches a rounding midpoint; those few entries are recomputed
    from a 40-digit decimal product.  Where ``np.longdouble`` is plain
    float64, every entry takes the decimal route: slower, still exact.
    """
    logs = np.log(np.arange(1, size, dtype=np.longdouble))
    scale = 2.0 ** (52 - math.frexp(float(logs.sum()))[1])
    coarse = np.rint(logs * scale) / scale
    coarse_sums = np.concatenate(([0.0], np.cumsum(coarse.astype(float))))
    fine_sums = np.concatenate(([0.0], np.cumsum(logs - coarse).astype(float)))
    table = coarse_sums + fine_sums
    # the unrounded sum lies at table + residual; find the nearer midpoint
    residual = (coarse_sums - table) + fine_sums
    up = np.nextafter(table, np.inf) - table
    down = table - np.nextafter(table, -np.inf)
    margin = np.minimum(np.abs(residual - up / 2), np.abs(residual + down / 2))
    doubtful = np.flatnonzero(margin <= 4 * np.finfo(np.longdouble).eps * table)
    if doubtful.size:
        ctx = decimal.Context(prec=40, Emax=decimal.MAX_EMAX)
        product = decimal.Decimal(1)
        redo = set(doubtful.tolist())
        for k in range(1, int(doubtful[-1]) + 1):
            product = ctx.multiply(product, k)
            if k in redo:
                table[k] = float(ctx.ln(product))
    return table


# [+inf, log(0!), log(1!), ...]; log_factorial grows it
_log_factorials = np.array([np.inf, 0.0])


def log_factorial(n):
    """log(n!) for integers, vectorized, from a table that grows on demand.

    Entries are correctly rounded; negative integers give +inf, as
    log-gamma does.  A scalar gives a scalar and an array keeps its shape;
    input that is not integral raises ValueError.
    """
    global _log_factorials
    n = np.asarray(n)
    if n.dtype.kind != "i":
        integral = n.dtype.kind in "bu" or (
            n.dtype.kind == "f" and np.all(np.isfinite(n) & (n == np.round(n)))
        )
        if not integral:
            raise ValueError(f"log_factorial needs integers, got {n!r}")
        n = n.astype(np.int64)
    # slot 0 holds +inf for every negative n
    index = max(int(n) + 1, 0) if n.ndim == 0 else np.maximum(n + 1, 0)
    try:
        return _log_factorials[index]
    except IndexError:
        size = max(1024, 2 * int(np.max(index)))
        _log_factorials = np.concatenate(([np.inf], _log_factorial_table(size)))
        return _log_factorials[index]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedNState:
    """Pure two-mode state with a fixed total particle number.

    amplitudes[m] multiplies |N-m>_a |m>_b, i.e. the index counts quanta in
    mode b.  The vector must be normalized at construction; use
    ``from_amplitudes`` to normalize raw coefficients.
    """

    total_number: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.total_number < 0:
            raise ValueError("total_number must be >= 0")
        amps = np.asarray(self.amplitudes, dtype=complex).copy()
        if amps.shape != (self.total_number + 1,):
            raise ValueError(
                f"expected {self.total_number + 1} amplitudes, got shape {amps.shape}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes not normalized: sum |d|^2 = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amplitudes: Sequence[complex]) -> "FixedNState":
        """Build a state from raw coefficients, normalizing exactly."""
        amps = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise ValueError("cannot normalize a zero amplitude vector")
        return cls(len(amps) - 1, amps / norm)

    def probabilities(self) -> np.ndarray:
        """|d_m|^2 over the sector basis."""
        return np.abs(self.amplitudes) ** 2

    def occupation_probability(self, n_a: int, n_b: int) -> float:
        if n_a + n_b != self.total_number or not 0 <= n_b <= self.total_number:
            return 0.0
        return float(abs(self.amplitudes[n_b]) ** 2)


def _dense_rows(cutoff: int, total: int) -> np.ndarray:
    """Rows of sector ``total``'s block in the dense flattened pair basis."""
    m = np.arange(total + 1)
    return (total - m) * (cutoff + 1) + m


class _BlockIndex(NamedTuple):
    """Positions in the concatenated row-major sector blocks N = 0..cutoff,
    S elements in all, for whole-store kernels.

    The states (N, m) with n_a = N - m, n_b = m are listed in sector order,
    N ascending and m ascending within a sector.  Element arrays have one
    entry per stored element [m, m'] of a block."""

    starts: np.ndarray  # first position of each block, and S at the end
    n_a: np.ndarray  # per state
    n_b: np.ndarray  # per state
    diag: np.ndarray  # per state: the position of its diagonal element
    transpose: np.ndarray  # position of element [m', m] of element [m, m']
    row: np.ndarray  # state index of the row state (N, m)
    col: np.ndarray  # state index of the column state (N, m')


@lru_cache(maxsize=8)
def _block_index(cutoff: int) -> _BlockIndex:
    """The cached ``_BlockIndex`` of a cutoff, as read-only arrays; element
    positions are int32 where they fit.  It retains 12 bytes per stored
    element and 24 per state (0.31 MB at cutoff 40, 4.3 MB at cutoff 100),
    and the cache keeps the last 8 cutoffs."""
    sizes = np.arange(1, cutoff + 2)
    starts = np.concatenate(([0], np.cumsum(sizes**2)))
    count = int(starts[-1])
    first_state = (sizes - 1) * sizes // 2
    state_total = np.repeat(sizes - 1, sizes)
    n_b = np.arange(len(state_total)) - first_state[state_total]
    total = np.repeat(sizes - 1, sizes**2)
    m, m_col = np.divmod(np.arange(count) - starts[total], total + 1)
    dtype = np.int32 if count < 2**31 else np.int64
    index = _BlockIndex(
        starts=starts,
        n_a=state_total - n_b,
        n_b=n_b,
        diag=starts[state_total] + n_b * (state_total + 2),
        transpose=(starts[total] + m_col * (total + 1) + m).astype(dtype),
        row=(first_state[total] + m).astype(dtype),
        col=(first_state[total] + m_col).astype(dtype),
    )
    for arr in index:
        arr.setflags(write=False)
    return index


def _split_blocks(flat: np.ndarray, cutoff: int) -> list[np.ndarray]:
    """The sector blocks of a concatenated store, as views of it."""
    starts = _block_index(cutoff).starts
    return [
        flat[start:stop].reshape(n, n)
        for n, (start, stop) in enumerate(zip(starts[:-1], starts[1:]), 1)
    ]


# Largest scratch buffer, in bytes, that the density-matrix checks keep per
# thread between calls: 24 bytes per stored element, so stores up to cutoff
# 100 (8.4 MB) reuse one buffer; larger ones get a buffer for the call.
SCRATCH_BYTES = 8 * 2**20

_scratch = threading.local()


def _scratch_buffer(count: int) -> np.ndarray:
    """``count`` float64 scratch entries; up to ``SCRATCH_BYTES`` they come
    from one buffer kept by the calling thread, so repeated checks touch no
    fresh pages."""
    if 8 * count > SCRATCH_BYTES:
        return np.empty(count)
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None or len(buffer) < count:
        buffer = _scratch.buffer = np.empty(count)
    return buffer[:count]


def _checked_populations(cutoff: int, flat: np.ndarray) -> np.ndarray:
    """Check the concatenated store of a density matrix at ``cutoff`` and
    return its populations as a (cutoff+1, cutoff+1) grid [n_a, n_b].

    Raises ValueError unless the entries are finite, the blocks Hermitian
    within 1e-12, the diagonal real and nonnegative (within 1e-12), the
    trace 1 within 1e-10 and every |rho_ij|^2 at most rho_ii rho_jj + EQ_TOL,
    checked in that order.  The Hermiticity and positivity temporaries live
    in one scratch buffer of 24 bytes per element (``_scratch_buffer``).
    """
    if not np.isfinite(flat.view(float)).all():
        raise ValueError("density matrix entries must be finite")
    index = _block_index(cutoff)
    count = len(flat)
    scratch = _scratch_buffer(3 * count)
    skew = scratch[: 2 * count].view(complex)
    magnitude = scratch[2 * count :]
    # indices in range: mode="clip" spares np.take's buffered copy for out=
    np.take(flat, index.transpose, out=skew, mode="clip")
    np.conjugate(skew, out=skew)
    np.subtract(flat, skew, out=skew)
    if np.abs(skew, out=magnitude).max() > 1e-12:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    diag = flat[index.diag]
    if np.max(np.abs(diag.imag)) > 1e-12 or np.min(diag.real) < -1e-12:
        raise ValueError("diagonal must be real and nonnegative")
    trace = float(diag.real.sum())
    if abs(trace - 1.0) > 1e-10:
        raise ValueError(f"trace must be 1 within 1e-10, got {trace!r}")
    pop = np.maximum(diag.real, 0.0)
    bound, other = scratch[:count], scratch[count : 2 * count]
    np.take(pop, index.row, out=bound, mode="clip")
    bound *= np.take(pop, index.col, out=other, mode="clip")
    bound += EQ_TOL
    np.abs(flat, out=magnitude)
    magnitude *= magnitude
    if (magnitude > bound).any():
        raise ValueError("off-diagonal element exceeds the positivity bound")
    populations = np.zeros((cutoff + 1, cutoff + 1))
    populations[index.n_a, index.n_b] = pop
    return populations


class TwoModeDensityMatrix:
    """Hermitian, unit-trace density matrix on total numbers n_a + n_b <= cutoff.

    Built from and stored as one complete block per total-number sector
    N = 0..cutoff: blocks[N][m, m'] = <N-m, m| rho |N-m', m'>, the
    |N-m>_a |m>_b basis of FixedNState, so the state takes sum (N+1)^2,
    about cutoff^3/3, numbers.  Coherence between sectors, and occupation
    above the cutoff, are not representable.

    The constructor takes ``blocks`` as cutoff + 1 square arrays of sizes
    1..cutoff+1, concatenates them into one store and enforces finite
    entries, Hermiticity, unit trace, a real nonnegative diagonal and the
    necessary positivity condition |rho_ij|^2 <= rho_ii * rho_jj, each over
    the whole store at once (``_checked_populations``).  The library's own
    producers hand their concatenated store to the same checks through
    ``_from_store``.  Besides the store, an instance keeps its
    (cutoff+1)^2 populations; ``blocks`` are views of the store, made on
    first access.  The checks read the per-cutoff ``_block_index`` (12 bytes
    per stored element, last 8 cutoffs cached) and keep their temporaries in
    one scratch buffer per thread, 24 bytes per stored element, retained up
    to ``SCRATCH_BYTES`` (8 MiB, stores up to cutoff 100).
    """

    __slots__ = ("cutoff", "_flat", "_populations", "_blocks")

    def __init__(self, cutoff: int, blocks):
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        blocks = list(blocks)
        if [np.shape(b) for b in blocks] != [(n, n) for n in range(1, cutoff + 2)]:
            raise ValueError(f"sector blocks do not match cutoff {cutoff}")
        flat = np.asarray(np.concatenate([np.ravel(b) for b in blocks]), dtype=complex)
        self._take_store(cutoff, flat)

    @classmethod
    def _from_store(cls, cutoff: int, flat: np.ndarray) -> "TwoModeDensityMatrix":
        """The density matrix whose concatenated store is ``flat`` (complex,
        sum (N+1)^2 entries), checked as the constructor checks blocks.  It
        takes the array over without a copy and makes it read-only."""
        rho = cls.__new__(cls)
        rho._take_store(cutoff, flat)
        return rho

    def _take_store(self, cutoff: int, flat: np.ndarray) -> None:
        populations = _checked_populations(cutoff, flat)
        for arr in (flat, populations):
            arr.setflags(write=False)
        self.cutoff = cutoff
        self._flat = flat
        self._populations = populations
        self._blocks = None

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The sector blocks N = 0..cutoff as read-only views of the store."""
        if self._blocks is None:
            self._blocks = tuple(_split_blocks(self._flat, self.cutoff))
        return self._blocks

    @property
    def entries(self) -> np.ndarray:
        """Dense ((cutoff+1)^2, (cutoff+1)^2) matrix over the flattened pair
        basis n_a * (cutoff + 1) + n_b, built on each access (cutoff^4 memory).

        No library path reads it.  Its readers are the benchmark harness's
        dense-embedding check (``perfbench/dense_lossy.py``) and its byte
        count of dense results (``perfbench/tracer.py``), and tests that
        compare against dense operator algebra."""
        dim = (self.cutoff + 1) ** 2
        ent = np.zeros((dim, dim), dtype=complex)
        for total, block in enumerate(self.blocks):
            rows = _dense_rows(self.cutoff, total)
            ent[np.ix_(rows, rows)] = block
        ent.setflags(write=False)
        return ent

    def diagonal_probabilities(self) -> np.ndarray:
        """Occupation probabilities as a read-only (cutoff+1, cutoff+1) array [n_a, n_b]."""
        return self._populations

    def coherences(self, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored element <n', m'+order| rho |n'+order, m'> as arrays
        n', m' and values; they sit on the order-th subdiagonal of each block.

        Listed by n' + m' ascending, then m' ascending: the same sequence of
        (n', m') for every order, cut at n' + m' = cutoff - order.
        """
        index = _block_index(self.cutoff)
        bra = index.n_b >= order
        return index.n_a[bra], index.n_b[bra] - order, self._flat[index.diag[bra] - order]

    def max_supported_total(self, eps: float) -> int:
        """Largest n_a + n_b carrying probability above ``eps``."""
        probs = self.diagonal_probabilities()
        na, nb = np.indices(probs.shape)
        totals = (na + nb)[probs > eps]
        return int(totals.max()) if totals.size else 0


@dataclass(frozen=True)
class OperatorMonomial:
    """Normally ordered ladder product (a^dag)^p (b^dag)^q a^r b^s."""

    p: int
    q: int
    r: int
    s: int

    def __post_init__(self):
        if min(self.p, self.q, self.r, self.s) < 0:
            raise ValueError("exponents must be nonnegative")

    @classmethod
    def cross(cls, n: int) -> "OperatorMonomial":
        """The order-n cross moment (a^dag)^n b^n."""
        return cls(n, 0, 0, n)

    @property
    def adjoint(self) -> "OperatorMonomial":
        return OperatorMonomial(self.r, self.s, self.p, self.q)


@dataclass(frozen=True)
class SchwingerMoments:
    """First, second and selected third moments of the Schwinger spin operators.

    J_X = (a^dag b + a b^dag)/2, J_Y = (a^dag b - a b^dag)/(2i),
    J_Z = (a^dag a - b^dag b)/2, Ntot = a^dag a + b^dag b.
    jtheta2/jtheta3 hold <J_theta^2>/<J_theta^3> for the requested in-plane
    angles, with J_theta = J_X cos(theta) + J_Y sin(theta); gtheta3 holds the
    third moment of the orthogonal component G_theta = J_{theta + pi/2}.
    """

    jx: float
    jy: float
    jz: float
    ntot: float
    jx2: float
    jy2: float
    jz2: float
    jxy_anti: float
    jtheta2: Mapping[float, float] = field(default_factory=dict)
    jtheta3: Mapping[float, float] = field(default_factory=dict)
    gtheta3: Mapping[float, float] = field(default_factory=dict)

    @property
    def jx_var(self) -> float:
        return self.jx2 - self.jx**2

    @property
    def jy_var(self) -> float:
        return self.jy2 - self.jy**2

    @property
    def jz_var(self) -> float:
        return self.jz2 - self.jz**2


State = FixedNState | TwoModeDensityMatrix


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def _as_monomial(mono) -> OperatorMonomial:
    if isinstance(mono, OperatorMonomial):
        return mono
    return OperatorMonomial(*mono)


def _ladder_weights(n_a: np.ndarray, n_b: np.ndarray, p, q, r, s) -> np.ndarray:
    """<n_a - r + p, n_b - s + q| (a^dag)^p (b^dag)^q a^r b^s |n_a, n_b> for
    n_a >= r and n_b >= s, through log factorials: the square root of
    n_a! (n_a - r + p)! n_b! (n_b - s + q)! / ((n_a - r)! (n_b - s)!)^2."""
    lowered_a = log_factorial(n_a - r)
    lowered_b = log_factorial(n_b - s)
    return np.exp(
        0.5
        * (
            log_factorial(n_a)
            - lowered_a
            + log_factorial(n_a - r + p)
            - lowered_a
            + log_factorial(n_b)
            - lowered_b
            + log_factorial(n_b - s + q)
            - lowered_b
        )
    )


def _moments(state: State, monos: Sequence[OperatorMonomial]) -> np.ndarray:
    """``moment(state, mono)`` for every monomial of ``monos``, each of which
    must conserve the total number (p + q = r + s), in one pass.

    A monomial acts on the states with n_a >= r and n_b >= s and moves n_b,
    the sector row, by q - s, inside the sector.  One mask keeps the states
    any of the monomials acts on; over them, one gather takes the element
    each monomial reads and one (monomials, states) grid holds the ladder
    weights, zero where a monomial annihilates the state.  For a single
    monomial these are the elements and weights of its own states, summed
    in the same order.
    """
    p, q, r, s = np.array([(m.p, m.q, m.r, m.s) for m in monos]).T[:, :, None]
    if isinstance(state, FixedNState):
        n_b = np.arange(state.total_number + 1)  # the amplitude index m
        n_a = state.total_number - n_b
    else:
        index = _block_index(state.cutoff)
        n_a, n_b = index.n_a, index.n_b
    acts = (n_a >= r) & (n_b >= s)
    use = acts.any(axis=0)
    n_a, n_b, acts = n_a[use], n_b[use], acts[:, use]
    if isinstance(state, FixedNState):
        d = state.amplitudes
        bra = np.take(d, n_b + q - s, mode="clip")  # the amplitude after the monomial acts
        values = np.conj(bra) * d[n_b]
    else:
        values = np.take(state._flat, index.diag[use] + q - s, mode="clip")
    # states a monomial annihilates get counts that keep every factorial
    # finite, and weight 0
    weights = _ladder_weights(np.where(acts, n_a, r), np.where(acts, n_b, s), p, q, r, s)
    values *= np.where(acts, weights, 0.0)
    return values.sum(axis=1)


def moment(state: State, mono) -> complex:
    """Expectation of the normally ordered product (a^dag)^p (b^dag)^q a^r b^s.

    For fixed-N pure states this is the amplitude-pair sum; for density
    matrices it is Tr(rho * monomial), exact because every stored sector is
    complete.  A monomial that changes the total number gives exactly 0j.
    """
    mono = _as_monomial(mono)
    if mono.p + mono.q != mono.r + mono.s:
        return 0j
    return complex(_moments(state, [mono])[0])


def cross_moment(state: State, n: int) -> complex:
    """<(a^dag)^n b^n>, the order-n coherence moment."""
    return moment(state, OperatorMonomial.cross(n))


# ---------------------------------------------------------------------------
# Schwinger spin moments
# ---------------------------------------------------------------------------


def ladder_coefficients(n_tot: int) -> np.ndarray:
    """sqrt((m+1)(N-m)) for m = 0..N-1: the b^dag a element coupling m to m+1
    in the |N-m>_a |m>_b sector basis (a^dag b couples m+1 back to m)."""
    m = np.arange(n_tot)
    return np.sqrt((m + 1) * (n_tot - m))


def _sector_jx(d: np.ndarray, n_tot: int) -> np.ndarray:
    """J_X applied along axis 0 (a sector vector, or a block's columns)."""
    up = ladder_coefficients(n_tot).reshape((-1,) + (1,) * (d.ndim - 1))
    out = np.zeros_like(d)
    out[:-1] += 0.5 * up * d[1:]
    out[1:] += 0.5 * up * d[:-1]
    return out


def _sector_jy(d: np.ndarray, n_tot: int) -> np.ndarray:
    """J_Y applied along axis 0 (a sector vector, or a block's columns)."""
    up = ladder_coefficients(n_tot).reshape((-1,) + (1,) * (d.ndim - 1))
    out = np.zeros_like(d)
    out[:-1] += up * d[1:] / 2j
    out[1:] -= up * d[:-1] / 2j
    return out


def _sector_jz_values(n_tot: int) -> np.ndarray:
    return (n_tot - 2.0 * np.arange(n_tot + 1)) / 2.0


def _sector_j_theta_power(d: np.ndarray, n_tot: int, theta: float, power: int) -> np.ndarray:
    """(J_X cos(theta) + J_Y sin(theta))^power applied along axis 0."""
    c, s = np.cos(theta), np.sin(theta)
    vec = d
    for _ in range(power):
        vec = c * _sector_jx(vec, n_tot) + s * _sector_jy(vec, n_tot)
    return vec


def annihilation_matrix(dim: int) -> np.ndarray:
    """Single-mode annihilation operator truncated to ``dim`` levels."""
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def schwinger_moments(
    state: State, angles: Sequence[float] = ()
) -> SchwingerMoments:
    """Schwinger spin moments of a two-mode state.

    For each requested angle the second and third moments of the rotated
    in-plane component J_theta (and the third moment of its orthogonal
    partner G_theta) are evaluated as well.
    """
    if isinstance(state, FixedNState):
        return _pure_schwinger(state, angles)
    return _density_schwinger(state, angles)


def _pure_schwinger(state: FixedNState, angles: Sequence[float]) -> SchwingerMoments:
    n_tot = state.total_number
    d = state.amplitudes
    jx_d = _sector_jx(d, n_tot)
    jy_d = _sector_jy(d, n_tot)
    jz_vals = _sector_jz_values(n_tot)
    probs = np.abs(d) ** 2
    jtheta2, jtheta3, gtheta3 = {}, {}, {}
    for theta in angles:
        jtheta2[theta] = _pure_third(d, n_tot, theta, power=2)
        jtheta3[theta] = _pure_third(d, n_tot, theta, power=3)
        gtheta3[theta] = _pure_third(d, n_tot, theta + np.pi / 2, power=3)
    return SchwingerMoments(
        jx=float(np.vdot(d, jx_d).real),
        jy=float(np.vdot(d, jy_d).real),
        jz=float(np.sum(jz_vals * probs)),
        ntot=float(n_tot),
        jx2=float(np.vdot(jx_d, jx_d).real),
        jy2=float(np.vdot(jy_d, jy_d).real),
        jz2=float(np.sum(jz_vals**2 * probs)),
        jxy_anti=float(2.0 * np.vdot(jx_d, jy_d).real),
        jtheta2=jtheta2,
        jtheta3=jtheta3,
        gtheta3=gtheta3,
    )


def _pure_third(d: np.ndarray, n_tot: int, theta: float, power: int) -> float:
    return float(np.vdot(d, _sector_j_theta_power(d, n_tot, theta, power)).real)


# (coefficient of a^dag b, coefficient of b^dag a) in J_X and J_Y
_JX = (0.5, 0.5)
_JY = (-0.5j, 0.5j)


def _in_plane(theta: float) -> tuple[complex, complex]:
    """The coefficients of J_X cos(theta) + J_Y sin(theta)."""
    c, s = np.cos(theta), np.sin(theta)
    return (c - 1j * s) / 2.0, (c + 1j * s) / 2.0


class _SpinLayout(NamedTuple):
    """Where a^dag b and b^dag a read in the concatenated blocks.  Within a
    block, row m + 1 sits N + 1 positions after row m; position S stands
    for "outside the block", where the kernels append one zero."""

    diag: np.ndarray  # per state: the position of its diagonal element
    above: np.ndarray  # position of element [m + 1, m'], S at m = N
    below: np.ndarray  # position of element [m - 1, m'], S at m = 0
    ladder: np.ndarray  # sqrt((m + 1)(N - m)) of row m, with a 0 at position S


def _spin_layout(index: _BlockIndex) -> _SpinLayout:
    count = int(index.starts[-1])
    pos = np.arange(count, dtype=index.row.dtype)
    # per state: the row width N + 1, and the a^dag b weight
    # sqrt((m + 1)(N - m)) = sqrt((n_b + 1) n_a)
    width = np.take((index.n_a + index.n_b + 1).astype(pos.dtype), index.row)
    weight = np.sqrt((index.n_b + 1.0) * index.n_a)
    return _SpinLayout(
        diag=index.diag,
        above=np.where(np.take(index.n_a > 0, index.row), pos + width, count),
        below=np.where(np.take(index.n_b > 0, index.row), pos - width, count),
        ladder=np.append(np.take(weight, index.row), 0.0),
    )


def _spin_step(ext: np.ndarray, layout: _SpinLayout, coefficients) -> np.ndarray:
    """(u a^dag b + v b^dag a) X for every sector block at once, (u, v) =
    ``coefficients``.  Within a block a^dag b takes row m + 1 to row m with
    weight sqrt((m+1)(N-m)), and b^dag a takes row m - 1 to row m with the
    weight of row m - 1.  ``ext`` is the concatenated store of X with one
    zero appended at position S, and so is the result."""
    u, v = coefficients
    out = np.zeros_like(ext)
    out[:-1] = u * layout.ladder[:-1] * np.take(ext, layout.above)
    out[:-1] += v * np.take(layout.ladder * ext, layout.below)
    return out


def _spin_trace(ext: np.ndarray, layout: _SpinLayout, coefficients) -> float:
    """Tr((u a^dag b + v b^dag a) X), reading only the elements of X that
    land on the diagonal; ``ext`` as in ``_spin_step``."""
    u, v = coefficients
    above, below = layout.above[layout.diag], layout.below[layout.diag]
    terms = u * layout.ladder[layout.diag] * ext[above] + v * layout.ladder[below] * ext[below]
    return float(terms.sum().real)


def _density_schwinger(
    state: TwoModeDensityMatrix, angles: Sequence[float]
) -> SchwingerMoments:
    # <O> = Tr(O rho); the last factor of each product only forms a trace
    index = _block_index(state.cutoff)
    layout = _spin_layout(index)
    rho = np.append(state._flat, 0.0)
    probs = rho[index.diag].real
    jz = (index.n_a - index.n_b) / 2.0

    def trace(ext: np.ndarray, coefficients) -> float:
        return _spin_trace(ext, layout, coefficients)

    def power(coefficients, times: int) -> np.ndarray:
        ext = rho
        for _ in range(times):
            ext = _spin_step(ext, layout, coefficients)
        return ext

    jx_r, jy_r = power(_JX, 1), power(_JY, 1)
    jtheta2, jtheta3, gtheta3 = {}, {}, {}
    for theta in dict.fromkeys(angles):  # each distinct angle once
        along, across = _in_plane(theta), _in_plane(theta + np.pi / 2)
        once = power(along, 1)
        jtheta2[theta] = trace(once, along)
        jtheta3[theta] = trace(_spin_step(once, layout, along), along)
        gtheta3[theta] = trace(power(across, 2), across)
    return SchwingerMoments(
        jx=trace(rho, _JX),
        jy=trace(rho, _JY),
        jz=float(np.sum(jz * probs)),
        ntot=float(np.sum((index.n_a + index.n_b) * probs)),
        jx2=trace(jx_r, _JX),
        jy2=trace(jy_r, _JY),
        jz2=float(np.sum(jz**2 * probs)),
        jxy_anti=trace(jy_r, _JX) + trace(jx_r, _JY),
        jtheta2=jtheta2,
        jtheta3=jtheta3,
        gtheta3=gtheta3,
    )


# ---------------------------------------------------------------------------
# distributions and conversions
# ---------------------------------------------------------------------------


# Outcome probabilities at or below this are dropped from number distributions.
DISTRIBUTION_FLOOR = 1e-15


def number_distribution(state: State) -> dict[int, float]:
    """Probability of each outcome of 2*J_Z = n_a - n_b, dropping those at
    or below 1e-15 (``DISTRIBUTION_FLOOR``)."""
    if isinstance(state, FixedNState):
        n_tot = state.total_number
        probs = state.probabilities()
        dist = {int(n_tot - 2 * m): float(p) for m, p in enumerate(probs) if p > DISTRIBUTION_FLOOR}
        return dict(sorted(dist.items()))
    return _difference_distribution(state.diagonal_probabilities())


def _difference_distribution(grid: np.ndarray) -> dict[int, float]:
    """P(n_a - n_b) from a square grid of occupation probabilities [n_a, n_b],
    one line sum per difference, dropping values at or below
    ``DISTRIBUTION_FLOOR``."""
    last = len(grid) - 1
    dist: dict[int, float] = {}
    for diff in range(-last, last + 1):
        p = float(np.diagonal(grid, -diff).sum())  # the n_a - n_b = diff line
        if p > DISTRIBUTION_FLOOR:
            dist[diff] = p
    return dist


def to_density_matrix(state: FixedNState) -> TwoModeDensityMatrix:
    """Rank-1 density matrix of a fixed-N pure state, cutoff = N."""
    n_tot = state.total_number
    starts = _block_index(n_tot).starts
    flat = np.zeros(starts[-1], dtype=complex)
    top = flat[starts[-2] :].reshape(n_tot + 1, n_tot + 1)
    np.outer(state.amplitudes, state.amplitudes.conj(), out=top)
    return TwoModeDensityMatrix._from_store(n_tot, flat)

