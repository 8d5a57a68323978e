"""Two-mode bosonic Fock-space algebra.

A pure state with fixed total particle number N lives on the (N+1)-dimensional
sector spanned by |N-m>_a |m>_b; the amplitude vector stores d_0..d_N with d_m
multiplying |N-m>_a |m>_b.  Mixed states are truncated at a total-number
cutoff, n_a + n_b <= cutoff: every state, channel, rotation and spin operator
here conserves or only lowers the total number, so nothing ever leaves that
space.  They are built from and stored as one complete (N+1) x (N+1) block
per sector N = 0..cutoff in that same basis, about cutoff^3/3 numbers, kept
as one concatenated row-major array.  The constructor checks, the loss
channel and the coherence spread are a fixed number of whole-array passes
over it, through per-cutoff cached index arrays (``_block_index``), and so
are the mode rotations (``interferometry``).  The dense matrix over
flattened pairs (n_a, n_b) -> n_a * (cutoff + 1) + n_b is only an output,
``entries``, that no library path reads.

Number-conserving moments <(a^dag)^p (b^dag)^q a^r b^s> read only amplitude
pairs |q - s| apart, or the block elements |q - s| places off the diagonal:
a gather and a weighted sum per monomial, with the positions and ladder weights
cached per (N or cutoff, tuple of monomials) in ``_moment_table``.  A density
matrix's spin moments are nine such monomials in one pass.  With
A = a^dag b and u = e^{-i theta}/2, J_theta = u A + conj(u) A^dag, and the
identities A A^dag = N_a (N_b + 1), A^dag A = N_b (N_a + 1) and
A f(N_a, N_b) = f(N_a - 1, N_b + 1) A give
<J_X> + i <J_Y> = <a^dag b>,
<J_theta^2> = 2 Re(u^2 <a^dag^2 b^2>) + (2 <a^dag b^dag a b> + <a^dag a> + <b^dag b>)/4,
<{J_X, J_Y}> = Im <a^dag^2 b^2> and
<J_theta^3> = 2 Re(u^3 <a^dag^3 b^3> + u^2 conj(u) <3 a^dag^2 b^dag a b^2
+ 3 a^dag b^dag b^2 + 3 a^dag^2 a b + a^dag b>).

All factorial ratios go through a cached table of log(n!), correctly rounded
to float64, which keeps ladder-operator moments representable in float64 up
to N of several hundred without big-integer arithmetic.
"""

from __future__ import annotations

import decimal
import math
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
    mode b.  The vector must be finite and normalized at construction; use
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
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes not normalized: sum |d|^2 = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amplitudes: Sequence[complex]) -> "FixedNState":
        """Build a state from raw coefficients, normalizing exactly."""
        amps = np.asarray(amplitudes, dtype=complex)
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
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
    # int32 halves these arrays; the gathers convert them to intp on each
    # call, yet intp copies ran the dense_lossy benchmark about 5 % slower
    # (2501/2184/1842 against 2652/2305/1934 ops/s, seeds 1-3, 10 s runs on a
    # 2-core VM)
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


def _checked_populations(cutoff: int, flat: np.ndarray) -> np.ndarray:
    """Check the concatenated store of a density matrix at ``cutoff`` and
    return its populations as a (cutoff+1, cutoff+1) grid [n_a, n_b].

    Raises ValueError unless the entries are finite, the blocks Hermitian
    within 1e-12, the diagonal real and nonnegative (within 1e-12), the
    trace 1 within 1e-10 and every |rho_ij|^2 at most rho_ii rho_jj + EQ_TOL,
    checked in that order.
    """
    if not np.isfinite(flat.view(float)).all():
        raise ValueError("density matrix entries must be finite")
    index = _block_index(cutoff)
    count = len(flat)
    # indices in range: mode="clip" skips np.take's bounds check (and, with
    # out=, its buffered copy)
    skew = np.take(flat, index.transpose, mode="clip")
    np.conjugate(skew, out=skew)
    np.subtract(flat, skew, out=skew)
    magnitude = np.abs(skew)
    if magnitude.max() > 1e-12:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    diag = flat[index.diag]
    if np.max(np.abs(diag.imag)) > 1e-12 or np.min(diag.real) < -1e-12:
        raise ValueError("diagonal must be real and nonnegative")
    trace = float(diag.real.sum())
    if abs(trace - 1.0) > 1e-10:
        raise ValueError(f"trace must be 1 within 1e-10, got {trace!r}")
    pop = np.maximum(diag.real, 0.0)
    # the positivity temporaries reuse the memory of skew
    bound, other = skew.view(float)[:count], skew.view(float)[count:]
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
    per stored element, last 8 cutoffs cached).
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
    n_a! (n_a - r + p)! n_b! (n_b - s + q)! / ((n_a - r)! (n_b - s)!)^2.

    ``n_a`` and ``n_b`` are arrays of the result's shape.  The log sum is
    accumulated in place, term by term from the left, so each weight
    rounds exactly as the plain left-to-right sum does."""
    lowered_a = log_factorial(n_a - r)
    lowered_b = log_factorial(n_b - s)
    total = log_factorial(n_a)
    total -= lowered_a
    total += log_factorial(n_a - r + p)
    total -= lowered_a
    total += log_factorial(n_b)
    total -= lowered_b
    total += log_factorial(n_b - s + q)
    total -= lowered_b
    total *= 0.5
    return np.exp(total, out=total)


# _moment_table keeps this many (state size, exponent tuple) entries, least
# recently used out first.  An entry holds 8 bytes per kept state and 16 per
# (monomial, kept state) pair.  For the nine spin monomials that is 131 kB at
# cutoff 40, 783 kB at cutoff 100 and 76 kB at pure N = 500 (the six
# quadrature monomials: 89 kB, 536 kB, 52 kB), so 16 entries hold at most
# about 12.5 MB up to cutoff 100; an order-n cross moment of a pure state
# keeps N + 1 - n states.
MOMENT_TABLES = 16


class _MomentTable(NamedTuple):
    """What ``_moments`` reads for one state size and tuple of monomials,
    over the states that at least one monomial acts on (kept states)."""

    ket: np.ndarray  # per kept state: its amplitude index (pure) or diagonal position
    bra: np.ndarray  # (monomials, kept states): the position read, clipped on reading
    weights: np.ndarray  # (monomials, kept states): ladder weights, 0 where annihilated


@lru_cache(maxsize=MOMENT_TABLES)
def _moment_table(pure: bool, size: int, exponents: tuple[tuple[int, ...], ...]) -> _MomentTable:
    """The cached ``_MomentTable`` of the monomials whose (p, q, r, s) are
    ``exponents``, on a pure state with N = ``size`` or a density matrix
    with cutoff ``size``, as read-only arrays.

    A monomial acts on the states with n_a >= r and n_b >= s and moves n_b,
    the sector row, by q - s, inside the sector.  One mask keeps the states
    any of the monomials acts on; over them each monomial reads the element
    at its row offset (a position out of range, where it annihilates the
    state, is clipped on reading) and one (monomials, states) grid holds
    the ladder weights, zero where a monomial annihilates the state.
    """
    p, q, r, s = np.array(exponents).T[:, :, None]
    if pure:
        n_b = np.arange(size + 1)  # the amplitude index m
        n_a = size - n_b
        ket = n_b
    else:
        index = _block_index(size)
        n_a, n_b, ket = index.n_a, index.n_b, index.diag
    acts = (n_a >= r) & (n_b >= s)
    use = acts.any(axis=0)
    n_a, n_b, ket, acts = n_a[use], n_b[use], ket[use], acts[:, use]
    # states a monomial annihilates get counts that keep every factorial
    # finite, and weight 0
    weights = _ladder_weights(np.where(acts, n_a, r), np.where(acts, n_b, s), p, q, r, s)
    table = _MomentTable(
        ket=ket,
        bra=ket + q - s,
        weights=np.where(acts, weights, 0.0),
    )
    for arr in table:
        arr.setflags(write=False)
    return table


def _moments(state: State, exponents: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """``moment(state, mono)`` for the monomial of every (p, q, r, s) of
    ``exponents``, each of which must conserve the total number
    (p + q = r + s), in one pass: a gather, a product with the cached
    ladder weights of ``_moment_table`` and a sum per monomial.  For a
    single monomial these are the elements and weights of its own states,
    summed in the same order.
    """
    if isinstance(state, FixedNState):
        table = _moment_table(True, state.total_number, exponents)
        d = state.amplitudes
        values = np.conj(np.take(d, table.bra, mode="clip")) * d[table.ket]
    else:
        table = _moment_table(False, state.cutoff, exponents)
        values = np.take(state._flat, table.bra, mode="clip")
    values *= table.weights
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
    return complex(_moments(state, ((mono.p, mono.q, mono.r, mono.s),))[0])


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


def _sector_j_theta(d: np.ndarray, n_tot: int, theta: float) -> np.ndarray:
    """J_X cos(theta) + J_Y sin(theta) applied along axis 0."""
    return np.cos(theta) * _sector_jx(d, n_tot) + np.sin(theta) * _sector_jy(d, n_tot)


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
    partner G_theta = J_{theta + pi/2}) are evaluated as well.

    A pure state applies the sector operators to its amplitudes d: with
    w = J_theta d and g = G_theta d, <J_theta^2> = <w, w>,
    <J_theta^3> = <w, J_theta w> and <G_theta^3> = <g, G_theta g>.  So
    <J_theta^2> is nonnegative by construction, and a squeezed variance at
    N = 500 is not a difference of terms of order N^2/4, as it is in the
    monomial forms below.

    A density matrix reads nine normally ordered moments in one ``_moments``
    pass over the diagonal band of its blocks.  With A = a^dag b,
    J_theta = u A + conj(u) A^dag for u = e^{-i theta}/2, and the identities
    A A^dag = N_a (N_b + 1), A^dag A = N_b (N_a + 1) and
    A f(N_a, N_b) = f(N_a - 1, N_b + 1) A give

        <J_X> + i <J_Y> = <a^dag b>,
        <J_theta^2> = 2 Re(u^2 <a^dag^2 b^2>)
                      + (2 <a^dag b^dag a b> + <a^dag a> + <b^dag b>)/4,
        <{J_X, J_Y}> = Im <a^dag^2 b^2>,
        <J_theta^3> = 2 Re(u^3 <a^dag^3 b^3> + u^2 conj(u) <3 a^dag^2 b^dag a b^2
                      + 3 a^dag b^dag b^2 + 3 a^dag^2 a b + a^dag b>).

    J_Z, J_Z^2 and <N> come from the populations in both forms.
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
    for theta in dict.fromkeys(angles):  # each distinct angle once
        across = theta + np.pi / 2
        w = _sector_j_theta(d, n_tot, theta)
        g = _sector_j_theta(d, n_tot, across)
        jtheta2[theta] = float(np.vdot(w, w).real)
        jtheta3[theta] = float(np.vdot(w, _sector_j_theta(w, n_tot, theta)).real)
        gtheta3[theta] = float(np.vdot(g, _sector_j_theta(g, n_tot, across)).real)
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


# (p, q, r, s) of a^dag b, a^dag^2 b^2, a^dag b^dag a b, a^dag a, b^dag b,
# a^dag^3 b^3, and of the three that make <A A A^dag + A A^dag A + A^dag A A>
# with a^dag b: a^dag^2 b^dag a b^2, a^dag b^dag b^2, a^dag^2 a b
_SPIN_MONOMIALS = (
    (1, 0, 0, 1), (2, 0, 0, 2), (1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1),
    (3, 0, 0, 3), (2, 1, 1, 2), (1, 1, 0, 2), (2, 0, 1, 1),
)


def _density_schwinger(
    state: TwoModeDensityMatrix, angles: Sequence[float]
) -> SchwingerMoments:
    one, two, pair, mean_na, mean_nb, three, *mixed = _moments(state, _SPIN_MONOMIALS).tolist()
    # |u|^2 <A A^dag + A^dag A> and <A A A^dag + A A^dag A + A^dag A A>
    number = (2.0 * pair.real + mean_na.real + mean_nb.real) / 4.0
    cubic = 3.0 * sum(mixed) + one

    def second(theta: float) -> float:
        u = np.exp(-1j * theta) / 2.0
        return float(2.0 * (u * u * two).real + number)

    def third(theta: float) -> float:
        u = np.exp(-1j * theta) / 2.0
        return float(2.0 * (u**3 * three + u * u * u.conjugate() * cubic).real)

    index = _block_index(state.cutoff)
    probs = state._flat[index.diag].real
    jz = (index.n_a - index.n_b) / 2.0
    jtheta2, jtheta3, gtheta3 = {}, {}, {}
    for theta in dict.fromkeys(angles):  # each distinct angle once
        jtheta2[theta] = second(theta)
        jtheta3[theta] = third(theta)
        gtheta3[theta] = third(theta + np.pi / 2)
    return SchwingerMoments(
        jx=one.real,
        jy=one.imag,
        jz=float(np.sum(jz * probs)),
        ntot=float(np.sum((index.n_a + index.n_b) * probs)),
        jx2=second(0.0),
        jy2=second(np.pi / 2),
        jz2=float(np.sum(jz**2 * probs)),
        jxy_anti=two.imag,
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

