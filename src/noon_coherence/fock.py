"""Two-mode bosonic Fock-space algebra.

A pure state with fixed total particle number N lives on the (N+1)-dimensional
sector spanned by |N-m>_a |m>_b; the amplitude vector stores d_0..d_N with d_m
multiplying |N-m>_a |m>_b.  Mixed states are truncated at a total-number
cutoff, n_a + n_b <= cutoff: every state, channel, rotation and spin operator
here conserves or only lowers the total number, so nothing ever leaves that
space.  They are stored as one complete (N+1) x (N+1) block per sector
N = 0..cutoff in that same basis, about cutoff^3/3 numbers, and each
operation works block by block.  The dense matrix over flattened pairs
(n_a, n_b) -> n_a * (cutoff + 1) + n_b is only an input and output format.

All factorial ratios go through a cached table of log(n!), correctly rounded
to float64, which keeps ladder-operator moments representable in float64 up
to N of several hundred without big-integer arithmetic.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

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


@lru_cache(maxsize=16)
def _sector_layout(cutoff: int) -> tuple[np.ndarray, ...]:
    """The states with n_a + n_b <= cutoff in sector order, N = n_a + n_b
    ascending and n_b (the row inside the sector block) ascending within a
    sector, as read-only arrays: n_a, n_b, and the position of the state's
    diagonal element in the concatenated row-major blocks."""
    columns = []
    offset = 0
    for total in range(cutoff + 1):
        n_b = np.arange(total + 1)
        columns.append((total - n_b, n_b, offset + n_b * (total + 2)))
        offset += (total + 1) ** 2
    layout = tuple(np.concatenate(column) for column in zip(*columns))
    for arr in layout:
        arr.setflags(write=False)
    return layout


class TwoModeDensityMatrix:
    """Hermitian, unit-trace density matrix on total numbers n_a + n_b <= cutoff.

    Stored as one complete block per total-number sector N = 0..cutoff:
    blocks[N][m, m'] = <N-m, m| rho |N-m', m'>, the |N-m>_a |m>_b basis of
    FixedNState, so the state takes sum (N+1)^2, about cutoff^3/3, numbers.
    Coherence between sectors is not representable.

    The constructor takes the dense ((cutoff+1)^2, (cutoff+1)^2) matrix over
    the flattened pair basis n_a * (cutoff + 1) + n_b and rejects elements
    between different sectors, or on totals n_a + n_b > cutoff, above 1e-12.
    Construction enforces Hermiticity, unit trace, nonnegative diagonal and
    the necessary positivity condition |rho_ij|^2 <= rho_ii * rho_jj.
    """

    __slots__ = ("cutoff", "blocks", "_flat", "_populations")

    def __init__(self, cutoff: int, entries):
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        dim = (cutoff + 1) ** 2
        ent = np.asarray(entries, dtype=complex)
        if ent.shape != (dim, dim):
            raise ValueError(f"expected entries of shape {(dim, dim)}, got {ent.shape}")
        n_a, n_b = np.divmod(np.arange(dim), cutoff + 1)
        rows, cols = np.nonzero(np.abs(ent) > 1e-12)
        if np.any(n_a[rows] + n_b[rows] != n_a[cols] + n_b[cols]):
            raise ValueError(
                "density matrix has coherence between total-number sectors "
                "above 1e-12; only number-conserving states are supported"
            )
        if np.any(n_a[rows] + n_b[rows] > cutoff):
            raise ValueError(
                f"density matrix occupies total numbers n_a + n_b > cutoff {cutoff} "
                "above 1e-12; the cutoff bounds the total number"
            )
        sectors = [_dense_rows(cutoff, total) for total in range(cutoff + 1)]
        self._store(cutoff, [ent[np.ix_(rows, rows)] for rows in sectors])

    @classmethod
    def _from_blocks(cls, cutoff: int, blocks) -> "TwoModeDensityMatrix":
        """Build from sector blocks laid out as in ``blocks``, validated alike."""
        rho = cls.__new__(cls)
        rho._store(cutoff, blocks)
        return rho

    def _store(self, cutoff: int, blocks) -> None:
        sizes = range(1, cutoff + 2)
        if [np.shape(b) for b in blocks] != [(n, n) for n in sizes]:
            raise ValueError(f"sector blocks do not match cutoff {cutoff}")
        flat = np.concatenate([np.asarray(b, dtype=complex).ravel() for b in blocks])
        parts = np.split(flat, np.cumsum(np.square(sizes))[:-1])
        views = [part.reshape(n, n) for part, n in zip(parts, sizes)]
        if max(np.max(np.abs(b - b.conj().T)) for b in views) > 1e-12:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        n_a, n_b, diag_pos = _sector_layout(cutoff)
        diag = flat[diag_pos]
        if np.max(np.abs(diag.imag)) > 1e-12 or np.min(diag.real) < -1e-12:
            raise ValueError("diagonal must be real and nonnegative")
        trace = float(diag.real.sum())
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"trace must be 1 within 1e-10, got {trace!r}")
        for b in views:
            pop = np.maximum(b.diagonal().real, 0.0)
            if np.any(np.abs(b) ** 2 > np.outer(pop, pop) + EQ_TOL):
                raise ValueError("off-diagonal element exceeds the positivity bound")
        populations = np.zeros((cutoff + 1, cutoff + 1))
        populations[n_a, n_b] = np.maximum(diag.real, 0.0)
        for arr in (flat, populations):
            arr.setflags(write=False)
        self.cutoff = cutoff
        self.blocks = tuple(views)
        self._flat = flat
        self._populations = populations

    @property
    def entries(self) -> np.ndarray:
        """Dense ((cutoff+1)^2, (cutoff+1)^2) matrix over the flattened pair
        basis, built on each access (cutoff^4 memory; no library path uses it)."""
        dim = (self.cutoff + 1) ** 2
        ent = np.zeros((dim, dim), dtype=complex)
        for total, block in enumerate(self.blocks):
            rows = _dense_rows(self.cutoff, total)
            ent[np.ix_(rows, rows)] = block
        ent.setflags(write=False)
        return ent

    def index(self, n_a: int, n_b: int) -> int:
        """Row of |n_a, n_b> in the dense ``entries`` matrix."""
        if not (0 <= n_a <= self.cutoff and 0 <= n_b <= self.cutoff):
            raise IndexError(f"occupation ({n_a}, {n_b}) outside cutoff {self.cutoff}")
        return n_a * (self.cutoff + 1) + n_b

    def element(self, bra: tuple[int, int], ket: tuple[int, int]) -> complex:
        """<bra_a, bra_b| rho |ket_a, ket_b>."""
        for n_a, n_b in (bra, ket):
            self.index(n_a, n_b)  # range check
        total = sum(bra)
        if sum(ket) != total or total > self.cutoff:
            return 0j
        return complex(self.blocks[total][bra[1], ket[1]])

    def diagonal_probabilities(self) -> np.ndarray:
        """Occupation probabilities as a read-only (cutoff+1, cutoff+1) array [n_a, n_b]."""
        return self._populations

    def coherences(self, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored element <n', m'+order| rho |n'+order, m'> as arrays
        n', m' and values; they sit on the order-th subdiagonal of each block."""
        n_a, n_b, diag_pos = _sector_layout(self.cutoff)
        bra = n_b >= order
        return n_a[bra], n_b[bra] - order, self._flat[diag_pos[bra] - order]

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


def _pure_moment(state: FixedNState, mono: OperatorMonomial) -> complex:
    # Number conservation: (p - r) extra quanta in a must balance (s - q)
    # removed from b, otherwise the expectation vanishes identically.
    if mono.p - mono.r != mono.s - mono.q:
        return 0j
    n_tot = state.total_number
    d = state.amplitudes
    k = mono.s - mono.q
    m = np.arange(n_tot + 1)
    mb = m - k  # bra index after the monomial acts
    ok = (m >= mono.s) & (n_tot - m >= mono.r) & (mb >= 0) & (mb <= n_tot)
    if not np.any(ok):
        return 0j
    m, mb = m[ok], mb[ok]
    logf = 0.5 * (
        log_factorial(m)
        - log_factorial(m - mono.s)
        + log_factorial(n_tot - m)
        - log_factorial(n_tot - m - mono.r)
        + log_factorial(mb)
        - log_factorial(m - mono.s)
        + log_factorial(n_tot - mb)
        - log_factorial(n_tot - m - mono.r)
    )
    return complex(np.sum(np.conj(d[mb]) * d[m] * np.exp(logf)))


def _density_moment(state: TwoModeDensityMatrix, mono: OperatorMonomial) -> complex:
    if mono.p + mono.q != mono.r + mono.s:
        return 0j  # the monomial leaves the sector: no block element connects
    # Within a sector the monomial moves n_b by q - s, i.e. the block column
    # of a row by the same amount; the target stays inside the sector.
    shift = mono.q - mono.s
    na, nb, diag_pos = _sector_layout(state.cutoff)
    use = (na >= mono.r) & (nb >= mono.s)
    if not np.any(use):
        return 0j
    na, nb = na[use], nb[use]
    ta, tb = na - mono.r + mono.p, nb + shift
    factor = np.exp(
        0.5
        * (
            log_factorial(na)
            - log_factorial(na - mono.r)
            + log_factorial(ta)
            - log_factorial(na - mono.r)
            + log_factorial(nb)
            - log_factorial(nb - mono.s)
            + log_factorial(tb)
            - log_factorial(nb - mono.s)
        )
    )
    return complex(np.sum(state._flat[diag_pos[use] + shift] * factor))


def moment(state: State, mono) -> complex:
    """Expectation of the normally ordered product (a^dag)^p (b^dag)^q a^r b^s.

    For fixed-N pure states this is the amplitude-pair sum; for density
    matrices it is Tr(rho * monomial), exact because every stored sector is
    complete.  A monomial that changes the total number gives exactly 0j.
    """
    mono = _as_monomial(mono)
    if isinstance(state, FixedNState):
        return _pure_moment(state, mono)
    return _density_moment(state, mono)


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


def _density_schwinger(
    state: TwoModeDensityMatrix, angles: Sequence[float]
) -> SchwingerMoments:
    names = ("jx", "jy", "jz", "ntot", "jx2", "jy2", "jz2", "jxy_anti")
    sums = dict.fromkeys(names, 0.0)
    jtheta2, jtheta3, gtheta3 = (dict.fromkeys(angles, 0.0) for _ in range(3))
    # <O> = sum over sectors of Tr(O_N rho_N), O_N tridiagonal (or diagonal)
    for n_tot, rho in enumerate(state.blocks):
        jx_r, jy_r = _sector_jx(rho, n_tot), _sector_jy(rho, n_tot)
        jz = _sector_jz_values(n_tot)
        probs = rho.diagonal().real
        sums["jx"] += np.trace(jx_r).real
        sums["jy"] += np.trace(jy_r).real
        sums["jz"] += np.sum(jz * probs)
        sums["ntot"] += n_tot * np.sum(probs)
        sums["jx2"] += np.trace(_sector_jx(jx_r, n_tot)).real
        sums["jy2"] += np.trace(_sector_jy(jy_r, n_tot)).real
        sums["jz2"] += np.sum(jz**2 * probs)
        sums["jxy_anti"] += np.trace(_sector_jx(jy_r, n_tot) + _sector_jy(jx_r, n_tot)).real
        for theta in jtheta2:  # each distinct angle once
            jtheta2[theta] += _density_third(rho, n_tot, theta, power=2)
            jtheta3[theta] += _density_third(rho, n_tot, theta, power=3)
            gtheta3[theta] += _density_third(rho, n_tot, theta + np.pi / 2, power=3)
    return SchwingerMoments(
        **{name: float(value) for name, value in sums.items()},
        jtheta2=jtheta2,
        jtheta3=jtheta3,
        gtheta3=gtheta3,
    )


def _density_third(rho: np.ndarray, n_tot: int, theta: float, power: int) -> float:
    return float(np.trace(_sector_j_theta_power(rho, n_tot, theta, power)).real)


# ---------------------------------------------------------------------------
# distributions and conversions
# ---------------------------------------------------------------------------


def number_distribution(state: State, floor: float = 1e-15) -> dict[int, float]:
    """Probability of each outcome of 2*J_Z = n_a - n_b, dropping zeros."""
    if isinstance(state, FixedNState):
        n_tot = state.total_number
        probs = state.probabilities()
        dist = {int(n_tot - 2 * m): float(p) for m, p in enumerate(probs) if p > floor}
        return dict(sorted(dist.items()))
    return _difference_distribution(state.diagonal_probabilities(), floor)


def _difference_distribution(grid: np.ndarray, floor: float) -> dict[int, float]:
    """P(n_a - n_b) from a square grid of occupation probabilities [n_a, n_b],
    one line sum per difference, dropping values at or below ``floor``."""
    last = len(grid) - 1
    dist: dict[int, float] = {}
    for diff in range(-last, last + 1):
        p = float(np.diagonal(grid, -diff).sum())  # the n_a - n_b = diff line
        if p > floor:
            dist[diff] = p
    return dist


def to_density_matrix(state: FixedNState) -> TwoModeDensityMatrix:
    """Rank-1 density matrix of a fixed-N pure state, cutoff = N."""
    n_tot = state.total_number
    blocks = [np.zeros((total + 1, total + 1), dtype=complex) for total in range(n_tot)]
    blocks.append(np.outer(state.amplitudes, state.amplitudes.conj()))
    return TwoModeDensityMatrix._from_blocks(n_tot, blocks)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def state_to_json(state: FixedNState) -> dict:
    return {
        "total_number": state.total_number,
        "amplitudes_re": state.amplitudes.real.tolist(),
        "amplitudes_im": state.amplitudes.imag.tolist(),
    }


def state_from_json(data: Mapping) -> FixedNState:
    expected = {"total_number", "amplitudes_re", "amplitudes_im"}
    if set(data) != expected:
        raise ValueError(f"state JSON must have keys {sorted(expected)}")
    amps = np.asarray(data["amplitudes_re"], dtype=float) + 1j * np.asarray(
        data["amplitudes_im"], dtype=float
    )
    return FixedNState(int(data["total_number"]), amps)


def density_to_json(rho: TwoModeDensityMatrix) -> dict:
    return {
        "cutoff": rho.cutoff,
        "entries_re": rho.entries.real.tolist(),
        "entries_im": rho.entries.imag.tolist(),
    }


def density_from_json(data: Mapping) -> TwoModeDensityMatrix:
    expected = {"cutoff", "entries_re", "entries_im"}
    if set(data) != expected:
        raise ValueError(f"density JSON must have keys {sorted(expected)}")
    ent = np.asarray(data["entries_re"], dtype=float) + 1j * np.asarray(
        data["entries_im"], dtype=float
    )
    return TwoModeDensityMatrix(int(data["cutoff"]), ent)
