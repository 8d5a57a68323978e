"""Two-mode bosonic Fock-space algebra.

A pure state with fixed total particle number N lives on the (N+1)-dimensional
sector spanned by |N-m>_a |m>_b; the amplitude vector stores d_0..d_N with d_m
multiplying |N-m>_a |m>_b.  General mixed states use a dense density matrix
truncated at a per-mode occupation cutoff, indexed by flattened pairs
(n_a, n_b) -> n_a * (cutoff + 1) + n_b.

All factorial ratios go through log-gamma accumulation, which keeps
ladder-operator moments representable in float64 up to N of several hundred
without big-integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.special import gammaln

from .errors import TruncationError
from .tolerances import EQ_TOL, NORM_TOL, TRUNCATION_EPS


def log_factorial(n) -> np.ndarray:
    """log(n!) for nonnegative integers, vectorized."""
    return gammaln(np.asarray(n, dtype=float) + 1.0)


def sqrt_factorial_ratio(num, den) -> np.ndarray:
    """sqrt(num! / den!) evaluated in log space."""
    return np.exp(0.5 * (log_factorial(num) - log_factorial(den)))


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


@dataclass(frozen=True)
class TwoModeDensityMatrix:
    """Hermitian, unit-trace density matrix truncated at ``cutoff`` per mode.

    entries is a dense ((cutoff+1)^2, (cutoff+1)^2) complex matrix over the
    flattened pair basis.  Construction enforces Hermiticity, unit trace,
    nonnegative diagonal and the necessary positivity condition
    |rho_ij|^2 <= rho_ii * rho_jj.
    """

    cutoff: int
    entries: np.ndarray

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        dim = (self.cutoff + 1) ** 2
        ent = np.asarray(self.entries, dtype=complex).copy()
        if ent.shape != (dim, dim):
            raise ValueError(f"expected entries of shape {(dim, dim)}, got {ent.shape}")
        if np.max(np.abs(ent - ent.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        diag = ent.diagonal()
        if np.max(np.abs(diag.imag)) > 1e-12 or np.min(diag.real) < -1e-12:
            raise ValueError("diagonal must be real and nonnegative")
        trace = float(diag.real.sum())
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"trace must be 1 within 1e-10, got {trace!r}")
        pop = np.maximum(diag.real, 0.0)
        if np.any(np.abs(ent) ** 2 > np.outer(pop, pop) + EQ_TOL):
            raise ValueError("off-diagonal element exceeds the positivity bound")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    def index(self, n_a: int, n_b: int) -> int:
        if not (0 <= n_a <= self.cutoff and 0 <= n_b <= self.cutoff):
            raise IndexError(f"occupation ({n_a}, {n_b}) outside cutoff {self.cutoff}")
        return n_a * (self.cutoff + 1) + n_b

    def element(self, bra: tuple[int, int], ket: tuple[int, int]) -> complex:
        """<bra_a, bra_b| rho |ket_a, ket_b>."""
        return complex(self.entries[self.index(*bra), self.index(*ket)])

    def diagonal_probabilities(self) -> np.ndarray:
        """Occupation probabilities as a (cutoff+1, cutoff+1) array [n_a, n_b]."""
        dim = self.cutoff + 1
        return np.maximum(self.entries.diagonal().real.reshape(dim, dim), 0.0)

    def max_supported_total(self, eps: float = TRUNCATION_EPS) -> int:
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


def _density_moment(
    state: TwoModeDensityMatrix, mono: OperatorMonomial, trunc_eps: float
) -> complex:
    cut = state.cutoff
    dim = cut + 1
    na, nb = [g.ravel() for g in np.indices((dim, dim))]
    acts = (na >= mono.r) & (nb >= mono.s)
    ta = na - mono.r + mono.p
    tb = nb - mono.s + mono.q
    inside = (ta <= cut) & (tb <= cut)
    probs = state.diagonal_probabilities().ravel()
    lost = acts & ~inside & (probs > trunc_eps)
    if np.any(lost):
        i = int(np.flatnonzero(lost)[0])
        raise TruncationError(
            f"moment {mono} maps occupied state ({na[i]}, {nb[i]}) beyond "
            f"cutoff {cut}; enlarge the cutoff"
        )
    use = acts & inside
    if not np.any(use):
        return 0j
    src = np.flatnonzero(use)
    dst = ta[use] * dim + tb[use]
    factor = np.exp(
        0.5
        * (
            log_factorial(na[use])
            - log_factorial(na[use] - mono.r)
            + log_factorial(ta[use])
            - log_factorial(na[use] - mono.r)
            + log_factorial(nb[use])
            - log_factorial(nb[use] - mono.s)
            + log_factorial(tb[use])
            - log_factorial(nb[use] - mono.s)
        )
    )
    return complex(np.sum(state.entries[src, dst] * factor))


def moment(state: State, mono, trunc_eps: float = TRUNCATION_EPS) -> complex:
    """Expectation of the normally ordered product (a^dag)^p (b^dag)^q a^r b^s.

    For fixed-N pure states this is the amplitude-pair sum; for density
    matrices it is Tr(rho * monomial).  Raises TruncationError when the
    monomial would couple occupied states above the stored cutoff instead of
    returning a silently wrong value.
    """
    mono = _as_monomial(mono)
    if isinstance(state, FixedNState):
        return _pure_moment(state, mono)
    return _density_moment(state, mono, trunc_eps)


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
    up = ladder_coefficients(n_tot)
    out = np.zeros_like(d)
    out[:-1] += 0.5 * up * d[1:]
    out[1:] += 0.5 * up * d[:-1]
    return out


def _sector_jy(d: np.ndarray, n_tot: int) -> np.ndarray:
    up = ladder_coefficients(n_tot)
    out = np.zeros_like(d)
    out[:-1] += up * d[1:] / 2j
    out[1:] -= up * d[:-1] / 2j
    return out


def _sector_jz_values(n_tot: int) -> np.ndarray:
    return (n_tot - 2.0 * np.arange(n_tot + 1)) / 2.0


def annihilation_matrix(dim: int) -> np.ndarray:
    """Single-mode annihilation operator truncated to ``dim`` levels."""
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def two_mode_spin_matrices(cutoff: int) -> dict[str, np.ndarray]:
    """Dense J_X, J_Y, J_Z and Ntot on the truncated two-mode space."""
    dim = cutoff + 1
    a = annihilation_matrix(dim)
    eye = np.eye(dim, dtype=complex)
    A = np.kron(a, eye)
    B = np.kron(eye, a)
    jx = (A.conj().T @ B + A @ B.conj().T) / 2.0
    jy = (A.conj().T @ B - A @ B.conj().T) / 2j
    jz = (A.conj().T @ A - B.conj().T @ B) / 2.0
    ntot = A.conj().T @ A + B.conj().T @ B
    return {"jx": jx, "jy": jy, "jz": jz, "ntot": ntot}


_DENSE_SPIN_CUTOFF = 32


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
    c, s = np.cos(theta), np.sin(theta)
    vec = d
    for _ in range(power):
        vec = c * _sector_jx(vec, n_tot) + s * _sector_jy(vec, n_tot)
    return float(np.vdot(d, vec).real)


def _density_schwinger(
    state: TwoModeDensityMatrix, angles: Sequence[float]
) -> SchwingerMoments:
    if state.cutoff > _DENSE_SPIN_CUTOFF:
        raise ValueError(
            f"dense Schwinger moments are limited to cutoff <= {_DENSE_SPIN_CUTOFF}"
        )
    # Spin operators conserve total number; sectors with n_a + n_b > cutoff
    # are only partially stored, so moments there would be silently wrong.
    if state.max_supported_total() > state.cutoff:
        raise TruncationError(
            "state occupies total-number sectors beyond the per-mode cutoff; "
            "enlarge the cutoff before taking spin moments"
        )
    ops = two_mode_spin_matrices(state.cutoff)
    rho = state.entries

    def expect(mat: np.ndarray) -> float:
        return float(np.trace(rho @ mat).real)

    jx, jy = ops["jx"], ops["jy"]
    jtheta2, jtheta3, gtheta3 = {}, {}, {}
    for theta in angles:
        jt = np.cos(theta) * jx + np.sin(theta) * jy
        gt = -np.sin(theta) * jx + np.cos(theta) * jy
        jtheta2[theta] = expect(jt @ jt)
        jtheta3[theta] = expect(jt @ jt @ jt)
        gtheta3[theta] = expect(gt @ gt @ gt)
    return SchwingerMoments(
        jx=expect(jx),
        jy=expect(jy),
        jz=expect(ops["jz"]),
        ntot=expect(ops["ntot"]),
        jx2=expect(jx @ jx),
        jy2=expect(jy @ jy),
        jz2=expect(ops["jz"] @ ops["jz"]),
        jxy_anti=expect(jx @ jy + jy @ jx),
        jtheta2=jtheta2,
        jtheta3=jtheta3,
        gtheta3=gtheta3,
    )


# ---------------------------------------------------------------------------
# distributions and conversions
# ---------------------------------------------------------------------------


def number_distribution(state: State, floor: float = 1e-15) -> dict[int, float]:
    """Probability of each outcome of 2*J_Z = n_a - n_b, dropping zeros."""
    if isinstance(state, FixedNState):
        n_tot = state.total_number
        probs = state.probabilities()
        dist = {int(n_tot - 2 * m): float(p) for m, p in enumerate(probs) if p > floor}
    else:
        grid = state.diagonal_probabilities()
        na, nb = np.indices(grid.shape)
        dist: dict[int, float] = {}
        for diff in range(-state.cutoff, state.cutoff + 1):
            p = float(grid[na - nb == diff].sum())
            if p > floor:
                dist[diff] = p
    return dict(sorted(dist.items()))


def to_density_matrix(state: FixedNState) -> TwoModeDensityMatrix:
    """Rank-1 density matrix of a fixed-N pure state, cutoff = N."""
    n_tot = state.total_number
    dim = n_tot + 1
    vec = np.zeros(dim * dim, dtype=complex)
    for m, amp in enumerate(state.amplitudes):
        vec[(n_tot - m) * dim + m] = amp
    return TwoModeDensityMatrix(n_tot, np.outer(vec, vec.conj()))


def pad_cutoff(rho: TwoModeDensityMatrix, cutoff: int) -> TwoModeDensityMatrix:
    """Embed a density matrix in a larger cutoff grid (zero padding).

    Exact by construction: the stored matrix defines the state completely,
    so the added occupation levels carry no weight.  Useful headroom before
    taking moments whose raising operators would otherwise hit the boundary.
    """
    if cutoff < rho.cutoff:
        raise ValueError("pad_cutoff cannot shrink the grid")
    if cutoff == rho.cutoff:
        return rho
    old, new = rho.cutoff + 1, cutoff + 1
    ent = np.zeros((new * new, new * new), dtype=complex)
    tensor = ent.reshape(new, new, new, new)
    tensor[:old, :old, :old, :old] = rho.entries.reshape(old, old, old, old)
    return TwoModeDensityMatrix(cutoff, ent)


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
