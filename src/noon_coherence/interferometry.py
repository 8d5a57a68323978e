"""Simulated measurement layer for two-mode states.

Covers the 50/50 beam-splitter-plus-phase mode rotation
c = (a + b e^{i phi})/sqrt(2), d = (a - b e^{i phi})/sqrt(2), output-intensity
fringes, binned-count probability scans with their discrete Fourier content,
and the routes that express the cross moments <(a^dag)^n b^n> through
Schwinger-spin or quadrature measurements.

The spin and quadrature identities are validated as operator-matrix
equalities on a truncated Fock grid (with a margin so truncation cannot leak
into the compared block); the third-order spin identity ships in the variant
that survives that validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, NumericalError
from .fock import (
    FixedNState,
    State,
    TwoModeDensityMatrix,
    annihilation_matrix,
    ladder_coefficients,
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


def _mode_generator(u: np.ndarray) -> np.ndarray:
    """Hermitian K with U = exp(iK), from U = e^{i alpha} (cos t + i sin t n.sigma).

    Raises ValueError unless U is a 2x2 unitary matrix.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.max(np.abs(u @ u.conj().T - np.eye(2))) > EQ_TOL:
        raise ValueError("mode transform must be a 2x2 unitary matrix")
    alpha = 0.5 * np.angle(np.linalg.det(u))
    v = u * np.exp(-1j * alpha)  # in SU(2)
    h = (v - v.conj().T) / 2j  # sin(t) n.sigma
    sin_t = np.linalg.norm(h) / np.sqrt(2.0)
    t = np.arctan2(sin_t, 0.5 * np.trace(v).real)
    if sin_t == 0.0:  # v = +-1: no axis, all phase
        return (alpha + t) * np.eye(2)
    return alpha * np.eye(2) + (t / sin_t) * h


def sector_unitary(total_number: int, u: np.ndarray) -> np.ndarray:
    """Matrix of the mode map (c, d) = U (a, b) on the fixed-N sector.

    Column m holds |N-m>_a |m>_b written in the |N-j>_c |j>_d basis.  With
    U = exp(iK) the map is exp(i sum_ij K_ij e_i^dag e_j), whose sector image
    G is tridiagonal with a real diagonal.  When K_ab is real, G is real
    symmetric; otherwise D^dag G D is, with D = diag(e^{-i m theta}) and
    theta = arg K_ab.  That real matrix is exponentiated through a real
    ``eigh``, V e^{iE} V^T, and conjugated back by D, so the result is
    unitary to rounding for any N.
    """
    return _sector_exponential(total_number, _mode_generator(u))


def _sector_exponential(total_number: int, k: np.ndarray) -> np.ndarray:
    """exp(iG) for the sector image G of the mode generator K (see
    ``sector_unitary``)."""
    m = np.arange(total_number + 1)
    coupling = k[0, 1]
    phase = None if coupling.imag == 0.0 else np.exp(-1j * np.angle(coupling) * m)  # diag D
    off = (coupling.real if phase is None else abs(coupling)) * ladder_coefficients(total_number)
    gen = np.diag(k[0, 0].real * (total_number - m) + k[1, 1].real * m)
    gen[m[:-1], m[1:]] = off
    gen[m[1:], m[:-1]] = off
    energies, vectors = np.linalg.eigh(gen)
    # e^{iE} V^T D^dag is complex and C-contiguous, so its float view holds
    # the real and imaginary parts as interleaved columns: one real product
    # with V gives the complex result, viewed back without a copy.
    right = np.multiply(np.exp(1j * energies)[:, None], vectors.T, order="C")
    if phase is not None:
        right *= phase.conj()
    rotation = (vectors @ right.view(float)).view(complex)
    if phase is not None:
        rotation *= phase[:, None]
    return rotation


def mode_transform(state: FixedNState, u: np.ndarray) -> FixedNState:
    """Rewrite a fixed-N state in the modes (c, d) = U (a, b).

    Raises NumericalError when the rotated norm drifts from the input's by
    more than NORM_TOL.
    """
    n_tot = state.total_number
    rotated = sector_unitary(n_tot, u) @ state.amplitudes
    drift = np.vdot(rotated, rotated).real - np.vdot(state.amplitudes, state.amplitudes).real
    if abs(drift) > NORM_TOL:
        raise NumericalError(f"mode transform changed the state norm by {drift:.3e}")
    return FixedNState(n_tot, rotated)


def mode_transform_density(
    rho: TwoModeDensityMatrix, u: np.ndarray
) -> TwoModeDensityMatrix:
    """Apply the mode map to a density matrix, one sector block at a time.

    Raises NumericalError when a rotated block's trace drifts from the
    input's by more than NORM_TOL.
    """
    k = _mode_generator(u)
    blocks = []
    for total, block in enumerate(rho.blocks):
        rotation = _sector_exponential(total, k)
        rotated = rotation @ block @ rotation.conj().T
        drift = (rotated.trace() - block.trace()).real
        if abs(drift) > NORM_TOL:
            raise NumericalError(
                f"mode transform changed the trace of sector N={total} by {drift:.3e}"
            )
        blocks.append((rotated + rotated.conj().T) / 2.0)
    return TwoModeDensityMatrix(rho.cutoff, blocks)


def rotate_modes(state: FixedNState, phi: float) -> FixedNState:
    """State in the output basis of the 50/50 splitter with phase phi."""
    return mode_transform(state, beam_splitter_matrix(phi))


# ---------------------------------------------------------------------------
# intensity fringes
# ---------------------------------------------------------------------------


def intensity_difference(state: State, phi: float) -> float:
    """<c^dag c - d^dag d> = 2 <J_X> cos(phi) - 2 <J_Y> sin(phi)."""
    m = schwinger_moments(state)
    return 2.0 * m.jx * np.cos(phi) - 2.0 * m.jy * np.sin(phi)


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
    The coefficients are summed exactly, folded modulo the grid size K
    (aliasing included when K <= 2N); the scan is their inverse transform.
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
    rotation = sector_unitary(n_tot, beam_splitter_matrix(0.0))
    kept = rotation[: n_tot - bin_threshold + 1, occupied]
    terms = (np.conj(d)[:, None] * d[None, :] * (kept.conj().T @ kept)).ravel()
    bins = (occupied[None, :] - occupied[:, None]).ravel() % grid_size
    coeffs = np.bincount(bins, terms.real, grid_size) + 1j * np.bincount(
        bins, terms.imag, grid_size
    )
    probs = grid_size * np.fft.ifft(coeffs).real
    return FringeScan(phases, bin_threshold, probs, np.abs(coeffs[: grid_size // 2 + 1]))


def cross_moment_scan(state: FixedNState, order: int, grid_size: int = 256) -> np.ndarray:
    """<c^dag^n c^n>(phi) over the uniform phase grid.

    One rotation at phi = 0; the phase grid enters as e^{i phi m} on the
    amplitudes, and n_c!/(n_c - n)! weights the rotated probabilities.
    """
    n_tot = state.total_number
    phases = 2.0 * np.pi * np.arange(grid_size) / grid_size
    shifted = state.amplitudes[:, None] * np.exp(1j * np.outer(np.arange(n_tot + 1), phases))
    keep = max(n_tot + 1 - order, 0)  # rows m_d <= N - n, where n_c >= n
    rotated = sector_unitary(n_tot, beam_splitter_matrix(0.0))[:keep] @ shifted
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
        def mom(p, q, r, s):
            return moment(state, (p, q, r, s))

        ab, abd = mom(0, 0, 1, 1), mom(0, 1, 1, 0)
        adb, adbd = mom(1, 0, 0, 1), mom(1, 1, 0, 0)
        m22, mx = mom(0, 0, 2, 2), mom(0, 2, 2, 0)
        my, mz = mom(2, 0, 0, 2), mom(2, 2, 0, 0)
        a2, ad2, na = mom(0, 0, 2, 0), mom(2, 0, 0, 0), mom(1, 0, 1, 0)
        b2, bd2, nb = mom(0, 0, 0, 2), mom(0, 2, 0, 0), mom(0, 1, 0, 1)
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
