"""Two-mode Josephson dynamics in the fixed-N sector.

H = kappa (a^dag b + b^dag a) + (g/2)(a^dag^2 a^2 + b^dag^2 b^2) restricted to
N total particles is a real symmetric tridiagonal matrix in the |N-m>_a|m>_b
basis.  Evolution uses the cached eigendecomposition (spectral exponentials,
no time stepping), which is exact up to the eigensolver and cheap for
N <= 500.  ``evolve`` and ``evolve_amplitudes`` keep every eigenstate; the
<J_Z>(t) scan behind ``tunnelling_period`` keeps only the eigenstates that
carry the initial state, dropping a set whose combined overlap norm is at
most machine epsilon, which moves <J_Z> by less than its rounding error.

Time is measured in units of 1/kappa; kappa simply scales the tunnelling
term and defaults to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .coherence import order_coherences
from .errors import NoOscillationError, NumericalError
from .fock import FixedNState, _sector_jz_values, ladder_coefficients

DEGENERACY_FLOOR_ULPS = 64  # pair gaps below this many ulps of |H| are noise
NORM_DRIFT_TOL = 1e-10  # largest |sum_m |d_m(t)|^2 - 1| an evolution may show
PERIOD_SCAN_SAMPLES = 4096  # time samples of the <J_Z>(t) scan
PERIOD_SCAN_HALFPERIODS = 10.0  # scan window in units of pi / (smallest gap)
PERIOD_OVERLAP_TOL = 1e-6  # |<E_j|psi(0)>|^2 above which an eigenstate takes part


@dataclass(frozen=True)
class JosephsonSystem:
    """Fixed-N Josephson Hamiltonian with its cached eigendecomposition."""

    total_number: int
    coupling: float  # kappa
    nonlinearity: float  # g
    hamiltonian: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        for arr in (self.hamiltonian, self.eigenvalues, self.eigenvectors):
            arr.setflags(write=False)


def build_hamiltonian(
    total_number: int, nonlinearity: float, coupling: float = 1.0
) -> JosephsonSystem:
    """Assemble and diagonalize the fixed-N Josephson Hamiltonian.

    In the |N-m>_a |m>_b basis the diagonal is
    (g/2) [(N-m)(N-m-1) + m(m-1)] and the off-diagonal coupling m <-> m+1 is
    kappa sqrt((m+1)(N-m)).
    """
    if total_number < 1:
        raise ValueError("total_number must be >= 1")
    n_tot = total_number
    m = np.arange(n_tot + 1)
    diag = 0.5 * nonlinearity * ((n_tot - m) * (n_tot - m - 1) + m * (m - 1))
    off = coupling * ladder_coefficients(n_tot)
    ham = np.diag(diag.astype(float)) + np.diag(off, 1) + np.diag(off, -1)
    energies, vectors = np.linalg.eigh(ham)
    return JosephsonSystem(n_tot, coupling, nonlinearity, ham, energies, vectors)


@dataclass(frozen=True)
class EvolutionTrace:
    """Time-resolved state data: P(m), <J_Z>, and c_n per requested order."""

    times: np.ndarray
    amplitudes: np.ndarray  # shape (len(times), N+1)
    pm_distributions: np.ndarray  # |d_m(t)|^2, same shape
    jz_mean: np.ndarray
    cn_series: Mapping[int, np.ndarray]
    t_n: "PeriodEstimate | None" = None

    def __post_init__(self):
        _check_norm(self.pm_distributions)
        for arr in (self.times, self.amplitudes, self.pm_distributions, self.jz_mean):
            arr.setflags(write=False)

    def state_at(self, index: int) -> FixedNState:
        return FixedNState(self.amplitudes.shape[1] - 1, self.amplitudes[index])


def _check_norm(pm: np.ndarray) -> None:
    """Raise NumericalError when a row of |d_m(t)|^2 does not sum to 1."""
    norms = pm.sum(axis=1)
    if np.max(np.abs(norms - 1.0)) > NORM_DRIFT_TOL:
        raise NumericalError(f"evolution lost normalization beyond {NORM_DRIFT_TOL:g}")


def evolve_amplitudes(
    system: JosephsonSystem, initial: FixedNState, times: Sequence[float]
) -> np.ndarray:
    """Amplitude vectors d(t) = V exp(-i E t) V^T d(0), one row per time."""
    if initial.total_number != system.total_number:
        raise ValueError(
            f"initial state has N={initial.total_number}, "
            f"system has N={system.total_number}"
        )
    times = np.array(times, dtype=float)
    modal = system.eigenvectors.T @ initial.amplitudes
    phases = np.exp(-1j * np.outer(system.eigenvalues, times))
    return (system.eigenvectors @ (phases * modal[:, None])).T


def evolve(
    system: JosephsonSystem,
    initial: FixedNState,
    times: Sequence[float],
    orders: Sequence[int] = (),
    t_n: "PeriodEstimate | None" = None,
) -> EvolutionTrace:
    """Evolve and collect P(m), <J_Z>(t) and c_n(t) for the requested orders."""
    times = np.array(times, dtype=float)
    amps = evolve_amplitudes(system, initial, times)
    pm = np.abs(amps) ** 2
    jz = pm @ _sector_jz_values(system.total_number)
    arrays = order_coherences(amps, orders)
    series = arrays.bound.T.copy()  # one contiguous row per order
    series.setflags(write=False)
    cn = {int(order): row for order, row in zip(arrays.orders, series)}
    return EvolutionTrace(times, amps, pm, jz, cn, t_n)


@dataclass(frozen=True)
class PeriodEstimate:
    """Tunnelling period from the spectral gap, validated by a time scan."""

    spectral: float
    scanned: float
    relative_difference: float

    @property
    def value(self) -> float:
        # The spectral estimate is the primary value; the scan validates it.
        return self.spectral


def tunnelling_period(system: JosephsonSystem, initial: FixedNState) -> PeriodEstimate:
    """Time of the first near-complete population transfer.

    Primary estimate: pi / |E_i - E_j| over the two eigenstates with the
    largest overlap with the initial number state, among the eigenstates
    whose overlap exceeds 1e-6 (``PERIOD_OVERLAP_TOL``).  Validator: a scan
    of <J_Z>(t) at 4096 times (``PERIOD_SCAN_SAMPLES``) over
    [0, 10 pi / dE_min] (``PERIOD_SCAN_HALFPERIODS``) looking for the first
    extremum of sign opposite to <J_Z>(0), refined by quadratic
    interpolation.  Raises NoOscillationError in regimes without resolvable
    two-state behavior (including splittings below float64 resolution).

    The scan does not call ``evolve``.  With w = V^T d(0), the eigenstates
    with the smallest |w_j| are dropped while their combined norm ||b||
    stays <= machine epsilon (2.2e-16); the amplitude rows are built from
    the kept columns only, V_keep (exp(-i E_keep t) w_keep).  Each dropped
    row differs from the full one by a vector of norm ||b||, so <J_Z>(t)
    moves by at most N ||b|| + (N/2) ||b||^2, below the rounding error of
    the full sum; when nothing is dropped the arithmetic is that of
    ``evolve``.  A row whose norm drifts from 1 by more than 1e-10 raises
    NumericalError, as in ``evolve``.
    """
    if initial.total_number != system.total_number:
        raise ValueError("initial state does not match the system size")
    probs = initial.probabilities()
    if probs.max() < 1.0 - 1e-9:
        raise ValueError("tunnelling period needs an initial number state")
    modal = system.eigenvectors.T @ initial.amplitudes
    overlaps = np.abs(modal) ** 2
    scale = float(np.max(np.abs(system.eigenvalues)))
    floor = DEGENERACY_FLOOR_ULPS * np.finfo(float).eps * max(scale, 1.0)

    relevant = np.flatnonzero(overlaps > PERIOD_OVERLAP_TOL)
    if relevant.size < 2:
        raise NoOscillationError(
            "initial state overlaps a single eigenstate; no two-state dynamics"
        )
    top = relevant[np.argsort(overlaps[relevant])[::-1][:2]]
    gap = float(abs(system.eigenvalues[top[0]] - system.eigenvalues[top[1]]))
    if gap <= floor:
        raise NoOscillationError(
            f"dominant eigenstate pair is degenerate to numerical precision "
            f"(gap {gap:.3e} <= floor {floor:.3e}); the tunnelling time is "
            "not resolvable in float64"
        )
    spectral = np.pi / gap

    energies = np.sort(system.eigenvalues[relevant])
    gaps = np.diff(energies)
    gaps = gaps[gaps > floor]
    if gaps.size == 0:
        raise NoOscillationError("all relevant eigenstates are degenerate")
    window = PERIOD_SCAN_HALFPERIODS * np.pi / float(gaps.min())
    times = np.linspace(0.0, window, PERIOD_SCAN_SAMPLES)
    # Drop the smallest overlaps while their combined norm stays <= eps.  The
    # kept columns stay in eigenvalue order, so with nothing dropped the sums
    # run as in evolve.
    order = np.argsort(overlaps)
    dropped = np.count_nonzero(np.cumsum(overlaps[order]) <= np.finfo(float).eps ** 2)
    keep = np.sort(order[dropped:])
    phases = np.exp(-1j * np.outer(system.eigenvalues[keep], times))
    amps = (system.eigenvectors[:, keep] @ (phases * modal[keep, None])).T
    pm = np.abs(amps) ** 2
    _check_norm(pm)
    jz = pm @ _sector_jz_values(system.total_number)
    j0 = jz[0]
    if abs(j0) < 1e-9:
        raise NoOscillationError(
            "<J_Z>(0) = 0: population transfer has no sign to reverse"
        )
    flipped = -np.sign(j0) * jz
    # Leakage outside the two-state subspace superimposes fast ripple whose
    # slope dominates the slow transfer envelope, so every ripple peak is a
    # local maximum of the raw trace.  The extremum of interest is that of
    # the envelope: average the ripple out over a window much shorter than a
    # half-period, then look for the first opposite-sign envelope peak.
    width = max(3, PERIOD_SCAN_SAMPLES // 32) | 1
    kernel = np.ones(width) / width
    envelope = np.convolve(flipped, kernel, mode="same")
    lo, hi = width, PERIOD_SCAN_SAMPLES - width
    interior = envelope[lo:hi]
    peak_floor = 0.5 * float(interior.max())
    peaks = np.flatnonzero(
        (interior >= envelope[lo - 1 : hi - 1])
        & (interior >= envelope[lo + 1 : hi + 1])
        & (interior >= peak_floor)
    )
    if peak_floor <= 0 or peaks.size == 0:
        raise NoOscillationError(
            "no opposite-sign extremum of <J_Z>(t) within the scan window; "
            "the g/kappa regime shows no two-state transfer"
        )
    scanned = _quadratic_vertex(times, envelope, lo + int(peaks[0]), width // 2)
    return PeriodEstimate(
        spectral=float(spectral),
        scanned=float(scanned),
        relative_difference=float(abs(spectral - scanned) / spectral),
    )


def _quadratic_vertex(
    times: np.ndarray, values: np.ndarray, center: int, half_width: int
) -> float:
    """Vertex abscissa of a least-squares parabola around a sampled peak."""
    lo = max(0, center - half_width)
    hi = min(len(times), center + half_width + 1)
    ts = times[lo:hi] - times[center]
    a, b, _ = np.polyfit(ts, values[lo:hi], 2)
    if a >= 0.0:
        return float(times[center])
    return float(times[center] - 0.5 * b / a)
