"""Two-mode Josephson dynamics in the fixed-N sector.

H = kappa (a^dag b + b^dag a) + (g/2)(a^dag^2 a^2 + b^dag^2 b^2) restricted to
N total particles is a real symmetric tridiagonal matrix in the |N-m>_a|m>_b
basis.  Evolution uses the cached eigendecomposition (spectral exponentials,
no time stepping), which is exact up to the eigensolver and cheap for
N <= 500.

Time is measured in units of 1/kappa; kappa simply scales the tunnelling
term and defaults to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .coherence import order_coherences
from .errors import NoOscillationError, NumericalError
from .fock import FixedNState, ladder_coefficients

DEGENERACY_FLOOR_ULPS = 64  # pair gaps below this many ulps of |H| are noise


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
        norms = self.pm_distributions.sum(axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise NumericalError("evolution lost normalization beyond 1e-10")
        for arr in (self.times, self.amplitudes, self.pm_distributions, self.jz_mean):
            arr.setflags(write=False)

    def state_at(self, index: int) -> FixedNState:
        return FixedNState(self.amplitudes.shape[1] - 1, self.amplitudes[index])


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
    jz_values = (system.total_number - 2.0 * np.arange(system.total_number + 1)) / 2.0
    jz = pm @ jz_values
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


def tunnelling_period(
    system: JosephsonSystem,
    initial: FixedNState,
    samples: int = 4096,
    window_halfperiods: float = 10.0,
    overlap_tol: float = 1e-6,
) -> PeriodEstimate:
    """Time of the first near-complete population transfer.

    Primary estimate: pi / |E_i - E_j| over the two eigenstates with the
    largest overlap with the initial number state.  Validator: a scan of
    <J_Z>(t) over [0, window_halfperiods * pi / dE_min] looking for the first
    extremum of sign opposite to <J_Z>(0), refined by quadratic
    interpolation.  Raises NoOscillationError in regimes without resolvable
    two-state behavior (including splittings below float64 resolution).
    """
    if initial.total_number != system.total_number:
        raise ValueError("initial state does not match the system size")
    probs = initial.probabilities()
    if probs.max() < 1.0 - 1e-9:
        raise ValueError("tunnelling period needs an initial number state")
    overlaps = np.abs(system.eigenvectors.T @ initial.amplitudes) ** 2
    scale = float(np.max(np.abs(system.eigenvalues)))
    floor = DEGENERACY_FLOOR_ULPS * np.finfo(float).eps * max(scale, 1.0)

    relevant = np.flatnonzero(overlaps > overlap_tol)
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
    window = window_halfperiods * np.pi / float(gaps.min())
    times = np.linspace(0.0, window, samples)
    trace = evolve(system, initial, times)
    jz = trace.jz_mean
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
    width = max(3, samples // 32) | 1
    kernel = np.ones(width) / width
    envelope = np.convolve(flipped, kernel, mode="same")
    lo, hi = width, samples - width
    interior = envelope[lo:hi]
    peak_floor = 0.5 * float(interior.max())
    scanned = None
    if peak_floor > 0:
        for k in range(lo, hi):
            if (
                envelope[k] >= envelope[k - 1]
                and envelope[k] >= envelope[k + 1]
                and envelope[k] >= peak_floor
            ):
                scanned = _quadratic_vertex(times, envelope, k, width // 2)
                break
    if scanned is None:
        raise NoOscillationError(
            "no opposite-sign extremum of <J_Z>(t) within the scan window; "
            "the g/kappa regime shows no two-state transfer"
        )
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
