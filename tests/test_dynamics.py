import numpy as np
import pytest

from noon_coherence import (
    NoOscillationError,
    NumericalError,
    build_hamiltonian,
    catness_fidelity,
    evolve,
    tunnelling_period,
)
from noon_coherence import dynamics
from noon_coherence.dynamics import JosephsonSystem, evolve_amplitudes
from noon_coherence.fock import FixedNState
from noon_coherence.states import make_binomial_splitter, make_number_pair

from helpers import close, random_fixed_state, reference_tunnelling_period

# (N, g, n_L): the Rabi case, the N = 5 golden, criterion 5, and two systems
# where most eigenstates carry none of the initial state.
PERIOD_CASES = [(1, 0.0, 1), (5, 10.0, 0), (20, 4.0, 4), (50, 20.0, 20), (100, 80.0, 46)]


def test_hamiltonian_two_level():
    system = build_hamiltonian(1, nonlinearity=3.7, coupling=2.0)
    assert np.allclose(np.diag(system.hamiltonian), 0.0)
    assert close(system.hamiltonian[0, 1], 2.0)


def test_hamiltonian_linear_spectrum():
    system = build_hamiltonian(2, nonlinearity=0.0)
    assert np.allclose(np.sort(system.eigenvalues), [-2.0, 0.0, 2.0], atol=1e-12)


def test_hamiltonian_symmetry_and_orthogonality():
    system = build_hamiltonian(9, nonlinearity=1.3, coupling=0.8)
    h = system.hamiltonian
    assert np.max(np.abs(h - h.T)) == 0.0
    v = system.eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(10))) < 1e-10


def test_evolution_starts_at_initial_state():
    rng = np.random.default_rng(51)
    system = build_hamiltonian(6, 2.5)
    state = random_fixed_state(6, rng)
    amps = evolve_amplitudes(system, state, [0.0])
    assert np.max(np.abs(amps[0] - state.amplitudes)) < 1e-12


def test_rabi_half_period_transfer():
    system = build_hamiltonian(1, nonlinearity=0.0)
    initial = make_number_pair(1, 1)  # |1, 0>
    trace = evolve(system, initial, [np.pi / 2])
    assert close(trace.pm_distributions[0][1], 1.0)  # all population in |0, 1>


def test_dimension_mismatch_rejected():
    system = build_hamiltonian(4, 1.0)
    with pytest.raises(ValueError):
        evolve_amplitudes(system, make_number_pair(0, 5), [0.0])


def test_energy_norm_and_reversal():
    rng = np.random.default_rng(52)
    system = build_hamiltonian(6, 1.3)
    state = random_fixed_state(6, rng)
    times = np.linspace(0.0, 7.0, 30)
    amps = evolve_amplitudes(system, state, times)
    energies = np.einsum("ti,ij,tj->t", amps.conj(), system.hamiltonian, amps).real
    assert np.max(np.abs(energies - energies[0])) < 1e-9
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    # forward then backward returns the initial amplitudes
    forward = FixedNState(6, amps[-1])
    back = evolve_amplitudes(system, forward, [-times[-1]])[0]
    assert np.max(np.abs(back - state.amplitudes)) < 1e-9


def test_linear_evolution_reproduces_splitter():
    # With no interactions, a quarter-cycle of tunnelling from |N, 0> is a
    # 50/50 beam splitter: every coherence order must match the splitter
    # state's.
    n_tot = 6
    system = build_hamiltonian(n_tot, nonlinearity=0.0)
    initial = make_number_pair(n_tot, n_tot)  # |N, 0>
    trace = evolve(system, initial, [np.pi / 4], orders=range(1, n_tot + 1))
    splitter = make_binomial_splitter(n_tot)
    for order in range(1, n_tot + 1):
        expected = catness_fidelity(splitter, order).bound
        assert abs(trace.cn_series[order][0] - expected) < 1e-9


def test_tunnelling_period_rabi():
    system = build_hamiltonian(1, nonlinearity=0.0)
    period = tunnelling_period(system, make_number_pair(1, 1))
    assert close(period.spectral, np.pi / 2)
    assert period.relative_difference < 1e-4
    scaled = build_hamiltonian(1, nonlinearity=0.0, coupling=2.0)
    assert close(tunnelling_period(scaled, make_number_pair(1, 1)).spectral, np.pi / 4)


def test_tunnelling_period_scan_validates_spectral():
    system = build_hamiltonian(5, nonlinearity=10.0)
    period = tunnelling_period(system, make_number_pair(0, 5))
    assert period.relative_difference < 1e-3
    assert period.value == period.spectral


def test_tunnelling_period_requires_number_state():
    system = build_hamiltonian(4, 1.0)
    with pytest.raises(ValueError):
        tunnelling_period(system, make_binomial_splitter(4))


def test_tunnelling_period_balanced_initial_fails():
    system = build_hamiltonian(4, 2.0)
    with pytest.raises(NoOscillationError):
        tunnelling_period(system, make_number_pair(2, 4))


def test_tunnelling_period_unresolvable_regime_fails():
    # Deep self-trapping: the doublet splitting is far below float64
    # eigenvalue resolution, so the detector must refuse rather than emit a
    # garbage period.
    system = build_hamiltonian(100, nonlinearity=1.0)
    with pytest.raises(NoOscillationError):
        tunnelling_period(system, make_number_pair(0, 100))


@pytest.mark.parametrize("n_tot, g, n_l", PERIOD_CASES)
def test_tunnelling_period_matches_full_evolution(n_tot, g, n_l):
    system = build_hamiltonian(n_tot, g)
    initial = make_number_pair(n_l, n_tot)
    period = tunnelling_period(system, initial)
    reference = reference_tunnelling_period(system, initial)
    assert period.spectral == reference.spectral
    assert abs(period.scanned - reference.scanned) <= 1e-12 * reference.scanned


def test_tunnelling_period_does_not_evolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the period scan must not build the full evolution")

    monkeypatch.setattr(dynamics, "evolve", refuse)
    monkeypatch.setattr(dynamics, "evolve_amplitudes", refuse)
    system = build_hamiltonian(100, 80.0)
    period = tunnelling_period(system, make_number_pair(46, 100))
    assert period.relative_difference < 1e-2


def test_tunnelling_period_detects_norm_drift():
    # Eigenvectors that are no longer orthonormal make <J_Z>(t) rows lose
    # their unit norm; the scan must refuse rather than report a period.
    good = build_hamiltonian(20, 4.0)
    rng = np.random.default_rng(71)
    skewed = good.eigenvectors + 1e-3 * rng.normal(size=good.eigenvectors.shape)
    system = JosephsonSystem(
        20, good.coupling, good.nonlinearity, good.hamiltonian.copy(),
        good.eigenvalues.copy(), skewed,
    )
    with pytest.raises(NumericalError):
        tunnelling_period(system, make_number_pair(4, 20))


def test_two_state_population_transfer():
    # |4, 16> swaps with |16, 4> after one tunnelling period, up to the
    # few-percent leakage outside the two-state subspace.
    system = build_hamiltonian(20, 4.0)
    initial = make_number_pair(4, 20)
    period = tunnelling_period(system, initial)
    trace = evolve(system, initial, [period.value])
    assert trace.pm_distributions[0][4] > 0.85  # amplitude index m = n_b
    assert trace.pm_distributions[0][16] < 0.05  # initial state depleted


def test_coherence_trace_zero_at_number_state():
    system = build_hamiltonian(5, 3.0)
    series = evolve(system, make_number_pair(0, 5), [0.0], range(1, 6)).cn_series
    for order in range(1, 6):
        assert series[order][0] == 0.0


def test_trace_carries_period():
    system = build_hamiltonian(5, 10.0)
    initial = make_number_pair(0, 5)
    period = tunnelling_period(system, initial)
    trace = evolve(system, initial, [0.0, period.value / 2], orders=(5,), t_n=period)
    assert trace.t_n is period
    assert trace.cn_series[5][1] > 0.99
