import sys
import threading

import numpy as np
import pytest

from noon_coherence import (
    AliasingError,
    NumericalError,
    binned_probability_scan,
    cross_moment,
    cross_moment_scan,
    fringe_visibility,
    identity_residuals,
    intensity_difference,
    mode_transform,
    mode_transform_density,
    moment,
    moment_from_fringes,
    moment_from_quadratures,
    moment_from_spins,
    rotate_modes,
    schwinger_moments,
    to_density_matrix,
)
from noon_coherence import interferometry
from noon_coherence.channels import LossSetting, apply_loss
from noon_coherence.interferometry import QuadratureMoments, beam_splitter_matrix
from noon_coherence.fock import FixedNState, TwoModeDensityMatrix
from noon_coherence.states import (
    make_binomial_splitter,
    make_embedded_cat,
    make_noon,
    make_number_pair,
)

from noon_coherence.tolerances import EQ_TOL

from helpers import (
    close,
    mode_generator,
    random_fixed_state,
    random_mixture,
    reference_mode_transform_density,
    reference_quadrature_moments,
    reference_sector_unitary,
)


def test_rotate_single_photon():
    out = rotate_modes(make_number_pair(1, 1), 0.0)
    assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_rotation_preserves_norm_and_inverts():
    rng = np.random.default_rng(61)
    sizes = [int(rng.integers(1, 9)) for _ in range(10)] + [100, 500]
    for n_tot in sizes:
        state = random_fixed_state(n_tot, rng)
        phi = float(rng.uniform(0, 2 * np.pi))
        rotated = rotate_modes(state, phi)
        assert close(np.sum(rotated.probabilities()), 1.0)
        back = mode_transform(rotated, beam_splitter_matrix(phi).conj().T)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-10


@pytest.mark.parametrize("n_tot", [40, 100, 500])
def test_rotated_number_state_is_binomial_splitter(n_tot):
    splitter = make_binomial_splitter(n_tot).amplitudes
    # all quanta in a: every output amplitude positive
    out = rotate_modes(make_number_pair(n_tot, n_tot), 0.0).amplitudes
    assert np.max(np.abs(out - splitter)) < 1e-12
    # all quanta in b: b^dag = (c^dag - d^dag)/sqrt(2) alternates the signs
    out = rotate_modes(make_number_pair(0, n_tot), 0.0).amplitudes
    signs = (-1.0) ** np.arange(n_tot + 1)
    assert np.max(np.abs(out - signs * splitter)) < 1e-12


def test_mode_transform_degenerate_generators():
    # U = I, -I and diag(1, e^{i phi}) have degenerate or diagonal matrix logs.
    rng = np.random.default_rng(69)
    state = random_fixed_state(7, rng)
    d, m = state.amplitudes, np.arange(8)
    cases = [
        (np.eye(2), d),
        (-np.eye(2), (-1.0) ** 7 * d),
        (np.diag([1.0, np.exp(0.7j)]), np.exp(0.7j * m) * d),
        (np.diag([1.0, -1.0]), (-1.0) ** m * d),
    ]
    for u, expected in cases:
        out = mode_transform(state, u).amplitudes
        assert np.max(np.abs(out - expected)) < 1e-12


def test_mode_transform_rejects_nonunitary():
    with pytest.raises(ValueError):
        mode_transform(make_noon(2), np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_mode_transform_norm_drift_is_numerical(monkeypatch):
    # A rotation that does not preserve the norm is a numerical failure
    # (exit 3), not invalid input (exit 2); the scaled basis makes it drift.
    exact = interferometry._jx_bases
    monkeypatch.setattr(
        interferometry, "_jx_bases", lambda first, last: 1.001 * exact(first, last)
    )
    with pytest.raises(NumericalError):
        mode_transform(make_noon(6), beam_splitter_matrix(0.3))


def test_mode_transform_density_norm_drift_is_numerical(monkeypatch):
    # A rotated sector block whose trace drifts is a numerical failure
    # (exit 3), not a density matrix rejected as invalid input (exit 2).
    # The bases of sectors 3 and up are scaled, so their traces drift; the
    # mixture's lowest such sector is N = 4 (sectors 0 and 2 stay exact).
    exact = interferometry._jx_bases

    def drifting(first, last):
        scale = np.where(np.arange(first, last + 1) >= 3, 1.001, 1.0)
        return exact(first, last) * scale[:, None, None]

    monkeypatch.setattr(interferometry, "_jx_bases", drifting)
    blocks = [np.zeros((n + 1, n + 1), dtype=complex) for n in range(10)]
    for total, weight in ((2, 0.3), (4, 0.3), (9, 0.4)):
        amps = random_fixed_state(total, np.random.default_rng(total)).amplitudes
        blocks[total] += weight * np.outer(amps, amps.conj())
    mixture = TwoModeDensityMatrix(9, blocks)
    with pytest.raises(NumericalError, match="sector N=4 "):
        mode_transform_density(mixture, beam_splitter_matrix(0.3))
    with pytest.raises(NumericalError, match="sector N=6 "):
        mode_transform_density(to_density_matrix(make_noon(6)), beam_splitter_matrix(0.3))


def _unitary_from_generator(rng, coupling):
    """exp(iK) for K = [[a, c], [conj c, b]] with a, b seeded.  The eigenvalue
    spread of K stays below 2 pi and its mean within (-pi/2, pi/2), so
    ``mode_generator`` recovers K.  For a real c, exp(iK) is symmetric; it
    is symmetrized so that the recovered K_ab is exactly real."""
    a, b = rng.uniform(-0.5, 0.5, size=2)
    k = np.array([[a, coupling], [np.conj(coupling), b]])
    energies, vectors = np.linalg.eigh(k)
    u = (vectors * np.exp(1j * energies)) @ vectors.conj().T
    return (u + u.T) / 2.0 if np.isrealobj(coupling) else u


@pytest.mark.parametrize("n_tot", [1, 20, 100, 500])
@pytest.mark.parametrize("kind", ["real positive", "real negative", "complex"])
def test_sector_unitary_matches_complex_reference(n_tot, kind):
    rng = np.random.default_rng(1000 + n_tot)
    size = rng.uniform(0.2, 1.4)
    coupling = {
        "real positive": size,
        "real negative": -size,
        "complex": size * np.exp(1j * rng.uniform(0.1, 3.0)),
    }[kind]
    u = _unitary_from_generator(rng, coupling)
    k_ab = mode_generator(u)[0, 1]
    assert (k_ab.imag == 0.0) == (kind != "complex")
    assert abs(k_ab - coupling) < 1e-12
    got = interferometry.sector_unitary(n_tot, u)
    assert np.max(np.abs(got - reference_sector_unitary(n_tot, u))) <= EQ_TOL
    # the column route of mode_transform against the matrix, and its inverse
    for state in (random_fixed_state(n_tot, rng), make_noon(n_tot, 0.3), make_binomial_splitter(n_tot)):
        rotated = mode_transform(state, u)
        assert np.max(np.abs(rotated.amplitudes - got @ state.amplitudes)) <= 1e-13
        back = mode_transform(rotated, u.conj().T)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= EQ_TOL


@pytest.mark.parametrize("n_tot", [100, 500])
def test_sector_unitary_invariants_at_scale(n_tot):
    rng = np.random.default_rng(77 + n_tot)
    coupling = rng.uniform(0.2, 1.4) * np.exp(1j * rng.uniform(0.1, 3.0))
    eye = np.eye(n_tot + 1)
    for u in (_unitary_from_generator(rng, coupling), beam_splitter_matrix(0.0)):
        rotation = interferometry.sector_unitary(n_tot, u)
        inverse = interferometry.sector_unitary(n_tot, u.conj().T)
        assert np.max(np.abs(rotation @ rotation.conj().T - eye)) <= EQ_TOL
        assert np.max(np.abs(inverse @ rotation - eye)) <= EQ_TOL


def test_density_rotation_matches_pure():
    rng = np.random.default_rng(62)
    state = random_fixed_state(4, rng)
    u = beam_splitter_matrix(0.8)
    direct = to_density_matrix(mode_transform(state, u))
    lifted = mode_transform_density(to_density_matrix(state), u)
    assert np.max(np.abs(direct.entries - lifted.entries)) < 1e-10


def test_intensity_difference_examples():
    phis = np.linspace(0, 2 * np.pi, 17)
    for n_tot in (2, 3, 5):
        noon = make_noon(n_tot)
        assert all(abs(intensity_difference(noon, p)) < 1e-12 for p in phis)
    single = make_number_pair(1, 1)
    assert all(abs(intensity_difference(single, p)) < 1e-12 for p in phis)
    splitter = make_binomial_splitter(2)
    assert close(fringe_visibility(splitter), 2.0)
    assert close(max(abs(intensity_difference(splitter, p)) for p in phis), 2.0)


def test_binned_scan_number_state():
    scan = binned_probability_scan(make_number_pair(5, 5), 0, 64)
    assert np.allclose(scan.probabilities, 1.0)
    assert close(scan.spectrum[0], 1.0)
    assert np.max(scan.spectrum[1:]) < 1e-12


def test_binned_scan_noon_single_frequency():
    scan = binned_probability_scan(make_noon(3), 3, 64)
    assert scan.dominant_frequency() == 3
    assert scan.spectrum[3] > 1e-3
    others = np.delete(scan.spectrum, [0, 3])
    assert np.max(others) < 1e-9


def test_binned_scan_embedded_cat_peak():
    state = make_embedded_cat(4, 20)
    for threshold in (11, 14, 16):
        scan = binned_probability_scan(state, threshold)
        assert scan.dominant_frequency() == 12


def test_fourier_floor_above_max_order():
    # Frequencies above the state's maximal coherence order carry nothing.
    scan = binned_probability_scan(make_embedded_cat(4, 20), 12)
    assert np.max(scan.spectrum[13:]) < 1e-9
    scan3 = binned_probability_scan(make_noon(3), 2, 64)
    assert np.max(scan3.spectrum[4:]) < 1e-9


def test_unreachable_bins_are_exact_zeros():
    # Bins that no amplitude-index difference folds onto hold 0.0 exactly.
    scan = binned_probability_scan(make_embedded_cat(4, 20), 12)
    assert np.all(np.delete(scan.spectrum, [0, 12]) == 0.0)
    # NOON N = 40 on K = 64 <= 2N: frequency 40 aliases onto bin 64 - 40 = 24.
    aliased = binned_probability_scan(make_noon(40), 20, 64)
    assert aliased.dominant_frequency() == 24
    assert np.all(np.delete(aliased.spectrum, [0, 24]) == 0.0)
    assert aliased.spectrum[24] > 1e-3
    # NOON N = 500 on K = 256: 500 folds to 500 - 256 = 244, then to 256 - 244 = 12.
    big = binned_probability_scan(make_noon(500, 0.4), 250, 256)
    assert np.all(np.isfinite(big.probabilities))
    assert np.all((big.probabilities >= 0.0) & (big.probabilities <= 1.0))
    assert big.dominant_frequency() == 12
    assert np.all(np.delete(big.spectrum, [0, 12]) == 0.0)
    # binomial N = 40 holds every frequency up to 40 and nothing above it.
    binomial = binned_probability_scan(make_binomial_splitter(40), 20, 256)
    assert np.all(binomial.spectrum[41:] == 0.0)
    assert close(np.mean(binomial.probabilities), binomial.spectrum[0])


def test_scan_matches_per_phase_rotation():
    # Reference: rotate the state at every grid phase and sum the kept rows.
    state = random_fixed_state(9, np.random.default_rng(70))
    scan = binned_probability_scan(state, 4, 32)
    direct = [rotate_modes(state, phi).probabilities()[:6].sum() for phi in scan.phases]
    assert np.max(np.abs(scan.probabilities - direct)) < 1e-12


def test_spectrum_zero_bin_is_mean():
    scan = binned_probability_scan(make_embedded_cat(2, 8), 5, 32)
    assert close(scan.spectrum[0], float(np.mean(scan.probabilities)))


def test_binned_scan_validation():
    with pytest.raises(ValueError):
        binned_probability_scan(make_noon(3), 4)
    with pytest.raises(ValueError):
        binned_probability_scan(make_noon(3), 2, 100)  # not a power of two


def test_moment_from_fringes_round_trip():
    values = cross_moment_scan(make_noon(5), 5, 64)
    assert close(moment_from_fringes(values, 5), 60.0)
    values = cross_moment_scan(make_binomial_splitter(4), 2, 32)
    assert close(moment_from_fringes(values, 2), 3.0)


def test_moment_from_fringes_zero_moment():
    values = cross_moment_scan(make_noon(5), 3, 32)
    assert abs(moment_from_fringes(values, 3)) < 1e-10


def test_moment_from_fringes_aliasing():
    with pytest.raises(AliasingError):
        moment_from_fringes(np.ones(8), 5)


def test_moment_from_fringes_random_states():
    rng = np.random.default_rng(63)
    for _ in range(8):
        n_tot = int(rng.integers(1, 7))
        state = random_fixed_state(n_tot, rng)
        order = int(rng.integers(1, n_tot + 1))
        values = cross_moment_scan(state, order, 64)
        assert close(moment_from_fringes(values, order), cross_moment(state, order), tol=1e-8)


def test_identity_residuals():
    res = identity_residuals(6)
    for key in (
        "second_order_spin",
        "first_order_quadrature",
        "second_order_quadrature",
        "quadrature_rotation",
        "third_order_spin",
    ):
        assert res[key] < 1e-10, key
    # the alternative printed sign layout is wrong and must fail loudly
    assert res["third_order_spin_alt"] > 1.0


def test_moment_from_spins_examples():
    assert close(moment_from_spins(make_noon(3), 3), 3.0)
    rng = np.random.default_rng(64)
    for _ in range(20):
        state = random_fixed_state(2, rng)
        assert close(moment_from_spins(state, 2), cross_moment(state, 2))
    with pytest.raises(ValueError):
        moment_from_spins(make_noon(2), 4)


def test_second_order_imaginary_part_is_anticommutator():
    rng = np.random.default_rng(65)
    amps = rng.random(5)  # real amplitudes
    state = FixedNState.from_amplitudes(amps.astype(complex))
    m = schwinger_moments(state)
    assert close(cross_moment(state, 2).imag, m.jxy_anti)


def test_moment_from_spins_and_quadratures_random():
    rng = np.random.default_rng(66)
    for _ in range(25):
        n_tot = int(rng.integers(1, 5))
        state = random_fixed_state(n_tot, rng)
        for order in (1, 2, 3):
            assert close(moment_from_spins(state, order), cross_moment(state, order))
        for order in (1, 2):
            assert close(
                moment_from_quadratures(state, order), cross_moment(state, order)
            )


def test_moment_routes_on_mixtures():
    rng = np.random.default_rng(67)
    rho = random_mixture(4, rng)
    for order in (1, 2, 3):
        assert close(moment_from_spins(rho, order), cross_moment(rho, order))
    for order in (1, 2):
        assert close(moment_from_quadratures(rho, order), cross_moment(rho, order))


def test_quadrature_moments_vacuum_and_rotation():
    vacuum = FixedNState(0, np.array([1.0 + 0j]))
    assert moment_from_quadratures(vacuum, 1) == 0j
    assert moment_from_quadratures(vacuum, 2) == 0j
    assert close(moment_from_quadratures(make_binomial_splitter(2), 1), 1.0)
    rng = np.random.default_rng(68)
    for _ in range(10):
        state = random_fixed_state(int(rng.integers(1, 6)), rng)
        q = QuadratureMoments.from_state(state)
        assert close(q.x2_rot_a, (q.x2_a + q.p2_a + q.xp_anti_a) / 2.0)
        assert close(q.x2_rot_b, (q.x2_b + q.p2_b + q.xp_anti_b) / 2.0)
    with pytest.raises(ValueError):
        moment_from_quadratures(vacuum, 3)


def test_noon_two_photon_fringe_component():
    # The phase scan of <c^dag^2 c^2> on the N=2 NOON state carries an
    # e^{2 i phi} component whose coefficient is the cross moment over 2^2.
    state = make_noon(2)
    values = cross_moment_scan(state, 2, 32)
    phases = 2 * np.pi * np.arange(32) / 32
    coeff = np.sum(values * np.exp(-2j * phases)) / 32
    assert close(coeff, cross_moment(state, 2) / 4.0)


def _rotations(rng):
    """Mode maps with K_ab real positive, real negative and complex, and a
    50/50 splitter with a seeded phase."""
    size = rng.uniform(0.2, 1.4)
    couplings = (size, -size, size * np.exp(1j * rng.uniform(0.1, 3.0)))
    maps = [_unitary_from_generator(rng, c) for c in couplings]
    return maps + [beam_splitter_matrix(float(rng.uniform(0, 2 * np.pi)))]


@pytest.mark.parametrize("cutoff", [12, 20, 40])
def test_density_rotation_matches_the_sector_loop(cutoff):
    rng = np.random.default_rng(300 + cutoff)
    loss = LossSetting(0.8, 0.65)
    states = [
        apply_loss(to_density_matrix(make_noon(cutoff, 0.7)), loss),
        apply_loss(to_density_matrix(make_embedded_cat(cutoff // 4, cutoff, 1.3)), loss),
        random_mixture(cutoff, rng, components=5),
    ]
    for rho in states:
        for u in _rotations(rng):
            rotated = mode_transform_density(rho, u)
            reference = reference_mode_transform_density(rho, u)
            assert max(np.max(np.abs(a - b)) for a, b in zip(rotated.blocks, reference)) < 1e-13
            back = mode_transform_density(rotated, u.conj().T)
            assert np.max(np.abs(back._flat - rho._flat)) <= EQ_TOL


def test_rotations_from_a_cold_cache_equal_repeated_calls():
    rng = np.random.default_rng(71)
    rho = random_mixture(20, rng, components=4)
    state = random_fixed_state(500, rng)
    u = _rotations(rng)[2]

    def run():
        return (
            mode_transform_density(rho, u)._flat,
            interferometry.sector_unitary(500, u),
            binned_probability_scan(state, 240, 64).probabilities,
        )

    interferometry._basis_cache.clear()
    interferometry._rotation_index.cache_clear()
    cold = run()
    assert interferometry._basis_cache
    for first, again in zip(cold, run()):
        assert np.array_equal(first, again)


def test_cached_rotations_solve_no_eigenproblem(monkeypatch):
    rng = np.random.default_rng(72)
    rho = random_mixture(12, rng)
    state = random_fixed_state(100, rng)
    u = beam_splitter_matrix(0.9)

    def run():
        mode_transform_density(rho, u)
        mode_transform(state, u)
        binned_probability_scan(state, 50, 64)
        cross_moment_scan(state, 2, 64)

    run()

    def refuse(*args, **kwargs):
        raise AssertionError("eigh called on a cached basis")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    run()


def test_basis_cache_stays_within_its_byte_bound(monkeypatch):
    u = beam_splitter_matrix(0.2)
    monkeypatch.setattr(interferometry, "BASIS_CACHE_BYTES", 100_000)
    interferometry._basis_cache.clear()
    interferometry.sector_unitary(100, u)  # 101^2 * 8 = 81,608 bytes
    interferometry.sector_unitary(20, u)  # 3,528 bytes
    interferometry.sector_unitary(150, u)  # 182,408 bytes: built, not kept
    assert list(interferometry._basis_cache) == [(100, 100), (20, 20)]
    monkeypatch.setattr(interferometry, "BASIS_CACHE_BYTES", 90_000)
    interferometry.sector_unitary(60, u)  # 29,768 bytes: the oldest goes
    assert list(interferometry._basis_cache) == [(20, 20), (60, 60)]
    interferometry.sector_unitary(20, u)  # a hit becomes the most recent
    assert list(interferometry._basis_cache) == [(60, 60), (20, 20)]
    assert sum(b.nbytes for b in interferometry._basis_cache.values()) <= 90_000
    interferometry._basis_cache.clear()


@pytest.mark.parametrize("cutoff", [6, 12, 20])
def test_one_pass_quadratures_equal_separate_moments(cutoff):
    rng = np.random.default_rng(400 + cutoff)
    loss = LossSetting(0.75, 0.9)
    states = [
        random_fixed_state(cutoff, rng),
        make_binomial_splitter(cutoff),
        make_embedded_cat(cutoff // 3, cutoff, 0.4),
        random_mixture(cutoff, rng, components=4),
        apply_loss(to_density_matrix(make_embedded_cat(cutoff // 3, cutoff, 0.4)), loss),
        apply_loss(to_density_matrix(random_fixed_state(cutoff, rng)), loss),
    ]
    for state in states:
        got = QuadratureMoments.from_state(state)
        want = reference_quadrature_moments(state)
        for name, value in vars(want).items():
            assert close(getattr(got, name), value, tol=EQ_TOL), name


def _run_threads(work, count=8, timeout=120):
    """Run ``work(seed)`` in ``count`` threads with a short switch interval
    and return the exceptions they raised."""
    errors = []

    def guarded(seed):
        try:
            work(seed)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=guarded, args=(seed,)) for seed in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_basis_cache_holds_under_threads(monkeypatch):
    # Eight threads share the basis cache, which holds about two of these
    # small stacks, so nearly every call evicts; without the cache's lock
    # the eviction loop sees the dict change under it.
    monkeypatch.setattr(interferometry, "BASIS_CACHE_BYTES", 600)
    expected = {n: interferometry._jx_bases(n, n) for n in range(1, 7)}

    def work(seed):
        for n in np.random.default_rng(seed).integers(1, 7, 3000):
            assert np.max(np.abs(interferometry._jx_bases(int(n), int(n)) - expected[n])) < 1e-12

    errors = _run_threads(work)
    assert not errors, errors[0]
    assert sum(b.nbytes for b in interferometry._basis_cache.values()) <= 600
    interferometry._basis_cache.clear()


def test_constructor_checks_hold_under_threads():
    # Each thread checks valid and non-Hermitian stores at cutoff 40 in turn;
    # temporaries shared between threads would mix their checks.
    valid = to_density_matrix(make_noon(40, 0.3))
    skewed = [block.copy() for block in valid.blocks]
    skewed[40][0, 40] += 0.01

    def work(seed):
        for _ in range(150):
            TwoModeDensityMatrix(40, valid.blocks)
            with pytest.raises(ValueError, match="not Hermitian"):
                TwoModeDensityMatrix(40, skewed)

    errors = _run_threads(work)
    assert not errors, errors[0]
