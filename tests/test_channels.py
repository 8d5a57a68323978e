import math

import numpy as np
import pytest

from noon_coherence import (
    LossSetting,
    SqueezeData,
    TwoModeDensityMatrix,
    apply_loss,
    catness_fidelity,
    coherence_report,
    coherence_spectrum,
    cross_moment,
    detected_moment,
    fringe_visibility,
    intensity_difference,
    mixed_state_bound_check,
    mode_transform_density,
    moment,
    moment_from_quadratures,
    moment_from_spins,
    number_distribution,
    s_factor,
    schwinger_moments,
    spread,
    to_density_matrix,
)
from noon_coherence import channels
from noon_coherence.channels import lossy_number_distribution
from noon_coherence.interferometry import beam_splitter_matrix
from noon_coherence.states import make_binomial_splitter, make_noon

from helpers import (
    close,
    kraus_operators,
    mixture_test_states,
    random_fixed_state,
    random_mixture,
    reference_apply_loss,
    reference_density_schwinger,
    reference_lossy_number_distribution,
    reference_transfer_tables,
)

TRANSMISSIONS = (0.0, 0.3, 0.55, 1.0)


def test_loss_setting_validation():
    with pytest.raises(ValueError):
        LossSetting(1.2, 0.5)
    assert LossSetting.uniform(0.7).is_uniform
    assert not LossSetting(0.7, 0.6).is_uniform


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
def test_kraus_completeness(eta):
    ops = kraus_operators(eta, 7)
    total = sum(k.conj().T @ k for k in ops)
    assert np.max(np.abs(total - np.eye(7))) < 1e-12


def test_identity_channel():
    rho = to_density_matrix(make_noon(4))
    out = apply_loss(rho, LossSetting.uniform(1.0))
    assert np.max(np.abs(out.entries - rho.entries)) < 1e-12


def test_total_loss_gives_vacuum():
    rho = to_density_matrix(make_noon(3))
    out = apply_loss(rho, LossSetting.uniform(0.0))
    expected = np.zeros_like(out.entries)
    expected[0, 0] = 1.0
    assert np.max(np.abs(out.entries - expected)) < 1e-12


def test_channel_reproduces_moment_scaling():
    rng = np.random.default_rng(21)
    for eta in (0.3, 0.7):
        for n_tot in (2, 5, 8):
            state = random_fixed_state(n_tot, rng)
            rho = to_density_matrix(state)
            lossy = apply_loss(rho, LossSetting.uniform(eta))
            for order in range(1, n_tot + 1):
                assert close(
                    cross_moment(lossy, order), eta**order * cross_moment(state, order)
                )


def test_channel_trace_and_hermiticity():
    rng = np.random.default_rng(22)
    rho = random_mixture(5, rng)
    out = apply_loss(rho, LossSetting(0.6, 0.4))
    assert close(np.trace(out.entries).real, 1.0)
    assert np.max(np.abs(out.entries - out.entries.conj().T)) < 1e-12


def test_channel_matches_two_mode_kraus_sum():
    rng = np.random.default_rng(26)
    rho = random_mixture(6, rng)
    loss = LossSetting(0.55, 0.85)
    pairs = [
        np.kron(ka, kb)
        for ka in kraus_operators(loss.eta_a, 7)
        for kb in kraus_operators(loss.eta_b, 7)
    ]
    dense = rho.entries
    expected = sum(k @ dense @ k.conj().T for k in pairs)
    assert np.max(np.abs(apply_loss(rho, loss).entries - expected)) < 1e-12


@pytest.mark.parametrize("cutoff", [0, 1, 6, 12, 40])
def test_channel_matches_block_reference(cutoff):
    rng = np.random.default_rng(100 + cutoff)
    for rho in mixture_test_states(cutoff, rng):
        for eta_a in TRANSMISSIONS:
            for eta_b in TRANSMISSIONS:
                loss = LossSetting(eta_a, eta_b)
                lossy = apply_loss(rho, loss)
                expected = reference_apply_loss(rho, loss)
                assert max(np.max(np.abs(a - b)) for a, b in zip(lossy.blocks, expected)) <= 1e-14


def test_channel_matches_block_reference_for_noon_at_cutoff_100():
    rho = to_density_matrix(make_noon(100, 0.4))
    loss = LossSetting(0.95, 0.9)
    lossy = apply_loss(rho, loss)
    expected = reference_apply_loss(rho, loss)
    assert max(np.max(np.abs(a - b)) for a, b in zip(lossy.blocks, expected)) <= 1e-14


def _assert_moments_match(got, want):
    for name in ("jx", "jy", "jz", "ntot", "jx2", "jy2", "jz2", "jxy_anti"):
        assert close(getattr(got, name), getattr(want, name), tol=1e-12), name
    for name in ("jtheta2", "jtheta3", "gtheta3"):
        assert getattr(got, name).keys() == getattr(want, name).keys()
        for theta, value in getattr(want, name).items():
            assert close(getattr(got, name)[theta], value, tol=1e-12), (name, theta)


@pytest.mark.parametrize("cutoff", [0, 1, 6, 12, 40])
def test_density_spin_moments_match_block_reference(cutoff):
    rng = np.random.default_rng(200 + cutoff)
    # with the angles (0, pi/2, pi/4) of moment_from_spins(., 3)
    angles = (0.0, 0.7, np.pi / 2, 2.1, 0.7, np.pi / 4)
    for rho in mixture_test_states(cutoff, rng):
        _assert_moments_match(
            schwinger_moments(rho, angles), reference_density_schwinger(rho, angles)
        )
        _assert_moments_match(schwinger_moments(rho), reference_density_schwinger(rho))


def test_density_spin_moments_match_block_reference_for_lossy_noon_at_cutoff_100():
    lossy = apply_loss(to_density_matrix(make_noon(100, 0.4)), LossSetting(0.95, 0.9))
    _assert_moments_match(
        schwinger_moments(lossy, (0.3,)), reference_density_schwinger(lossy, (0.3,))
    )


def test_lossy_noon_at_cutoff_100_stays_in_sector_blocks(monkeypatch):
    def dense(self):
        raise AssertionError("the dense matrix was built")

    monkeypatch.setattr(TwoModeDensityMatrix, "entries", property(dense))
    n, phase = 100, 0.6
    state = make_noon(n, phase)
    loss = LossSetting(0.95, 0.9)
    scale = (loss.eta_a * loss.eta_b) ** (n / 2)
    lossy = apply_loss(to_density_matrix(state), loss)
    entry = catness_fidelity(lossy, n)
    assert abs(entry.bound - scale) <= 1e-10 * scale
    assert abs(entry.fidelity - scale) <= 1e-10 * scale
    want = scale * math.exp(math.lgamma(n + 1)) / 2 * np.exp(1j * phase)
    value = detected_moment(state, (n, 0, 0, n), loss)
    assert abs(value - want) <= 1e-10 * abs(want)
    spins = schwinger_moments(lossy)
    assert close(spins.ntot, n * (loss.eta_a + loss.eta_b) / 2)
    assert close(spins.jz, n * (loss.eta_a - loss.eta_b) / 4)

    # every other density-matrix path, on a lossy NOON state at cutoff 40:
    # loss keeps the coherence only between |40, 0> and |0, 40>
    n = 40
    small = apply_loss(to_density_matrix(make_noon(n, phase)), loss)
    report = coherence_report(small)
    assert spread(small) == report.spread == n
    scale = (loss.eta_a * loss.eta_b) ** (n / 2)
    assert abs(report.orders[-1].bound - scale) <= 1e-10 * scale
    assert [el.order for el in coherence_spectrum(small, n)] == [n]
    assert s_factor(small, n).pair == (0, 0)
    rotated = mode_transform_density(small, beam_splitter_matrix(0.3))
    assert close(schwinger_moments(rotated).ntot, spins.ntot * n / 100)
    assert close(moment_from_quadratures(small, 1), cross_moment(small, 1))
    assert close(moment_from_spins(small, 3), cross_moment(small, 3))
    assert close(sum(number_distribution(small).values()), 1.0)
    assert close(SqueezeData.from_state(small).mean_n, spins.ntot * n / 100)
    assert mixed_state_bound_check(small, report.spread).passed
    assert close(intensity_difference(small, 0.3), 0.0)
    assert fringe_visibility(small) == 0.0


def test_channel_composition():
    rng = np.random.default_rng(23)
    for _ in range(5):
        rho = to_density_matrix(random_fixed_state(int(rng.integers(2, 7)), rng))
        once = apply_loss(apply_loss(rho, LossSetting.uniform(0.8)), LossSetting.uniform(0.5))
        direct = apply_loss(rho, LossSetting.uniform(0.4))
        assert np.max(np.abs(once.entries - direct.entries)) < 1e-10


def test_detected_moment_noon():
    value = detected_moment(make_noon(5), (5, 0, 0, 5), LossSetting.uniform(0.8))
    assert close(value, 0.8**5 * 60.0, tol=1e-12)


def test_detected_moment_unit_transmission():
    state = make_binomial_splitter(4)
    assert close(
        detected_moment(state, (2, 0, 0, 2), LossSetting.uniform(1.0)),
        cross_moment(state, 2),
    )


def test_detected_moment_large_splitter():
    # first-order moment N/2 = 50 scaled by eta = 0.5
    value = detected_moment(make_binomial_splitter(100), (1, 0, 0, 1), LossSetting.uniform(0.5))
    assert close(value, 25.0, tol=1e-12)


def test_detected_moment_unequal_transmissions():
    # the closed form against the moment of the explicitly lossy state
    rng = np.random.default_rng(24)
    loss = LossSetting(0.9, 0.5)
    for n_tot in range(1, 9):
        state = random_fixed_state(n_tot, rng)
        mixed = random_mixture(n_tot, rng)
        for order in range(1, n_tot + 1):
            mono = (order, 0, 0, order)
            lossy = apply_loss(to_density_matrix(state), loss)
            assert close(detected_moment(state, mono, loss), moment(lossy, mono), tol=1e-12)
            lossy = apply_loss(mixed, loss)
            assert close(detected_moment(mixed, mono, loss), moment(lossy, mono), tol=1e-12)


def test_detected_moment_equal_transmissions_scale_exactly():
    # sqrt(eta * eta) rounds back to eta, so the scale is bit-identical to eta^n
    state = make_binomial_splitter(12)
    for eta in (0.0, 1e-150, 0.3, 0.55, 0.8, 0.123456789, 1.0):
        for order in range(13):
            mono = (order, 0, 0, order)
            expected = eta**order * moment(state, mono)
            assert detected_moment(state, mono, LossSetting.uniform(eta)) == expected


def test_detected_moment_rejects_general_monomials():
    with pytest.raises(ValueError):
        detected_moment(make_noon(2), (1, 1, 0, 0), LossSetting.uniform(0.5))


def test_lossy_distribution_matches_full_channel():
    rng = np.random.default_rng(25)
    for state in (make_noon(5), random_fixed_state(4, rng)):
        loss = LossSetting(0.6, 0.8)
        fast = lossy_number_distribution(state, loss)
        grid = apply_loss(to_density_matrix(state), loss).diagonal_probabilities()
        na, nb = np.indices(grid.shape)
        for diff, prob in fast.items():
            assert close(prob, float(grid[na - nb == diff].sum()), tol=1e-12)
        assert close(sum(fast.values()), 1.0, tol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 7, 41, 501])
def test_loss_tables_match_the_gathered_reference_bitwise(dim):
    for eta in (0.0, 0.123456789, 0.3, 0.5, 0.8, 1.0):
        kraus, transfer = reference_transfer_tables(eta, dim)
        assert np.array_equal(channels._kraus_table(eta, dim).view(np.uint64), kraus.view(np.uint64))
        assert np.array_equal(channels._damping_transfer(eta, dim).view(np.uint64), transfer.view(np.uint64))


@pytest.mark.parametrize("n_tot", [50, 100, 500])
def test_lossy_distribution_matches_the_two_product_reference_bitwise(n_tot):
    states = (
        make_noon(n_tot, 0.3),
        make_binomial_splitter(n_tot),
        random_fixed_state(n_tot, np.random.default_rng(n_tot)),
    )
    for state in states:
        for loss in (LossSetting(0.8, 0.6), LossSetting.uniform(0.9), LossSetting(1.0, 0.0)):
            fast = lossy_number_distribution(state, loss)
            reference = reference_lossy_number_distribution(state, loss)
            assert list(fast) == list(reference)
            assert [np.float64(v).tobytes() for v in fast.values()] == [
                np.float64(v).tobytes() for v in reference.values()
            ]
