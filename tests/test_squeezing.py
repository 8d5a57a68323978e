import numpy as np
import pytest

from noon_coherence import (
    SqueezeData,
    TwoModeDensityMatrix,
    coherence_bound,
    cross_moment,
    infer_two_atom_coherence,
    mixed_state_bound_check,
    mode_transform,
    read_squeeze_rows,
    squeeze_parameter,
    transverse_squeeze_parameter,
)
from noon_coherence.coherence import spread
from noon_coherence.dynamics import build_hamiltonian
from noon_coherence.fock import FixedNState
from noon_coherence.squeezing import JX_NORMALIZED, N_NORMALIZED, ROTATED_MODE_MATRIX
from noon_coherence.states import make_binomial_splitter, make_noon

from helpers import close, random_fixed_state


def test_squeeze_parameter_coherent_spin_state():
    data = SqueezeData.from_state(make_binomial_splitter(100))
    assert close(squeeze_parameter(data, JX_NORMALIZED).value, 1.0)
    assert close(squeeze_parameter(data, N_NORMALIZED).value, 1.0)


def test_squeeze_parameter_synthetic():
    data = SqueezeData(
        mean_n=100, jx_mean=50.0, jy_mean=0.0, jz_mean=0.0, jy_var=100 / 16, jz_var=25.0
    )
    assert close(squeeze_parameter(data, JX_NORMALIZED).value, 0.5)
    assert close(squeeze_parameter(data, N_NORMALIZED).value, 0.5)


def test_squeeze_parameter_noon_inapplicable():
    data = SqueezeData.from_state(make_noon(6))
    with pytest.raises(ValueError):
        squeeze_parameter(data, JX_NORMALIZED)


def test_transverse_parameter_picks_squeezed_axis():
    data = SqueezeData(
        mean_n=100, jx_mean=50.0, jy_mean=0.0, jz_mean=0.0, jy_var=75.0, jz_var=0.25 * 25
    )
    xi, axis = transverse_squeeze_parameter(data)
    assert axis == "jz"
    assert close(xi, 0.5)


def test_coherence_bound_values():
    bound = coherence_bound(0.999, 100)
    assert bound.certified and bound.min_order > 10.0
    assert close(coherence_bound(0.5, 100).min_order, 20.0)
    assert not coherence_bound(1.0, 100).certified
    assert not coherence_bound(1.5, 100).certified
    with pytest.raises(ValueError):
        coherence_bound(0.0, 100)


def test_bound_check_splitter():
    state = make_binomial_splitter(4)
    delta = spread(state)
    assert delta == 4
    result = mixed_state_bound_check(state, delta)
    assert result.passed and not result.contradiction
    assert close(result.lhs, 1.0)  # (Delta J_Y)^2 = N/4
    assert close(result.rhs, 4.0 / 16.0)  # <J_X>^2 / delta^2 = 4/16


def test_bound_check_random_pure_sweep():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n_tot = int(rng.integers(1, 9))
        state = random_fixed_state(n_tot, rng)
        assert mixed_state_bound_check(state, spread(state)).passed


def test_bound_check_diagonal_mixture():
    # Mixtures of number states carry no transverse mean spin, so the
    # inequality holds trivially at any spread.
    blocks = [np.zeros((n + 1, n + 1), dtype=complex) for n in range(4)]
    blocks[3][0, 0] = 0.4  # |3, 0>
    blocks[3][2, 2] = 0.6  # |1, 2>
    rho = TwoModeDensityMatrix(3, blocks)
    for delta in (0.0, 1.0, 3.0):
        assert mixed_state_bound_check(rho, delta).passed


def test_bound_check_contradiction_flag():
    result = mixed_state_bound_check(make_binomial_splitter(4), 0.0)
    assert result.contradiction and not result.passed
    # a number state has no transverse spin, so zero spread is consistent
    number = FixedNState(2, np.array([1.0, 0, 0], dtype=complex))
    assert mixed_state_bound_check(number, 0.0).passed


def test_bound_order_consistency():
    # Where xi is computable, the exact maximal coherence order must reach
    # the squeezing bound.
    rng = np.random.default_rng(42)
    for _ in range(40):
        n_tot = int(rng.integers(2, 11))
        state = random_fixed_state(n_tot, rng)
        data = SqueezeData.from_state(state)
        if abs(data.jx_mean) < 1e-6 or data.jy_var < 1e-12:
            continue
        xi = squeeze_parameter(data, N_NORMALIZED).value
        bound = coherence_bound(xi, data.mean_n)
        if bound.certified:
            assert spread(state) >= int(np.ceil(bound.min_order)) - 1e-9


def test_inference_certified():
    data = SqueezeData(
        mean_n=100, jx_mean=48.0, jy_mean=0.1, jz_mean=-0.2, jy_var=75.0, jz_var=5.0
    )
    result = infer_two_atom_coherence(data)
    assert result.certified
    assert result.margin > 0
    assert all(step.satisfied for step in result.chain)
    payload = result.to_json()
    assert payload["certified"] and len(payload["chain"]) == 6


def test_inference_boundary_inconclusive():
    data = SqueezeData(
        mean_n=100, jx_mean=50.0, jy_mean=0.0, jz_mean=0.0, jy_var=25.0, jz_var=25.0
    )
    result = infer_two_atom_coherence(data)
    assert not result.certified


def test_inference_rejects_large_means():
    data = SqueezeData(
        mean_n=100, jx_mean=0.0, jy_mean=5.0, jz_mean=0.0, jy_var=75.0, jz_var=5.0
    )
    with pytest.raises(ValueError):
        infer_two_atom_coherence(data)


def test_inference_matches_rotated_moment():
    # Ground state of the Josephson Hamiltonian with repulsive interactions
    # is number-squeezed: the inference must agree with the rotated-mode
    # moment evaluated directly on the state.
    system = build_hamiltonian(20, 0.5)
    ground = FixedNState(20, system.eigenvectors[:, 0].astype(complex))
    data = SqueezeData.from_state(ground)
    result = infer_two_atom_coherence(data)
    rotated = mode_transform(ground, ROTATED_MODE_MATRIX)
    direct = cross_moment(rotated, 2)
    assert result.certified == (abs(direct) > 1e-10)
    assert result.certified
    # the anticommutator driving the inference is the imaginary part of the
    # rotated-mode moment
    assert close(direct.imag, data.jy2 - data.jz2)


def test_inference_negative_control_coherent_state():
    # A coherent spin state along +x maps onto a single rotated-mode number
    # state: no rotated two-quantum coherence, and the chain is inconclusive.
    # Its <J_Z^2> and <J_Y^2> both equal <N>/4, so the chain's comparisons
    # must clear their slack of EQ_TOL * max(1, <N>/4) at every size, or
    # rounding certifies it (first at N = 27 without the slack).
    for n_tot in range(2, 301):
        state = make_binomial_splitter(n_tot)
        assert not infer_two_atom_coherence(SqueezeData.from_state(state)).certified, n_tot
    for n_tot in (10, 27, 300):
        rotated = mode_transform(make_binomial_splitter(n_tot), ROTATED_MODE_MATRIX)
        assert abs(cross_moment(rotated, 2)) < 1e-10


def test_read_squeeze_rows(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("n,jx,jy,jz,jy2,jz2\n100,50,0.5,0,75,5\n64,30,0,0,20,16\n")
    rows = read_squeeze_rows(path)
    assert len(rows) == 2
    assert rows[0].mean_n == 100
    assert close(rows[0].jy_var, 75 - 0.25)
    bad = tmp_path / "bad.csv"
    bad.write_text("n,jx\n1,2\n")
    with pytest.raises(ValueError):
        read_squeeze_rows(bad)
    ugly = tmp_path / "ugly.csv"
    ugly.write_text("n,jx,jy,jz,jy2,jz2\n100,50,zero,0,75,5\n")
    with pytest.raises(ValueError):
        read_squeeze_rows(ugly)
