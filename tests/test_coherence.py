import tracemalloc
import warnings

import numpy as np
import pytest

from noon_coherence import (
    LossSetting,
    apply_loss,
    build_hamiltonian,
    catness_fidelity,
    coherence_report,
    coherence_spectrum,
    corrected_lower_bound,
    cross_moment,
    evolve,
    max_coherence_sum,
    max_coherence_sum_numeric,
    normalization,
    order_coherences,
    s_factor,
    spread,
    to_density_matrix,
)
from noon_coherence import cli, coherence
from noon_coherence.coherence import KERNEL_BYTES
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
    random_fixed_state,
    random_mixture,
    reference_pure_catness,
    reference_spread,
)


def chain_adjacency(n_tot: int, order: int) -> np.ndarray:
    a = np.zeros((n_tot + 1, n_tot + 1))
    for m in range(n_tot + 1 - order):
        a[m, m + order] = a[m + order, m] = 1.0
    return a


def classical_mixture(n_tot: int) -> TwoModeDensityMatrix:
    dim = n_tot + 1
    ent = np.zeros((dim * dim, dim * dim), dtype=complex)
    ent[n_tot * dim, n_tot * dim] = 0.5  # |N, 0>
    ent[n_tot, n_tot] = 0.5  # |0, N>
    return TwoModeDensityMatrix(n_tot, ent)


# ---------------------------------------------------------------------------
# normalization constant
# ---------------------------------------------------------------------------


def test_normalization_special_cases():
    for n_tot in range(1, 12):
        assert normalization(n_tot, n_tot) == 2.0
    # any order above N/2 also gives exactly 2
    for n_tot, order in ((7, 4), (9, 5), (10, 6), (11, 7)):
        assert normalization(n_tot, order) == 2.0
    assert close(normalization(4, 2), np.sqrt(2.0), tol=1e-15)
    with pytest.raises(ValueError):
        normalization(4, 5)
    with pytest.raises(ValueError):
        normalization(4, 0)


def test_max_coherence_sum_matches_chain_eigenvalue():
    # The closed form must equal half the top eigenvalue of the explicit
    # chain adjacency matrix, independently diagonalized.
    for n_tot in range(1, 26):
        for order in range(1, n_tot + 1):
            top = np.linalg.eigvalsh(chain_adjacency(n_tot, order))[-1]
            assert close(max_coherence_sum(n_tot, order), top / 2.0, tol=1e-12)


@pytest.mark.parametrize("n_tot,order", [(6, 2), (10, 3), (12, 1), (9, 9)])
def test_numeric_oracle_agrees(n_tot, order):
    numeric = max_coherence_sum_numeric(n_tot, order, restarts=40)
    assert abs(numeric - max_coherence_sum(n_tot, order)) < 1e-6


def test_numeric_oracle_is_independent(monkeypatch):
    closed = max_coherence_sum(60, 2)

    def forbidden(*args):
        raise AssertionError("the oracle must not use the closed form")

    monkeypatch.setattr(coherence, "max_coherence_sum", forbidden)
    monkeypatch.setattr(coherence, "normalization", forbidden)
    assert abs(coherence.max_coherence_sum_numeric(60, 2) - closed) < 1e-9


@pytest.mark.parametrize("n_tot,order", [(100, 1), (100, 2), (100, 3), (120, 2)])
def test_numeric_oracle_near_degenerate_chains(n_tot, order):
    # Index chains of floor(N/n) + 1 and floor(N/n) nodes have top
    # eigenvalues within ~1e-4 of each other, which a power step resolves
    # only slowly.
    numeric = max_coherence_sum_numeric(n_tot, order)
    assert abs(numeric - max_coherence_sum(n_tot, order)) < 1e-9


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_ideal_noon():
    state = make_noon(5)
    top = coherence_spectrum(state, 5)
    assert len(top) == 1
    assert close(top[0].magnitude, 1.0)
    assert top[0].left_index == 0 and top[0].right_index == 0 and top[0].offset == 0
    for order in range(1, 5):
        assert coherence_spectrum(state, order) == []


def test_spectrum_classical_mixture_is_empty():
    rho = classical_mixture(3)
    for order in range(1, 4):
        assert coherence_spectrum(rho, order) == []


def test_spectrum_splitter_order_two():
    state = make_binomial_splitter(3)
    elements = coherence_spectrum(state, 2)
    expected = 2.0 * np.sqrt(1 / 8) * np.sqrt(3 / 8)
    assert len(elements) == 2
    for element in elements:
        assert close(element.magnitude, expected)


def test_spectrum_positivity_bound():
    rng = np.random.default_rng(31)
    for _ in range(10):
        rho = random_mixture(5, rng)
        probs = rho.diagonal_probabilities()
        for order in range(1, 6):
            for el in coherence_spectrum(rho, order):
                bound = 2.0 * np.sqrt(
                    probs[el.left_index, el.right_index + order]
                    * probs[el.left_index + order, el.right_index]
                )
                assert el.magnitude <= bound + 1e-10


def test_spread_examples():
    assert spread(make_noon(7)) == 7
    assert spread(make_embedded_cat(4, 20)) == 12
    assert spread(make_binomial_splitter(6)) == 6
    assert spread(classical_mixture(4)) == 0


# ---------------------------------------------------------------------------
# S factor
# ---------------------------------------------------------------------------


def test_s_factor_noon():
    import math

    for n_tot in range(1, 9):
        s = s_factor(make_noon(n_tot), n_tot)
        assert close(s.value, math.factorial(n_tot))
        assert s.pair == (0, 0)


def test_s_factor_full_support_n3():
    rng = np.random.default_rng(32)
    state = random_fixed_state(3, rng)  # full support almost surely
    s = s_factor(state, 2)
    assert close(s.value, np.sqrt(12.0))
    assert s.m in (0, 1)


def test_s_factor_parity_rule_large_n():
    s = s_factor(make_binomial_splitter(100), 5)
    assert s.m in (47, 48)


def test_s_factor_empty_support():
    with pytest.raises(ValueError):
        s_factor(make_noon(5), 2)  # no pair of occupied states 2 apart


# ---------------------------------------------------------------------------
# catness fidelity
# ---------------------------------------------------------------------------


def test_catness_ideal_noon():
    for n_tot in range(1, 9):
        entry = catness_fidelity(make_noon(n_tot), n_tot)
        assert close(entry.fidelity, 1.0)
        assert close(entry.bound, 1.0)
        for order in range(1, n_tot):
            low = catness_fidelity(make_noon(n_tot), order)
            assert low.bound == 0.0 and close(low.fidelity, 0.0)


def test_catness_attenuated_noon():
    for n_tot, eta in ((2, 0.5), (5, 0.8), (7, 0.3)):
        rho = apply_loss(to_density_matrix(make_noon(n_tot)), LossSetting.uniform(eta))
        entry = catness_fidelity(rho, n_tot, support_eps=1e-14)
        assert close(entry.bound, eta**n_tot)
        assert close(entry.fidelity, eta**n_tot)


def test_catness_splitter_n3_order2():
    entry = catness_fidelity(make_binomial_splitter(3), 2)
    assert close(entry.bound, np.sqrt(3) / 2)
    assert close(entry.fidelity, np.sqrt(3) / 2)


def test_catness_degenerate_order():
    entry = catness_fidelity(make_noon(3), 7)
    assert entry.fidelity == 0.0 and entry.bound == 0.0


def test_catness_large_n_stays_finite():
    # For N = 500 the raw moment overflows float64, but the bound is a
    # ratio against S and must come out exactly 1 for the NOON state.
    entry = catness_fidelity(make_noon(500), 500)
    assert close(entry.bound, 1.0)
    assert close(entry.fidelity, 1.0)


def test_moment_nonzero_implies_spectrum_nonempty():
    rng = np.random.default_rng(33)
    states = [random_fixed_state(int(rng.integers(1, 7)), rng) for _ in range(40)]
    mixtures = [random_mixture(5, rng) for _ in range(10)]
    for state in states + mixtures:
        top = state.total_number if hasattr(state, "total_number") else state.cutoff
        for order in range(1, top + 1):
            if abs(cross_moment(state, order)) > 1e-12:
                assert coherence_spectrum(state, order)


def test_bound_below_fidelity_and_unit_ceiling():
    rng = np.random.default_rng(34)
    for _ in range(30):
        n_tot = int(rng.integers(1, 13))
        state = random_fixed_state(n_tot, rng)
        for order in range(1, n_tot + 1):
            entry = catness_fidelity(state, order)
            assert 0.0 <= entry.bound <= entry.fidelity + 1e-10
            assert entry.fidelity <= 1.0 + 1e-10


def test_bound_scales_with_loss():
    rng = np.random.default_rng(35)
    eta = 0.7
    for _ in range(5):
        n_tot = int(rng.integers(2, 7))
        state = random_fixed_state(n_tot, rng)
        lossy = apply_loss(to_density_matrix(state), LossSetting.uniform(eta))
        for order in range(1, n_tot + 1):
            pure = catness_fidelity(state, order, support_eps=1e-13)
            mixed = catness_fidelity(lossy, order, support_eps=1e-13)
            assert close(mixed.bound, eta**order * pure.bound)


def test_corrected_lower_bound():
    assert close(corrected_lower_bound(3.0, 0.0, 3, 3, 6.0), 0.5)
    assert corrected_lower_bound(1e-6, 0.5, 10, 2, 4.0) == 0.0
    # moment 3!/2, S = 3!, eps penalty (0.01/2) * 6^3
    assert close(corrected_lower_bound(3.0, 0.01, 3, 3, 6.0), 0.32)
    with pytest.raises(ValueError):
        corrected_lower_bound(1.0, -0.1, 3, 3, 6.0)


def test_report_rows_and_flags(tmp_path):
    report = coherence_report(make_binomial_splitter(5))
    out = tmp_path / "spl.csv"
    assert cli.main(["splitter", "--n", "5", "--output", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "n,C_n,c_n,norm,S,delta"
    assert len(rows) == 6
    assert report.fixed_total == 5 and report.spread == 5
    data = report.to_json()
    assert len(data["orders"]) == 5

    rng = np.random.default_rng(36)
    mixed = coherence_report(random_mixture(4, rng), orders=(1, 2))
    assert mixed.fixed_total is None


# ---------------------------------------------------------------------------
# the order kernel
# ---------------------------------------------------------------------------


def _evolved_state(n_tot: int) -> FixedNState:
    system = build_hamiltonian(n_tot, nonlinearity=2.0)
    trace = evolve(system, make_number_pair(n_tot // 4, n_tot), [0.37])
    return trace.state_at(0)


@pytest.mark.parametrize("n_tot", [20, 100, 500])
def test_kernel_matches_per_order_reference(n_tot):
    rng = np.random.default_rng(n_tot)
    states = {
        "binomial": make_binomial_splitter(n_tot),
        "noon": make_noon(n_tot, 0.3),
        "random": random_fixed_state(n_tot, rng),
        "evolved": _evolved_state(n_tot),
    }
    for name, state in states.items():
        report = coherence_report(state)
        assert [e.order for e in report.orders] == list(range(1, n_tot + 1))
        assert report.spread == reference_spread(state), name
        for entry in report.orders:
            fidelity, bound, norm, s_log, s_pair = reference_pure_catness(state, entry.order)
            where = f"{name} N={n_tot} n={entry.order}"
            assert close(entry.fidelity, fidelity, EQ_TOL), where
            assert close(entry.bound, bound, EQ_TOL), where
            assert close(entry.norm, norm, EQ_TOL), where
            assert entry.s_pair == s_pair, where
            if s_pair is None:
                assert np.isnan(entry.s_log) and np.isnan(entry.s_value), where
            else:
                assert close(entry.s_log, s_log, EQ_TOL), where
                if s_log < np.log(np.finfo(float).max):
                    assert close(entry.s_value, np.exp(s_log), EQ_TOL), where
                else:
                    assert entry.s_value == np.inf, where


def test_kernel_takes_any_order_set():
    state = random_fixed_state(30, np.random.default_rng(40))
    orders = [7, 3, 30, 3, 45, 1]
    arrays = order_coherences(np.stack([state.amplitudes] * 3), orders)
    assert arrays.bound.shape == (3, len(orders))
    for k, order in enumerate(orders):
        fidelity, bound, *_ = reference_pure_catness(state, order)
        assert np.all(arrays.fidelity[:, k] == arrays.fidelity[0, k])
        assert close(arrays.fidelity[0, k], fidelity, EQ_TOL)
        assert close(arrays.bound[0, k], bound, EQ_TOL)
    above = orders.index(45)
    assert np.all(arrays.bound[:, above] == 0) and np.all(arrays.fidelity[:, above] == 0)
    assert np.isnan(arrays.norm[above]) and np.all(arrays.s_m[:, above] == -1)
    with pytest.raises(ValueError):
        order_coherences(state.amplitudes, [2, 0])


def test_evolve_series_equals_catness_per_time():
    n_tot = 20
    system = build_hamiltonian(n_tot, nonlinearity=4.0)
    times = np.linspace(0.0, 2.0, 9)
    orders = list(range(1, n_tot + 3))
    trace = evolve(system, make_number_pair(4, n_tot), times, orders)
    for row in range(len(times)):
        state = trace.state_at(row)
        for order in orders:
            assert trace.cn_series[order][row] == catness_fidelity(state, order).bound
    assert np.all(trace.cn_series[n_tot + 1] == 0) and np.all(trace.cn_series[n_tot + 2] == 0)
    with pytest.raises(ValueError):
        evolve(system, make_number_pair(4, n_tot), times, [1, 0])


def test_evolve_memory_stays_within_the_kernel_budget():
    # All orders at N = 100 over 2000 times would need about 320 MB per
    # temporary in one piece; chunked, the peak stays near the budget.
    system = build_hamiltonian(100, nonlinearity=80.0)
    initial = make_number_pair(46, 100)
    times = np.linspace(0.0, 5.0, 2000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = evolve(system, initial, times, range(1, 101))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    outputs = sum(
        a.nbytes
        for a in (trace.amplitudes, trace.pm_distributions, trace.jz_mean, *trace.cn_series.values())
    )
    assert peak <= KERNEL_BYTES + outputs, (peak, KERNEL_BYTES, outputs)


def test_noon_500_report_raises_no_warning():
    # S overflows float64 at order 500, and orders 1..499 have no support.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = coherence_report(make_noon(500))
        report.to_json()
    assert close(report.orders[-1].bound, 1.0) and np.isinf(report.orders[-1].s_value)
    assert all(e.bound == 0.0 and e.s_pair is None for e in report.orders[:-1])
    assert report.spread == 500


def test_report_json_elements_equal_spectrum():
    rng = np.random.default_rng(41)
    lossy_noon = apply_loss(to_density_matrix(make_noon(6)), LossSetting(0.7, 0.9))
    cases = [
        make_binomial_splitter(12),
        make_embedded_cat(4, 20),
        random_fixed_state(15, rng),
        random_mixture(5, rng),
        lossy_noon,
    ]
    for state in cases:
        for entry in coherence_report(state).to_json()["orders"]:
            spectrum = coherence_spectrum(state, entry["n"])
            assert entry["elements"] == [
                {"left": e.left_index, "right": e.right_index, "offset": e.offset,
                 "magnitude": e.magnitude}
                for e in spectrum
            ]
