"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not deferred.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from noon_coherence import (
    LossSetting,
    SqueezeData,
    apply_loss,
    build_hamiltonian,
    catness_fidelity,
    coherence_bound,
    cross_moment,
    detected_moment,
    evolve,
    identity_residuals,
    infer_two_atom_coherence,
    max_coherence_sum,
    max_coherence_sum_numeric,
    mixed_state_bound_check,
    moment_from_quadratures,
    moment_from_spins,
    normalization,
    binned_probability_scan,
    spread,
    to_density_matrix,
    tunnelling_period,
)
from noon_coherence.states import (
    make_binomial_splitter,
    make_embedded_cat,
    make_noon,
    make_number_pair,
)

from helpers import cli_env, random_fixed_state

FIXTURES = Path(__file__).parent / "fixtures"


def report(number: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_ideal_noon():
    start = time.time()
    for n_tot in range(1, 11):
        state = make_noon(n_tot)
        entry = catness_fidelity(state, n_tot)
        assert abs(entry.bound - 1.0) <= 1e-10
        assert abs(entry.fidelity - 1.0) <= 1e-10
        for order in range(1, n_tot):
            assert catness_fidelity(state, order).bound <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, elapsed, "ideal NOON: c_N = C_N = 1, c_n = 0 below N (N = 1..10)")


def test_criterion_2_attenuated_noon_two_ways():
    start = time.time()
    for n_tot in (2, 5, 10):
        state = make_noon(n_tot)
        s_value = math.factorial(n_tot)
        for eta in np.arange(0.1, 0.95, 0.1):
            expected = eta**n_tot
            shortcut = detected_moment(
                state, (n_tot, 0, 0, n_tot), LossSetting.uniform(eta)
            )
            analytic = normalization(n_tot, n_tot) * abs(shortcut) / s_value
            assert abs(analytic - expected) <= 1e-10
            lossy = apply_loss(to_density_matrix(state), LossSetting.uniform(eta))
            kraus = catness_fidelity(lossy, n_tot, support_eps=1e-12).bound
            assert abs(kraus - expected) <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(2, elapsed, "attenuated NOON: c_N = eta^N via shortcut and Kraus channel")


def test_criterion_3_beam_splitter_moments():
    start = time.time()
    for n_tot in range(1, 101):
        state = make_binomial_splitter(n_tot)
        for order in range(1, n_tot + 1):
            ref = math.perm(n_tot, order) / 2**order  # exact integers, rounded once
            value = cross_moment(state, order)
            assert abs(value - ref) <= 1e-9 * ref
    for n_tot in range(1, 13):
        state = make_binomial_splitter(n_tot)
        for order in range(1, n_tot + 1):
            entry = catness_fidelity(state, order)
            assert entry.fidelity >= entry.bound - 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(3, elapsed, "splitter moments N!/(2^n (N-n)!) to 1e-9 rel, C_n >= c_n")


def test_criterion_4_normalization_oracle():
    start = time.time()
    for n_tot in range(1, 61):
        for order in range(1, n_tot + 1):
            closed = max_coherence_sum(n_tot, order)
            numeric = max_coherence_sum_numeric(n_tot, order, restarts=200)
            assert abs(closed - numeric) <= 1e-6
            chain = n_tot // order
            assert abs(closed - np.cos(np.pi / (chain + 2))) <= 1e-12
    for n_tot in range(1, 61):
        assert normalization(n_tot, n_tot) == 2.0
        for order in range(n_tot // 2 + 1, n_tot + 1):
            assert normalization(n_tot, order) == 2.0
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(4, elapsed, "normalization closed form == numeric oracle (n <= N <= 60)")


def test_criterion_5_dynamics_regression():
    start = time.time()
    system = build_hamiltonian(5, 10.0)
    initial = make_number_pair(0, 5)
    period = tunnelling_period(system, initial)
    times = np.linspace(0.0, period.value, 1501)
    trace = evolve(system, initial, times, orders=range(1, 6))
    c5 = trace.cn_series[5]
    peak = int(np.argmax(c5))
    assert c5[peak] > 0.99
    for order in range(1, 5):
        assert trace.cn_series[order][peak] < 0.05

    system20 = build_hamiltonian(20, 4.0)
    initial20 = make_number_pair(4, 20)
    period20 = tunnelling_period(system20, initial20)
    state = evolve(system20, initial20, [period20.value / 4]).state_at(0)
    values = {order: catness_fidelity(state, order).bound for order in range(1, 21)}
    assert max(values, key=values.get) == 12
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(
        5,
        elapsed,
        f"dynamics: max c_5 = {c5[peak]:.4f} (others < 0.05); "
        f"dominant order 12 at T_N/4 for (20, 4, 4)",
    )


def test_criterion_6_fringe_spectrum_peak():
    start = time.time()
    state = make_embedded_cat(4, 20)
    for threshold in range(11, 17):
        scan = binned_probability_scan(state, threshold)
        assert scan.dominant_frequency() == 12
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(6, elapsed, "embedded-cat fringe spectrum peaks at omega = 12 for M = 11..16")


def test_criterion_7_measurement_identities():
    start = time.time()
    residuals = identity_residuals(6)
    for key in (
        "second_order_spin",
        "first_order_quadrature",
        "second_order_quadrature",
        "quadrature_rotation",
        "third_order_spin",
    ):
        assert residuals[key] <= 1e-10, key
    assert residuals["third_order_spin_alt"] > 1.0  # rejected sign variant
    rng = np.random.default_rng(77)
    for _ in range(100):
        state = random_fixed_state(int(rng.integers(1, 5)), rng)
        for order in (1, 2, 3):
            direct = cross_moment(state, order)
            assert abs(moment_from_spins(state, order) - direct) <= 1e-10
        for order in (1, 2):
            direct = cross_moment(state, order)
            assert abs(moment_from_quadratures(state, order) - direct) <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(
        7,
        elapsed,
        "operator identities hold at cutoff 6; selected third-order variant: "
        "rotated-pair difference term (the alternative layout fails)",
    )


def test_criterion_8_squeezing_bound_and_inference():
    start = time.time()
    rng = np.random.default_rng(88)
    for _ in range(200):
        n_tot = int(rng.integers(1, 11))
        state = random_fixed_state(n_tot, rng)
        assert mixed_state_bound_check(state, spread(state)).passed
    for xi in (0.3, 0.5, 0.9):
        bound = coherence_bound(xi, 100)
        assert bound.min_order == np.sqrt(100) / xi
        assert bound.certified
        jz2 = xi**2 * 25.0
        jy2 = 625.0 / jz2
        data = SqueezeData(
            mean_n=100, jx_mean=48.0, jy_mean=0.0, jz_mean=0.0,
            jy_var=jy2, jz_var=jz2,
        )
        assert infer_two_atom_coherence(data).certified == (jz2 < 25.0 < jy2)
        assert infer_two_atom_coherence(data).certified
    flat = SqueezeData(
        mean_n=100, jx_mean=50.0, jy_mean=0.0, jz_mean=0.0, jy_var=25.0, jz_var=25.0
    )
    assert not infer_two_atom_coherence(flat).certified
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(8, elapsed, "squeezing bound on 200 random states; inference chain certifies")


def _run_cli(args, cwd, threads):
    proc = subprocess.run(
        [sys.executable, "-m", "noon_coherence.cli", *args],
        cwd=cwd, env=cli_env(threads), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_9_byte_identical_outputs(tmp_path):
    start = time.time()
    commands = {
        "attenuate": ["attenuate", "--n", "5", "--eta", "0.8", "--output", "{tag}att"],
        "splitter": ["splitter", "--n", "10", "--output", "{tag}spl.csv"],
        "dynamics": [
            "dynamics", "--n", "5", "--g", "10", "--nl", "0",
            "--orders", "all", "--times", "0,T/2", "--output", "{tag}dyn.csv",
        ],
        "fringes": [
            "fringes", "--state", '{"kind": "embedded_initial", "n": 9, "n_l": 2}',
            "--m", "5", "--k", "64", "--output", "{tag}fr",
        ],
        "infer": [
            "infer", "--data", str(FIXTURES / "infer_rows.csv"),
            "--output", "{tag}rep.json",
        ],
    }
    for name, template in commands.items():
        blobs = []
        for tag, threads in (("r1_", 1), ("r2_", 1), ("r3_", 4)):
            args = [a.replace("{tag}", tag) for a in template]
            _run_cli(args, tmp_path, threads)
            produced = sorted(tmp_path.glob(f"{tag}*"))
            assert produced, name
            blobs.append(b"".join(p.read_bytes() for p in produced))
        assert blobs[0] == blobs[1] == blobs[2], name
    elapsed = time.time() - start
    report(9, elapsed, "every command byte-identical across runs and thread counts")
