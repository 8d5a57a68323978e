"""dense_lossy: lossy mixed states on the dense (cutoff+1)^2-square grid.

Calls the same public functions as pure_sweep, but through the dense density
matrix, whose cost grows about as cutoff^5 and whose memory as cutoff^4.
Each round chains ops: a pure state becomes a density matrix, loses quanta
with unequal transmissions, and the lossy state is then analysed.  The
cutoff-40 loss channel is the heaviest op; it runs twice per round (on a NOON
state and on a cat), so the tail percentile falls on it whatever the number
of rounds.  Likewise the quadrature route at cutoff 20 runs twice per round
(on a NOON state and on a cat) with 15 ops below it and 15 above, so the
median latency falls inside its block even when neighbouring ops trade
places.
"""

from __future__ import annotations

import math

import numpy as np

import noon_coherence as nc
from noon_coherence.interferometry import beam_splitter_matrix
from common import (
    LOG_FACT,
    Op,
    binomial_pmf,
    expect,
    expect_close,
    noon_loss_distribution,
    tolerances,
)

LOSS_CUTOFFS = (12, 20, 28, 40)  # NOON states, cutoff = N
MOMENT_CUTOFFS = (12, 16, 20)  # dense spin moments are limited to cutoff <= 32
CATS = ((12, 5), (20, 9), (40, 19))  # (N, n_L): branch separation 2, so order 2 is nonzero
QUADRATURE_CATS = (12, 20)
ROTATION_CUTOFFS = (12, 20)
DETECTED_CUTOFFS = (12, 20, 24)
VARIANTS = 4
TRACED_ROUNDS = 2


def setup(seed: int, ctx):
    rng = np.random.default_rng(seed)
    variants = [_variant(rng) for _ in range(VARIANTS)]
    return lambda r: _round(variants[r % VARIANTS])


def _variant(rng: np.random.Generator) -> dict:
    eta_a, eta_b = rng.uniform(0.6, 0.95, size=2)
    phase = lambda: float(rng.uniform(0, 2 * np.pi))  # noqa: E731
    cutoffs = sorted(set(LOSS_CUTOFFS + MOMENT_CUTOFFS + DETECTED_CUTOFFS))
    return {
        "loss": nc.LossSetting(float(eta_a), float(eta_b)),
        "noon": {n: nc.make_noon(n, phase()) for n in cutoffs},
        "cat": {n: nc.make_embedded_cat(n_l, n, phase()) for n, n_l in CATS},
        "rotation": float(rng.uniform(0, 2 * np.pi)),
    }


def _round(v: dict) -> list[Op]:
    loss = v["loss"]
    ops = []
    for n in sorted(set(LOSS_CUTOFFS + MOMENT_CUTOFFS)):
        state = v["noon"][n]
        dm, lossy = f"to_density_matrix/noon/N={n}", f"apply_loss/noon/N={n}"
        ops.append(Op(dm, lambda _, s=state: nc.to_density_matrix(s), _check_embedding(state)))
        ops.append(Op(lossy, lambda done, k=dm: nc.apply_loss(done[k], loss), _check_noon_loss(n, loss)))
        if n in (12, 20, 28):
            ops.append(_catness_op(n, lossy, loss))
        if n in MOMENT_CUTOFFS:
            ops.append(_moments_op(n, lossy, loss))
        if n in ROTATION_CUTOFFS:
            ops.append(_rotation_op(n, lossy, v["rotation"]))
        if n == 20:
            ops.append(_vanishing_quadratures_op(n, lossy))
    for n in DETECTED_CUTOFFS:
        ops.append(_detected_op(v["noon"][n], n, loss))
    for n, n_l in CATS:
        ops.extend(_cat_ops(v["cat"][n], n, n_l, loss))
    return ops


def _check_embedding(state):
    n = state.total_number
    dim = n + 1
    sector = [(n - m) * dim + m for m in range(dim)]

    def check(rho) -> None:
        expect(rho.cutoff == n, "cutoff differs from N")
        block = rho.entries[np.ix_(sector, sector)]
        want = np.outer(state.amplitudes, state.amplitudes.conj())
        expect(np.max(np.abs(block - want)) <= tolerances()["EQ_TOL"], "sector block differs from |psi><psi|")
        expect_close("purity", float(np.sum(np.abs(rho.entries) ** 2)), 1.0)

    return check


def _check_noon_loss(n: int, loss):
    want = noon_loss_distribution(n, loss.eta_a, loss.eta_b)

    def check(rho) -> None:
        probs = rho.diagonal_probabilities()
        na, nb = np.indices(probs.shape)
        for diff, p in want.items():
            got = float(probs[na - nb == diff].sum())
            expect(abs(got - p) <= tolerances()["EQ_TOL"] * max(p, 1e-5), f"P({diff}) = {got!r}, expected {p!r}")

    return check


def _catness_op(n: int, lossy: str, loss) -> Op:
    """c_N of lossy NOON is (eta_a eta_b)^(N/2): loss scales the one order-N element."""

    def run(done):
        return nc.catness_fidelity(done[lossy], n), nc.coherence_report(done[lossy])

    def check(result) -> None:
        entry, report = result
        want = (loss.eta_a * loss.eta_b) ** (n / 2)
        expect_close(f"c_{n}", entry.bound, want, relative=True)
        expect_close(f"C_{n}", entry.fidelity, want, relative=True)
        expect(len(report.orders) == n, "report does not cover orders 1..N")
        for order in report.orders:
            expect(order.bound <= order.fidelity + tolerances()["EQ_TOL"], f"c_{order.order} > C_{order.order}")
        expect_close(f"report c_{n}", report.orders[-1].bound, want, relative=True)

    return Op(f"coherence_report/lossy_noon/N={n}", run, check)


def _moments_op(n: int, lossy: str, loss) -> Op:
    """Spin moments of lossy NOON: each branch keeps a binomial number of quanta."""
    ea, eb = loss.eta_a, loss.eta_b

    def run(done):
        return nc.schwinger_moments(done[lossy]), nc.SqueezeData.from_state(done[lossy])

    def check(result) -> None:
        moments, squeeze = result
        second = lambda eta: n * eta * (1 - eta) + (n * eta) ** 2  # noqa: E731  <k^2>
        expect_close("<N>", moments.ntot, 0.5 * n * (ea + eb))
        expect_close("<J_Z>", moments.jz, 0.25 * n * (ea - eb))
        expect_close("<J_Z^2>", moments.jz2, (second(ea) + second(eb)) / 8.0)
        expect(abs(moments.jx) <= 1e-10 and abs(moments.jy) <= 1e-10, "<J_X>, <J_Y> nonzero")
        expect_close("squeeze <N>", squeeze.mean_n, moments.ntot)
        expect_close("squeeze var J_Z", squeeze.jz_var, moments.jz2 - moments.jz**2)

    return Op(f"schwinger_moments/lossy_noon/N={n}", run, check)


def _rotation_op(n: int, lossy: str, phi: float) -> Op:
    """A 50/50 rotation keeps the total-number distribution, and with
    <a^dag b> = 0 it splits the mean number evenly between the output modes."""

    def run(done):
        return done[lossy], nc.mode_transform_density(done[lossy], beam_splitter_matrix(phi))

    def check(result) -> None:
        before, after = result
        p0, p1 = before.diagonal_probabilities(), after.diagonal_probabilities()
        na, nb = np.indices(p0.shape)
        for total in range(n + 1):
            expect_close(f"P(N={total})", float(p1[na + nb == total].sum()), float(p0[na + nb == total].sum()))
        mean = float(np.sum(p0 * (na + nb)))
        expect_close("<n_c>", float(np.sum(p1 * na)), mean / 2)

    return Op(f"mode_transform_density/lossy_noon/N={n}", run, check)


def _vanishing_quadratures_op(n: int, lossy: str) -> Op:
    """Lossy NOON with N > 2 has no coherence of order 1 or 2."""

    def run(done):
        return nc.moment_from_quadratures(done[lossy], 1), nc.moment_from_quadratures(done[lossy], 2)

    def check(values) -> None:
        expect(max(abs(v) for v in values) <= 1e-10, f"order-1/2 moments {values!r} should vanish")

    return Op(f"moment_from_quadratures/lossy_noon/N={n}", run, check)


def _detected_op(state, n: int, loss) -> Op:
    """<a^dag^N b^N> after loss = (eta_a eta_b)^(N/2) N!/2 e^{i phase}."""
    phase = np.angle(state.amplitudes[n])
    want = (loss.eta_a * loss.eta_b) ** (n / 2) * math.exp(LOG_FACT[n]) / 2 * np.exp(1j * phase)

    def check(value) -> None:
        expect(abs(value - want) <= tolerances()["EQ_TOL"] * abs(want), f"moment {value!r}, expected {want!r}")

    return Op(f"detected_moment/noon/N={n}", lambda _: nc.detected_moment(state, (n, 0, 0, n), loss), check)


def _vacuum(n_a: int, n_b: int, loss) -> float:
    """Probability that |n_a, n_b> loses every quantum."""
    return float(binomial_pmf(n_a, loss.eta_a)[0] * binomial_pmf(n_b, loss.eta_b)[0])


def _cat_ops(state, n: int, n_l: int, loss) -> list[Op]:
    """Order-2 moment of a lossy cat with branch separation 2, two ways:
    detected_moment and the quadrature route.  Closed form:
    (eta_a eta_b) (N - n_L)!/n_L! e^{i phase}/2; order 1 vanishes."""
    phase = np.angle(state.amplitudes[n - n_l])
    want = loss.eta_a * loss.eta_b * math.exp(LOG_FACT[n - n_l] - LOG_FACT[n_l]) / 2 * np.exp(1j * phase)
    dm, lossy = f"to_density_matrix/cat/N={n}", f"apply_loss/cat/N={n}"

    def check_lossy(rho) -> None:
        # Populations after loss: mode a keeps Bin(n_a, eta_a) of its quanta.
        probs = rho.diagonal_probabilities()
        mean_a = float(np.sum(probs * np.arange(n + 1)[:, None]))
        expect_close("<n_a>", mean_a, loss.eta_a * n / 2)
        expect_close("P(vacuum)", float(probs[0, 0]), (_vacuum(n - n_l, n_l, loss) + _vacuum(n_l, n - n_l, loss)) / 2)

    def check_quadrature(values) -> None:
        first, second = values
        expect(abs(first) <= 1e-10 * max(1.0, abs(want)), f"order-1 moment {first!r} should vanish")
        expect(abs(second - want) <= tolerances()["EQ_TOL"] * abs(want), f"order-2 moment {second!r}, expected {want!r}")

    def quadratures(done):
        return nc.moment_from_quadratures(done[lossy], 1), nc.moment_from_quadratures(done[lossy], 2)

    def check_detected(value) -> None:
        expect(abs(value - want) <= tolerances()["EQ_TOL"] * abs(want), f"moment {value!r}, expected {want!r}")

    ops = [
        Op(dm, lambda _: nc.to_density_matrix(state), _check_embedding(state)),
        Op(lossy, lambda done: nc.apply_loss(done[dm], loss), check_lossy),
    ]
    if n in QUADRATURE_CATS:
        ops.append(Op(f"moment_from_quadratures/cat/N={n}", quadratures, check_quadrature))
        detected = lambda _: nc.detected_moment(state, (2, 0, 0, 2), loss)  # noqa: E731
        ops.append(Op(f"detected_moment/cat/N={n}", detected, check_detected))
    return ops
