"""Coherence spectrum, catness fidelity and its measurable lower bound.

The order-n coherence elements of a two-mode state are the density-matrix
entries connecting |n'>_a |m'+n>_b with |n'+n>_a |m'>_b, i.e. number states
whose mode difference 2 J_Z differs by 2n.  Their normalized magnitude sum is
the catness fidelity C_n; the single cross moment <(a^dag)^n b^n> divided by
the support-dependent factor S and scaled by the same normalization is a
measurable lower bound c_n <= C_n.

The normalization constant is the reciprocal of the largest value the
coherence sum sum_m |d_m d_{m+n}| can take over normalized amplitudes.  That
quadratic form is (1/2) d^T A d with A the adjacency matrix of disjoint
chains linking the index classes {m, m+n, m+2n, ...}; its maximum over the
unit sphere is half the top chain eigenvalue, giving the closed form
cos(pi / (floor(N/n) + 2)).  A projected-gradient maximizer ships alongside
as an independent check of that derivation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    FixedNState,
    OperatorMonomial,
    State,
    TwoModeDensityMatrix,
    log_factorial,
    moment,
)
from .tolerances import ELEMENT_TOL, SUPPORT_EPS


# ---------------------------------------------------------------------------
# normalization constant
# ---------------------------------------------------------------------------


def max_coherence_sum(total_number: int, order: int) -> float:
    """Largest possible sum_m |d_m d_{m+order}| over normalized amplitudes.

    Closed form from the chain decomposition: the longest index chain has
    floor(N/n) + 1 nodes, and a path graph with L nodes has top eigenvalue
    2 cos(pi / (L + 1)).
    """
    if not 1 <= order <= total_number:
        raise ValueError("order must lie in [1, total_number]")
    chain = total_number // order
    if chain == 1:
        # Exactly two amplitudes contribute per chain; the analytic value is
        # cos(pi/3) = 1/2, returned exactly to avoid a one-ulp cosine error.
        return 0.5
    return float(np.cos(np.pi / (chain + 2)))


def normalization(total_number: int, order: int) -> float:
    """Normalization constant making the maximal catness fidelity equal 1."""
    return 1.0 / max_coherence_sum(total_number, order)


def max_coherence_sum_numeric(
    total_number: int,
    order: int,
    restarts: int = 200,
    seed: int = 1234,
    max_iter: int = 60000,
    stall_tol: float = 1e-12,
    stall_limit: int = 12,
    check_every: int = 4,
) -> float:
    """Numerically maximized coherence sum, independent of the closed form.

    Projected gradient ascent on the unit sphere with nonnegative
    amplitudes; each restart index has its own fixed seed so results do not
    depend on the restart count or evaluation order.  Converges well past
    the 1e-6 agreement the closed form is held to.
    """
    if not 1 <= order <= total_number:
        raise ValueError("order must lie in [1, total_number]")
    dim = total_number + 1
    x = np.empty((restarts, dim))
    for i in range(restarts):
        x[i] = np.random.default_rng(seed + i).random(dim)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    n = order
    grad = np.empty_like(x)
    best = 0.0
    stall = 0
    for iteration in range(max_iter):
        grad[:] = 0.0
        grad[:, n:] += x[:, :-n]
        grad[:, :-n] += x[:, n:]
        x += grad
        np.maximum(x, 0.0, out=x)
        x /= np.sqrt(np.einsum("ri,ri->r", x, x))[:, None]
        if iteration % check_every:
            continue
        value = float(np.einsum("ri,ri->r", x[:, :-n], x[:, n:]).max())
        if value - best < stall_tol:
            stall += 1
            if stall >= stall_limit:
                break
        else:
            stall = 0
        best = max(best, value)
    return best


# ---------------------------------------------------------------------------
# coherence spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoherenceElement:
    """One order-n coherence element C_n^{(n', m')} = 2 |<n', m'+n| rho |n'+n, m'>|."""

    order: int
    left_index: int  # n'
    right_index: int  # m'
    offset: int  # j_c = n' - m'
    magnitude: float


def coherence_spectrum(
    state: State, order: int, element_tol: float = ELEMENT_TOL
) -> list[CoherenceElement]:
    """All coherence elements of the given order with magnitude above tol.

    An empty list certifies that no order-n coherence is resolvable at the
    stored cutoff.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    elements: list[CoherenceElement] = []
    if isinstance(state, FixedNState):
        n_tot = state.total_number
        d = state.amplitudes
        for m in range(0, n_tot - order + 1):
            mag = 2.0 * abs(d[m + order] * np.conj(d[m]))
            if mag > element_tol:
                n_left = n_tot - order - m
                elements.append(
                    CoherenceElement(order, n_left, m, n_left - m, float(mag))
                )
        return elements
    n_left, m_right, values = state.coherences(order)
    mags = 2.0 * np.abs(values)
    keep = np.flatnonzero(mags > element_tol)
    for i in keep[np.lexsort((m_right[keep], n_left[keep]))]:
        n_l, m_r = int(n_left[i]), int(m_right[i])
        elements.append(CoherenceElement(order, n_l, m_r, n_l - m_r, float(mags[i])))
    return elements


def spread(state: State, element_tol: float = ELEMENT_TOL) -> int:
    """Largest order carrying any nonzero coherence element.

    Equals the maximal separation, in units of the mode-number difference
    j = (n_a - n_b)/2, between basis states the state actually connects.
    """
    if isinstance(state, FixedNState):
        mags = np.abs(state.amplitudes)
        pair = 2.0 * np.outer(mags, mags)
        i, j = np.nonzero(pair > element_tol)
        return int(np.max(j - i)) if i.size else 0
    widest = 0
    for block in state.blocks:
        rows, cols = np.nonzero(2.0 * np.abs(block) > element_tol)
        widest = max(widest, int(np.max(rows - cols, initial=0)))
    return widest


# ---------------------------------------------------------------------------
# support factor S
# ---------------------------------------------------------------------------


def log_b_factors(total_number: int, order: int) -> np.ndarray:
    """log of B_m = sqrt((m+n)! (N-m)! / (m! (N-m-n)!)) for m = 0..N-n."""
    m = np.arange(total_number - order + 1)
    return 0.5 * (
        log_factorial(m + order)
        - log_factorial(m)
        + log_factorial(total_number - m)
        - log_factorial(total_number - m - order)
    )


@dataclass(frozen=True)
class SFactor:
    """Supremum of the factorial weights over the state's supported pairs."""

    value: float
    log_value: float
    pair: tuple[int, int]  # (n', m') attaining the supremum

    @property
    def m(self) -> int:
        return self.pair[1]


def s_factor(state: State, order: int, support_eps: float = SUPPORT_EPS) -> SFactor:
    """S = sup over supported (n', m') of sqrt((m'+n)!/m'!) sqrt((n'+n)!/n'!).

    A pair counts as supported when both linked occupation probabilities
    P(n', m'+n) and P(n'+n, m') exceed ``support_eps``.  Raises ValueError
    when no pair is supported at that threshold.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if isinstance(state, FixedNState):
        n_tot = state.total_number
        if order > n_tot:
            raise ValueError("order exceeds the total particle number")
        probs = state.probabilities()
        ms = np.arange(n_tot - order + 1)
        supported = (probs[ms] > support_eps) & (probs[ms + order] > support_eps)
        if not np.any(supported):
            raise ValueError(
                f"no supported mode-number pair at order {order} "
                f"(support_eps={support_eps:g})"
            )
        logs = log_b_factors(n_tot, order)
        masked = np.where(supported, logs, -np.inf)
        m_best = int(np.argmax(masked))
        return SFactor(
            value=float(np.exp(logs[m_best])),
            log_value=float(logs[m_best]),
            pair=(n_tot - order - m_best, m_best),
        )
    probs = state.diagonal_probabilities()
    span = max(state.cutoff - order + 1, 0)
    # supported[n', m']: P(n', m'+n) and P(n'+n, m') both above support_eps
    supported = (probs[:span, order:] > support_eps) & (probs[order:, :span] > support_eps)
    if not np.any(supported):
        raise ValueError(
            f"no supported mode-number pair at order {order} "
            f"(support_eps={support_eps:g})"
        )
    n_left, m_right = np.indices(supported.shape)
    log_w = 0.5 * (
        log_factorial(m_right + order)
        - log_factorial(m_right)
        + log_factorial(n_left + order)
        - log_factorial(n_left)
    )
    best = np.unravel_index(np.argmax(np.where(supported, log_w, -np.inf)), log_w.shape)
    best_log = float(log_w[best])
    pair = (int(best[0]), int(best[1]))
    return SFactor(value=float(np.exp(best_log)), log_value=best_log, pair=pair)


# ---------------------------------------------------------------------------
# catness fidelity and its measurable bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderCoherence:
    """Catness fidelity C_n, its measurable bound c_n and their ingredients."""

    order: int
    fidelity: float  # C_n
    bound: float  # c_n
    norm: float
    s_value: float
    s_log: float
    s_pair: tuple[int, int] | None
    elements: tuple[CoherenceElement, ...]
    b_values: tuple[float, ...] | None = None


def _zero_order(order: int) -> OrderCoherence:
    return OrderCoherence(order, 0.0, 0.0, float("nan"), float("nan"), float("nan"), None, ())


def catness_fidelity(
    state: State, order: int, support_eps: float = SUPPORT_EPS
) -> OrderCoherence:
    """C_n and c_n of a state at the given coherence order.

    For pure fixed-N states C_n is exact; for mixed states the spectrum sum is
    normalized with the fixed-N constant of the largest supported total
    number (see coherence_report, which flags this choice).  The bound is
    evaluated term-by-term relative to S in log space, so it stays finite for
    N up to several hundred.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if isinstance(state, FixedNState):
        return _pure_catness(state, order, support_eps)
    return _density_catness(state, order, support_eps)


def _pure_catness(
    state: FixedNState, order: int, support_eps: float
) -> OrderCoherence:
    n_tot = state.total_number
    if order > n_tot:
        return _zero_order(order)
    d = state.amplitudes
    norm = normalization(n_tot, order)
    ms = np.arange(n_tot - order + 1)
    pair_mag = np.abs(d[ms]) * np.abs(d[ms + order])
    fidelity = float(norm * pair_mag.sum())
    elements = coherence_spectrum(state, order)
    logs = log_b_factors(n_tot, order)
    with np.errstate(over="ignore"):  # linear B values may be inf at large N
        b_values = tuple(float(v) for v in np.exp(logs))
    probs = np.abs(d) ** 2
    supported = (probs[ms] > support_eps) & (probs[ms + order] > support_eps)
    if not np.any(supported):
        return OrderCoherence(
            order, fidelity, 0.0, norm, float("nan"), float("nan"), None, tuple(elements), b_values
        )
    masked = np.where(supported, logs, -np.inf)
    m_best = int(np.argmax(masked))
    log_s = float(logs[m_best])
    # Accumulate conj(d_{m+n}) d_m B_m / S with every factor handled in log
    # magnitude, so huge weights cannot overflow before the division by S.
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(d[ms])) + np.log(np.abs(d[ms + order])) + logs - log_s
    phases = np.ones_like(d[ms])
    nz = pair_mag > 0
    phases[nz] = (d[ms][nz] / np.abs(d[ms][nz])) * np.conj(
        d[ms + order][nz] / np.abs(d[ms + order][nz])
    )
    scaled = np.sum(np.exp(log_mag[nz]) * phases[nz]) if np.any(nz) else 0.0
    bound = float(norm * abs(scaled))
    with np.errstate(over="ignore"):  # the linear S value may be inf at large N
        s_linear = float(np.exp(log_s))
    return OrderCoherence(
        order,
        fidelity,
        bound,
        norm,
        s_linear,
        log_s,
        (n_tot - order - m_best, m_best),
        tuple(elements),
        b_values,
    )


def _density_catness(
    state: TwoModeDensityMatrix, order: int, support_eps: float
) -> OrderCoherence:
    n_eff = state.max_supported_total(support_eps)
    if order > n_eff:
        return _zero_order(order)
    norm = normalization(n_eff, order)
    elements = coherence_spectrum(state, order)
    fidelity = float(norm * sum(e.magnitude for e in elements) / 2.0)
    mom = moment(state, OperatorMonomial.cross(order))
    try:
        s = s_factor(state, order, support_eps)
    except ValueError:
        if abs(mom) <= ELEMENT_TOL:
            return OrderCoherence(
                order, fidelity, 0.0, norm, float("nan"), float("nan"), None, tuple(elements)
            )
        raise ValueError(
            f"order-{order} moment is nonzero but no mode-number pair is "
            f"supported at support_eps={support_eps:g}; lower the threshold"
        )
    bound = 0.0
    if abs(mom) > 0.0:
        bound = float(norm * np.exp(np.log(abs(mom)) - s.log_value))
    return OrderCoherence(
        order, fidelity, bound, norm, s.value, s.log_value, s.pair, tuple(elements)
    )


def corrected_lower_bound(
    measured_moment: complex,
    epsilon: float,
    occupation_bound: int,
    order: int,
    s_value: float,
) -> float:
    """Lower bound on the coherence sum when out-of-range probabilities are
    only known to be below ``epsilon``.

    Subtracts the worst-case contribution (epsilon/2) (N_up + n)^n of the
    unresolved pairs before dividing by S; clamped at zero.  epsilon = 0
    recovers |moment| / S.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if occupation_bound < 0:
        raise ValueError("occupation_bound must be >= 0")
    penalty = 0.5 * epsilon * float(occupation_bound + order) ** order
    return max(0.0, (abs(measured_moment) - penalty) / s_value)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoherenceReport:
    """Per-order coherence summary of one state."""

    orders: tuple[OrderCoherence, ...]
    spread: int
    support_eps: float
    fixed_total: int | None  # None when the state is not a pure fixed-N state

    def csv_rows(self, float_format: str = "{:.12g}") -> list[str]:
        def fmt(x: float) -> str:
            return float_format.format(x)

        rows = ["n,C_n,c_n,norm,S,delta"]
        for entry in self.orders:
            rows.append(
                ",".join(
                    [
                        str(entry.order),
                        fmt(entry.fidelity),
                        fmt(entry.bound),
                        fmt(entry.norm),
                        fmt(entry.s_value),
                        str(self.spread),
                    ]
                )
            )
        return rows

    def to_json(self) -> dict:
        return {
            "spread": self.spread,
            "support_eps": self.support_eps,
            "fixed_total": self.fixed_total,
            "orders": [
                {
                    "n": e.order,
                    "C_n": e.fidelity,
                    "c_n": e.bound,
                    "norm": e.norm,
                    "S": e.s_value,
                    "s_pair": list(e.s_pair) if e.s_pair is not None else None,
                    "elements": [
                        {
                            "left": el.left_index,
                            "right": el.right_index,
                            "offset": el.offset,
                            "magnitude": el.magnitude,
                        }
                        for el in e.elements
                    ],
                }
                for e in self.orders
            ],
        }


def coherence_report(
    state: State,
    orders=None,
    support_eps: float = SUPPORT_EPS,
) -> CoherenceReport:
    """Coherence summary over the requested orders (default: all resolvable).

    For density matrices the normalization uses the fixed-N constant at the
    largest supported total number; ``fixed_total`` is None in that case to
    flag the convention.
    """
    if isinstance(state, FixedNState):
        n_max = state.total_number
        fixed_total = state.total_number
    else:
        n_max = max(state.max_supported_total(support_eps), 1)
        fixed_total = None
    if orders is None:
        orders = range(1, n_max + 1)
    entries = tuple(catness_fidelity(state, n, support_eps) for n in orders)
    return CoherenceReport(entries, spread(state), support_eps, fixed_total)
