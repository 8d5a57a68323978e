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
cos(pi / (floor(N/n) + 2)).  ``max_coherence_sum_numeric`` checks that
derivation independently: it maximizes the sum from seeded nonnegative starts
by batched locally optimal Rayleigh-Ritz steps, applying A by shifted slices,
without the chain decomposition or the cosine formula.

Pure fixed-N states go through one array kernel, ``order_coherences``: it
takes a (T, N+1) block of amplitude rows and a set of orders and returns
C_n, S and c_n for every (row, order).  The pairs (d_m, d_{m+n}) are strided
views of the rows, the factorial weights B_m come from a log table built on
the first use of each N and cached, and S is a masked argmax.
``catness_fidelity`` (one row, one order), ``coherence_report`` (one row,
all orders) and ``dynamics.evolve`` (T rows) all call it.  Reports hold
per-order scalars; the element lists are built only by
``CoherenceReport.to_json`` and ``coherence_spectrum``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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
) -> float:
    """Numerically maximized coherence sum, independent of the closed form.

    The sum is (1/2) x^T A x over unit vectors x >= 0, with A[m, m+n] =
    A[m+n, m] = 1; A is applied by shifted slices and never formed.  Each
    restart starts from uniform random amplitudes seeded with seed + i and
    climbs by locally optimal (LOBPCG-style) steps: the top Ritz vector of
    A on span{x, A x - rho x, previous step}, mapped through |.|, which
    keeps it feasible and cannot lower the sum because A >= 0.  All restarts
    step together; the result is the best sum over the restarts, so it can
    only grow with their number.  Iteration stops after ``stall_limit``
    steps in a row each raise that best by less than ``stall_tol``.
    """
    if not 1 <= order <= total_number:
        raise ValueError("order must lie in [1, total_number]")
    dim = total_number + 1
    n = order

    def apply_a(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        out[..., n:] += v[..., :-n]
        out[..., :-n] += v[..., n:]
        return out

    def norm(v: np.ndarray) -> np.ndarray:
        return np.sqrt(np.einsum("...i,...i->...", v, v))

    x = np.empty((restarts, dim))
    for i in range(restarts):
        x[i] = np.random.default_rng(seed + i).random(dim)
    x /= norm(x)[:, None]
    step = np.zeros_like(x)
    basis = np.empty((restarts, 3, dim))
    diagonal = np.arange(3)
    best = 0.0
    stall = 0
    for _ in range(max_iter):
        ax = apply_a(x)
        rho = np.einsum("ri,ri->r", x, ax)
        basis[:, 0] = x
        basis[:, 1] = ax - rho[:, None] * x
        basis[:, 2] = step
        # Gram-Schmidt, each vector projected twice; a direction with
        # nothing left beyond rounding (converged residual, collapsed
        # step) is zeroed and kept out of the Ritz problem below.
        dropped = np.zeros((restarts, 3), dtype=bool)
        for k in (1, 2):
            size = norm(basis[:, k])
            for _pass in range(2):
                coef = np.einsum("rki,ri->rk", basis[:, :k], basis[:, k])
                basis[:, k] -= np.einsum("rk,rki->ri", coef, basis[:, :k])
            left = norm(basis[:, k])
            dropped[:, k] = left <= 1e-10 * size
            basis[:, k] /= np.where(dropped[:, k], np.inf, left)[:, None]
        ritz = np.einsum("rki,rli->rkl", basis, apply_a(basis))
        # A zeroed direction has a zero row and column; -4 lies below the
        # spectrum of A (within [-2, 2]), so the top Ritz vector avoids it.
        ritz[:, diagonal, diagonal] -= 4.0 * dropped
        _, vectors = np.linalg.eigh(ritz)
        new = np.abs(np.einsum("rk,rki->ri", vectors[:, :, -1], basis))
        new /= norm(new)[:, None]
        np.subtract(new, x, out=step)
        x = new
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


def _element_arrays(
    state: State, order: int, element_tol: float = ELEMENT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n', m' and magnitudes of the order-n elements above tol, in spectrum
    order: ascending m' for a pure state, (n', m') lexicographic otherwise."""
    if isinstance(state, FixedNState):
        n_tot = state.total_number
        d = state.amplitudes
        m = np.arange(max(n_tot - order + 1, 0))
        mags = 2.0 * np.abs(d[m + order] * np.conj(d[m]))
        keep = mags > element_tol
        return n_tot - order - m[keep], m[keep], mags[keep]
    n_left, m_right, values = state.coherences(order)
    mags = 2.0 * np.abs(values)
    keep = np.flatnonzero(mags > element_tol)
    keep = keep[np.lexsort((m_right[keep], n_left[keep]))]
    return n_left[keep], m_right[keep], mags[keep]


def coherence_spectrum(
    state: State, order: int, element_tol: float = ELEMENT_TOL
) -> list[CoherenceElement]:
    """All coherence elements of the given order with magnitude above tol.

    An empty list certifies that no order-n coherence is resolvable at the
    stored cutoff.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    left, right, mags = _element_arrays(state, order, element_tol)
    return [
        CoherenceElement(order, n_l, m_r, n_l - m_r, mag)
        for n_l, m_r, mag in zip(left.tolist(), right.tolist(), mags.tolist())
    ]


def spread(state: State, element_tol: float = ELEMENT_TOL) -> int:
    """Largest order carrying any nonzero coherence element.

    Equals the maximal separation, in units of the mode-number difference
    j = (n_a - n_b)/2, between basis states the state actually connects.
    """
    if isinstance(state, FixedNState):
        # Sorted by descending magnitude, the partners j of amplitude i with
        # 2 |d_i d_j| > tol are a prefix whose length only shrinks as |d_i|
        # does; the widest pair of i lies at an end of that prefix's index
        # range.  Once the prefix ends before i, every pair was seen.
        mags = np.abs(state.amplitudes)
        rank = np.argsort(-mags)
        top = np.maximum.accumulate(rank).tolist()
        bottom = np.minimum.accumulate(rank).tolist()
        desc = mags[rank].tolist()
        widest, count = 0, len(desc)
        for r, (index, value) in enumerate(zip(rank.tolist(), desc)):
            while count > r and not 2.0 * (value * desc[count - 1]) > element_tol:
                count -= 1
            if count <= r:
                break
            widest = max(widest, top[count - 1] - index, index - bottom[count - 1])
        return widest
    widest = 0
    for block in state.blocks:
        rows, cols = np.nonzero(2.0 * np.abs(block) > element_tol)
        widest = max(widest, int(np.max(rows - cols, initial=0)))
    return widest


# ---------------------------------------------------------------------------
# the order kernel: C_n, S and c_n of amplitude rows over many orders
# ---------------------------------------------------------------------------

# Bytes the kernel's temporaries may hold at once: rows are processed in
# chunks sized to this (one row at least), whatever the number of rows.
KERNEL_BYTES = 32 * 2**20
# Upper bound on the live temporary bytes per (row, order, m) element.
_ELEMENT_BYTES = 40


@lru_cache(maxsize=8)
def _order_tables(total_number: int) -> tuple[np.ndarray, np.ndarray]:
    """log B_m[n, m] = log sqrt((m+n)! (N-m)! / (m! (N-m-n)!)) for every order
    n = 0..N (-inf where m > N - n), and the normalization of each order."""
    n_tot = total_number
    order = np.arange(n_tot + 1)[:, None]
    m = np.arange(n_tot + 1)
    log_b = 0.5 * (
        log_factorial(m + order)
        - log_factorial(m)
        + log_factorial(n_tot - m)
        - log_factorial(n_tot - m - order)
    )
    norms = np.array([np.nan] + [normalization(n_tot, n) for n in range(1, n_tot + 1)])
    log_b.setflags(write=False)
    norms.setflags(write=False)
    return log_b, norms


def _partners(values: np.ndarray, orders: np.ndarray, fill) -> np.ndarray:
    """[t, k, m] -> values[t, m + orders[k]], ``fill`` past the end; a strided
    view of the padded rows when the orders are consecutive."""
    rows, dim = values.shape
    padded = np.concatenate(
        (values, np.full((rows, int(orders.max())), fill, values.dtype)), axis=1
    )
    windows = np.lib.stride_tricks.sliding_window_view(padded, dim, axis=1)
    first = int(orders[0])
    if np.array_equal(orders, np.arange(first, first + orders.size)):
        return windows[:, first : first + orders.size]
    return windows[:, orders]


@dataclass(frozen=True)
class OrderArrays:
    """C_n, c_n and S of fixed-N amplitude rows (axis 0) at each order (axis 1).

    Orders above N give C_n = c_n = 0 with nan normalization and S; rows and
    orders without a supported pair give c_n = 0, nan S and ``s_m`` = -1.
    """

    total_number: int
    orders: np.ndarray  # (K,)
    norm: np.ndarray  # (K,)
    fidelity: np.ndarray  # C_n
    bound: np.ndarray  # c_n
    s_log: np.ndarray  # log S
    s_m: np.ndarray  # m' of the pair (n', m') = (N - n - m', m') attaining S

    def entries(self, row: int = 0) -> tuple[OrderCoherence, ...]:
        """The per-order results of one row."""
        with np.errstate(over="ignore"):  # the linear S value may be inf at large N
            s_value = np.exp(self.s_log[row])
        columns = zip(
            self.orders.tolist(),
            self.fidelity[row].tolist(),
            self.bound[row].tolist(),
            self.norm.tolist(),
            s_value.tolist(),
            self.s_log[row].tolist(),
            self.s_m[row].tolist(),
        )
        n_tot = self.total_number
        return tuple(
            OrderCoherence(n, big, small, norm, s, log_s, (n_tot - n - m, m) if m >= 0 else None)
            for n, big, small, norm, s, log_s, m in columns
        )


def order_coherences(
    amplitudes, orders, support_eps: float = SUPPORT_EPS
) -> OrderArrays:
    """C_n, S and c_n of a (T, N+1) block of amplitude rows at every order.

    Per row and order n, with pairs (d_m, d_{m+n}) for m = 0..N-n:
    C_n = N_{n,N} sum_m |d_m| |d_{m+n}|; S = max B_m over the supported
    pairs (both probabilities above ``support_eps``, first m on ties); and
    c_n = N_{n,N} |sum_m d_m conj(d_{m+n}) B_m / S| over every pair with a
    nonzero product, each term formed from log magnitudes so that B_m, which
    overflows float64 at large N, never appears on its own.  The pairs are
    strided views of the rows; B_m comes from a table cached per N.  Rows are
    taken in chunks so the temporaries stay within ``KERNEL_BYTES``.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim == 1:
        amps = amps[None, :]
    rows, dim = amps.shape
    n_tot = dim - 1
    orders = np.fromiter(orders, dtype=int)
    if orders.size and orders.min() < 1:
        raise ValueError("order must be >= 1")
    shape = (rows, orders.size)
    result = OrderArrays(
        n_tot,
        orders,
        np.full(orders.size, np.nan),
        np.zeros(shape),
        np.zeros(shape),
        np.full(shape, np.nan),
        np.full(shape, -1),
    )
    live = np.flatnonzero(orders <= n_tot)
    if not live.size or not rows:
        return result
    log_b_all, norms = _order_tables(n_tot)
    picked = orders[live]
    norm = norms[picked]
    result.norm[live] = norm
    log_b = log_b_all[picked]
    chunk = max(1, KERNEL_BYTES // (_ELEMENT_BYTES * picked.size * dim))
    for start in range(0, rows, chunk):
        block = slice(start, start + chunk)
        fidelity, bound, s_log, s_m = _order_rows(amps[block], picked, log_b, norm, support_eps)
        result.fidelity[block, live] = fidelity
        result.bound[block, live] = bound
        result.s_log[block, live] = s_log
        result.s_m[block, live] = s_m
    return result


def _order_rows(amps, orders, log_b, norm, support_eps):
    mag = np.abs(amps)
    with np.errstate(divide="ignore"):
        log_mag = np.log(mag)
    unit = np.divide(amps, mag, out=np.zeros_like(amps), where=mag > 0)
    held = mag**2 > support_eps

    pair = mag[:, None, :] * _partners(mag, orders, 0.0)
    fidelity = norm * pair.sum(axis=-1)
    no_product = pair == 0
    del pair

    supported = held[:, None, :] & _partners(held, orders, False)
    masked = np.where(supported, log_b, -np.inf)
    del supported
    s_m = np.argmax(masked, axis=-1)
    s_log = np.take_along_axis(masked, s_m[..., None], axis=-1)[..., 0]
    del masked
    found = s_log > -np.inf
    # Every pair enters the sum, the unsupported ones with weights B_m / S
    # that may exceed 1.  A certified c_n would take the summed ``weight``
    # of the pairs where ``supported`` is false off |sum| before scaling.
    # Without support S = +inf, which zeroes every weight and so c_n.
    weight = log_mag[:, None, :] + _partners(log_mag, orders, -np.inf)
    weight += log_b
    weight -= np.where(found, s_log, np.inf)[..., None]
    np.exp(weight, out=weight)
    np.copyto(weight, 0.0, where=no_product)  # products that underflow to 0 are left out
    terms = unit[:, None, :] * _partners(unit.conj(), orders, 0.0)
    terms *= weight
    del weight
    bound = norm * np.abs(terms.sum(axis=-1))
    return fidelity, bound, np.where(found, s_log, np.nan), np.where(found, s_m, -1)


# ---------------------------------------------------------------------------
# support factor S
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SFactor:
    """Supremum of the factorial weights over the state's supported pairs."""

    value: float
    log_value: float
    pair: tuple[int, int]  # (n', m') attaining the supremum

    @property
    def m(self) -> int:
        return self.pair[1]


def _no_support(order: int, support_eps: float) -> ValueError:
    return ValueError(
        f"no supported mode-number pair at order {order} (support_eps={support_eps:g})"
    )


def s_factor(state: State, order: int, support_eps: float = SUPPORT_EPS) -> SFactor:
    """S = sup over supported (n', m') of sqrt((m'+n)!/m'!) sqrt((n'+n)!/n'!).

    A pair counts as supported when both linked occupation probabilities
    P(n', m'+n) and P(n'+n, m') exceed ``support_eps``.  Raises ValueError
    when no pair is supported at that threshold.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if isinstance(state, FixedNState):
        if order > state.total_number:
            raise ValueError("order exceeds the total particle number")
        (entry,) = order_coherences(state.amplitudes, (order,), support_eps).entries()
        if entry.s_pair is None:
            raise _no_support(order, support_eps)
        return SFactor(entry.s_value, entry.s_log, entry.s_pair)
    probs = state.diagonal_probabilities()
    span = max(state.cutoff - order + 1, 0)
    # supported[n', m']: P(n', m'+n) and P(n'+n, m') both above support_eps
    supported = (probs[:span, order:] > support_eps) & (probs[order:, :span] > support_eps)
    if not np.any(supported):
        raise _no_support(order, support_eps)
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


def _zero_order(order: int) -> OrderCoherence:
    return OrderCoherence(order, 0.0, 0.0, float("nan"), float("nan"), float("nan"), None)


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
        return order_coherences(state.amplitudes, (order,), support_eps).entries()[0]
    return _density_catness(state, order, support_eps)


def _density_catness(
    state: TwoModeDensityMatrix, order: int, support_eps: float
) -> OrderCoherence:
    n_eff = state.max_supported_total(support_eps)
    if order > n_eff:
        return _zero_order(order)
    norm = normalization(n_eff, order)
    mags = 2.0 * np.abs(state.coherences(order)[2])
    fidelity = float(norm * mags[mags > ELEMENT_TOL].sum() / 2.0)
    mom = moment(state, OperatorMonomial.cross(order))
    try:
        s = s_factor(state, order, support_eps)
    except ValueError:
        if abs(mom) <= ELEMENT_TOL:
            return OrderCoherence(order, fidelity, 0.0, norm, float("nan"), float("nan"), None)
        raise ValueError(
            f"order-{order} moment is nonzero but no mode-number pair is "
            f"supported at support_eps={support_eps:g}; lower the threshold"
        )
    bound = 0.0
    if abs(mom) > 0.0:
        bound = float(norm * np.exp(np.log(abs(mom)) - s.log_value))
    return OrderCoherence(order, fidelity, bound, norm, s.value, s.log_value, s.pair)


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
    """Per-order coherence summary of one state.

    ``to_json`` lists each order's coherence elements; they are computed
    from ``state`` only then.
    """

    orders: tuple[OrderCoherence, ...]
    spread: int
    support_eps: float
    fixed_total: int | None  # None when the state is not a pure fixed-N state
    state: State = field(repr=False, compare=False)

    def to_json(self) -> dict:
        orders = []
        for e in self.orders:
            left, right, mags = _element_arrays(self.state, e.order)
            elements = [
                {"left": n_l, "right": m_r, "offset": n_l - m_r, "magnitude": mag}
                for n_l, m_r, mag in zip(left.tolist(), right.tolist(), mags.tolist())
            ]
            orders.append(
                {
                    "n": e.order,
                    "C_n": e.fidelity,
                    "c_n": e.bound,
                    "norm": e.norm,
                    "S": e.s_value,
                    "s_pair": list(e.s_pair) if e.s_pair is not None else None,
                    "elements": elements,
                }
            )
        return {
            "spread": self.spread,
            "support_eps": self.support_eps,
            "fixed_total": self.fixed_total,
            "orders": orders,
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
        fixed_total = state.total_number
        if orders is None:
            orders = range(1, fixed_total + 1)
        entries = order_coherences(state.amplitudes, orders, support_eps).entries()
    else:
        fixed_total = None
        if orders is None:
            orders = range(1, max(state.max_supported_total(support_eps), 1) + 1)
        entries = tuple(catness_fidelity(state, n, support_eps) for n in orders)
    return CoherenceReport(entries, spread(state), support_eps, fixed_total, state)
