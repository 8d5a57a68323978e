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
by batched locally optimal Rayleigh-Ritz steps, without the chain
decomposition, the cosine formula or an eigensolve of A.  A enters only
through shifted slices; the 3x3 Ritz matrices are solved in closed form
(trigonometric root of the characteristic cubic, eigenvector from the
adjugate), and the seeded starts are drawn once per number of restarts and
sliced for each N.

Pure and mixed states go through one array kernel, ``order_coherences``: it
takes a (T, N+1) block of amplitude rows, or a density matrix as one row, and
a set of orders, and returns C_n, S and c_n for every (row, order).  Both
forms feed one core with the order-n pairs of each row laid out (rows,
orders, pairs): magnitudes, log magnitudes, unit phases, a support mask and
the log factorial weights B.  Pure pairs (d_m, d_{m+n}) are strided views of
the rows, with B_m from a log table built on the first use of each N and
cached; a density matrix's pairs are the order-n subdiagonals of its sector
blocks, each with its own B.  S is one masked argmax over a row's pairs, and
an order without a supported pair gives c_n = 0 with nan S in both forms.
``catness_fidelity`` (one state, one order), ``s_factor``,
``coherence_report`` (one state, all orders) and ``dynamics.evolve`` (T
rows) all call it.  Reports hold per-order scalars; the element lists are
built only by ``CoherenceReport.to_json`` and ``coherence_spectrum``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import FixedNState, State, TwoModeDensityMatrix, _block_index, log_factorial
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


# The numeric oracle's fixed settings: restart i starts from
# default_rng(ORACLE_SEED + i), and the ascent stops after ORACLE_STALL_LIMIT
# steps in a row that each raise the best sum by less than ORACLE_STALL_TOL,
# or after ORACLE_MAX_ITER steps.
ORACLE_SEED = 1234
ORACLE_MAX_ITER = 60000
ORACLE_STALL_TOL = 1e-12
ORACLE_STALL_LIMIT = 12


@lru_cache(maxsize=4)
def _start_table(restarts: int, width: int) -> np.ndarray:
    """Row i holds default_rng(ORACLE_SEED + i).random(width).  A generator's
    stream does not depend on how many values are asked for, so its first d
    entries are exactly default_rng(ORACLE_SEED + i).random(d) for every
    d <= width."""
    table = np.empty((restarts, width))
    for i in range(restarts):
        table[i] = np.random.default_rng(ORACLE_SEED + i).random(width)
    table.setflags(write=False)
    return table


def _seeded_starts(restarts: int, dim: int) -> np.ndarray:
    """Rows default_rng(ORACLE_SEED + i).random(dim), i < restarts, sliced
    from the cached table of the next power of two (at least 64) above dim."""
    return _start_table(restarts, max(64, 1 << (dim - 1).bit_length()))[:, :dim]


# A top Ritz vector is read off the adjugate of H - lambda I only when its
# largest row is at least this fraction of ||H - lambda I||_F^2, which holds
# when the top eigenvalue is separated from the next by about this fraction
# of the spectrum's width; the vector's error is then at most about
# eps / RITZ_GAP^2.
RITZ_GAP = 1e-3


def _top_eigenvectors(h: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the largest eigenvalue of each matrix in a
    (R, 3, 3) stack of real symmetric matrices, each up to sign.

    The eigenvalue lambda is the largest root of the characteristic cubic in
    its trigonometric form.  When it is simple, C = H - lambda I has rank 2
    and adj(C) = mu_1 mu_2 v v^T, so every row of adj(C) (a cross product of
    two rows of C) is parallel to the eigenvector v; the row with the largest
    diagonal entry is the longest.  Rows of the stack where that row is
    shorter than ``RITZ_GAP`` ||C||_F^2 (a repeated or nearly repeated top
    eigenvalue) are solved by ``np.linalg.eigh`` instead.
    """
    count = len(h)
    flat = h.reshape(count, 9)
    q = flat[:, ::4].sum(axis=1) / 3.0
    b = flat.copy()
    b[:, ::4] -= q[:, None]
    p = np.sqrt(np.einsum("rk,rk->r", b, b) / 6.0)
    b00, b01, b02, _, b11, b12, _, _, b22 = b.T
    det = b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02) + b02 * (b01 * b12 - b11 * b02)
    # H = q I gives p = 0 and nan from here on; nan rows fail the check below.
    with np.errstate(divide="ignore", invalid="ignore"):
        half_cos = np.clip(det / (2.0 * p**3), -1.0, 1.0)
        top = q + 2.0 * p * np.cos(np.arccos(half_cos) / 3.0)
        c = flat.copy()
        c[:, ::4] -= top[:, None]
        # adj(C)[i, j] = C[i+1, j+1] C[i+2, j+2] - C[i+1, j+2] C[i+2, j+1],
        # indices mod 3, on the row-major flattening of C.
        adj = c[:, (4, 5, 3, 7, 8, 6, 1, 2, 0)] * c[:, (8, 6, 7, 2, 0, 1, 5, 3, 4)]
        adj -= c[:, (5, 3, 4, 8, 6, 7, 2, 0, 1)] * c[:, (7, 8, 6, 1, 2, 0, 4, 5, 3)]
        pick = np.argmax(adj[:, ::4], axis=1)
        vectors = adj.reshape(count, 3, 3)[np.arange(count), pick]
        size = np.einsum("rk,rk->r", vectors, vectors)
        vectors /= np.sqrt(size)[:, None]
        unsure = ~(size > (RITZ_GAP * np.einsum("rk,rk->r", c, c)) ** 2)
    if unsure.any():
        vectors[unsure] = np.linalg.eigh(h[unsure])[1][:, :, -1]
    return vectors


def max_coherence_sum_numeric(total_number: int, order: int, restarts: int = 200) -> float:
    """Numerically maximized coherence sum, independent of the closed form.

    The sum is (1/2) x^T A x over unit vectors x >= 0, with A[m, m+n] =
    A[m+n, m] = 1; A is applied by shifted slices and never formed.
    Restart i starts from the N + 1 uniform random amplitudes of
    ``default_rng(1234 + i)`` (``ORACLE_SEED``), sliced from a table drawn
    once per number of restarts and cached, and climbs by locally optimal
    (LOBPCG-style) steps: the top Ritz vector of A on span{x, A x - rho x, previous step},
    mapped through |.|, which keeps it feasible and cannot lower the sum
    because A >= 0.  The 3x3 Ritz matrices B A B^T = S + S^T, with
    S = B[:, :-n] B[:, n:]^T, come from shifted slices of the basis B, and
    their top eigenvectors from the closed-form ``_top_eigenvectors``
    rather than a general eigensolver.  All restarts step together; the
    result is the best sum over the restarts, so it can only grow with their
    number.  Iteration stops after 12 steps in a row (``ORACLE_STALL_LIMIT``)
    each raise that best by less than 1e-12 (``ORACLE_STALL_TOL``), or after
    60000 steps (``ORACLE_MAX_ITER``).
    """
    if not 1 <= order <= total_number:
        raise ValueError("order must lie in [1, total_number]")
    dim = total_number + 1
    n = order

    def norm(v: np.ndarray) -> np.ndarray:
        return np.sqrt(np.einsum("...i,...i->...", v, v))

    x = _seeded_starts(restarts, dim)
    x = x / norm(x)[:, None]
    # basis[k] holds direction k of every restart: x, the residual and the
    # previous step (zero before the first).
    basis = np.zeros((3, restarts, dim))
    diagonal = np.arange(3)
    half_rho = np.einsum("ri,ri->r", x[:, :-n], x[:, n:])  # (1/2) x^T A x
    best = 0.0
    stall = 0
    for _ in range(ORACLE_MAX_ITER):
        ax = np.zeros_like(x)
        ax[:, n:] += x[:, :-n]
        ax[:, :-n] += x[:, n:]
        basis[0] = x
        basis[1] = ax - 2.0 * half_rho[:, None] * x
        # Gram-Schmidt, each vector projected twice; a direction with
        # nothing left beyond rounding (converged residual, collapsed
        # step) is zeroed and kept out of the Ritz problem below.
        dropped = np.zeros((restarts, 3), dtype=bool)
        for k in (1, 2):
            vec = basis[k]
            size = norm(vec)
            for _pass in range(2):
                coef = np.einsum("kri,ri->kr", basis[:k], vec)
                vec -= np.einsum("kr,kri->ri", coef, basis[:k])
            left = norm(vec)
            dropped[:, k] = left <= 1e-10 * size
            vec /= np.where(dropped[:, k], np.inf, left)[:, None]
        # B A B^T = S + S^T with S = B[:, :-n] B[:, n:]^T per restart
        ritz = np.matmul(basis[:, :, :-n].transpose(1, 0, 2), basis[:, :, n:].transpose(1, 2, 0))
        ritz += ritz.transpose(0, 2, 1)
        # A zeroed direction has a zero row and column; -4 lies below the
        # spectrum of A (within [-2, 2]), so the top Ritz vector avoids it.
        ritz[:, diagonal, diagonal] -= 4.0 * dropped
        new = np.abs(np.einsum("rk,kri->ri", _top_eigenvectors(ritz), basis))
        new /= norm(new)[:, None]
        np.subtract(new, x, out=basis[2])
        x = new
        half_rho = np.einsum("ri,ri->r", x[:, :-n], x[:, n:])
        value = float(half_rho.max())
        if value - best < ORACLE_STALL_TOL:
            stall += 1
            if stall >= ORACLE_STALL_LIMIT:
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


def _element_arrays(state: State, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n', m' and magnitudes of the order-n elements above ELEMENT_TOL, in
    spectrum order: ascending m' for a pure state, (n', m') lexicographic
    otherwise."""
    if isinstance(state, FixedNState):
        n_tot = state.total_number
        d = state.amplitudes
        m = np.arange(max(n_tot - order + 1, 0))
        mags = 2.0 * np.abs(d[m + order] * np.conj(d[m]))
        keep = mags > ELEMENT_TOL
        return n_tot - order - m[keep], m[keep], mags[keep]
    n_left, m_right, values = state.coherences(order)
    mags = 2.0 * np.abs(values)
    keep = np.flatnonzero(mags > ELEMENT_TOL)
    keep = keep[np.lexsort((m_right[keep], n_left[keep]))]
    return n_left[keep], m_right[keep], mags[keep]


def coherence_spectrum(state: State, order: int) -> list[CoherenceElement]:
    """All coherence elements of the given order with magnitude above
    ELEMENT_TOL (1e-12).

    An empty list certifies that no order-n coherence is resolvable at the
    stored cutoff.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    left, right, mags = _element_arrays(state, order)
    return [
        CoherenceElement(order, n_l, m_r, n_l - m_r, mag)
        for n_l, m_r, mag in zip(left.tolist(), right.tolist(), mags.tolist())
    ]


def spread(state: State) -> int:
    """Largest order carrying any coherence element above ELEMENT_TOL (1e-12).

    Equals the maximal separation, in units of the mode-number difference
    j = (n_a - n_b)/2, between basis states the state actually connects.
    """
    if isinstance(state, FixedNState):
        # Sorted by descending magnitude, the partners j of amplitude i with
        # 2 |d_i d_j| > ELEMENT_TOL are a prefix whose length only shrinks as
        # |d_i| does; the widest pair of i lies at an end of that prefix's
        # index range.  Once the prefix ends before i, every pair was seen.
        mags = np.abs(state.amplitudes)
        rank = np.argsort(-mags)
        top = np.maximum.accumulate(rank).tolist()
        bottom = np.minimum.accumulate(rank).tolist()
        desc = mags[rank].tolist()
        widest, count = 0, len(desc)
        for r, (index, value) in enumerate(zip(rank.tolist(), desc)):
            while count > r and not 2.0 * (value * desc[count - 1]) > ELEMENT_TOL:
                count -= 1
            if count <= r:
                break
            widest = max(widest, top[count - 1] - index, index - bottom[count - 1])
        return widest
    index = _block_index(state.cutoff)
    significant = 2.0 * np.abs(state._flat) > ELEMENT_TOL
    # row m minus column m' of each element: the row and column states sit
    # in one sector, numbered by their b count
    return int(np.max(index.row[significant] - index.col[significant], initial=0))


# ---------------------------------------------------------------------------
# the order kernel: C_n, S and c_n of pure rows and density matrices
# ---------------------------------------------------------------------------

# Bytes the kernel's temporaries may hold at once, whatever the number of
# rows and orders.
KERNEL_BYTES = 32 * 2**20
# Upper bound on the live temporary bytes per (row, order, pair) element:
# about 45 for pure rows and 61 for a density matrix, whose pairs also carry
# their own log B.
_ELEMENT_BYTES = 64
# Elements per call of the core (one row and one order at least): a quarter
# of the budget.  Larger calls ran slower, as each one's temporaries landed
# on fresh pages: all orders of one N = 500 row took 9.8 ms in one call
# against 6.1 ms in calls of 2^17 elements, and a cutoff-100 density report
# 43 ms in calls of 2^19 against 12-18 ms in calls of 2^15-2^17 (2-core
# Xeon VM, numpy 2.4).
_CHUNK = KERNEL_BYTES // (4 * _ELEMENT_BYTES)


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


def _polar(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|v|, log |v| (-inf at 0) and the unit phase v / |v|, 0 where |v| is 0
    or subnormal: complex division by a subnormal |v| overflows to inf or
    nan, and a term that small cannot move c_n."""
    mag = np.abs(values)
    with np.errstate(divide="ignore"):
        log_mag = np.log(mag)
    normal = mag >= np.finfo(float).tiny
    return mag, log_mag, np.divide(values, mag, out=np.zeros_like(values), where=normal)


@dataclass(frozen=True)
class OrderArrays:
    """C_n, c_n and S of states (axis 0) at each order (axis 1).

    Orders above a state's largest (supported) total number give C_n = c_n
    = 0 with nan normalization and S; rows and orders without a supported
    pair give c_n = 0, nan S and ``s_left`` = ``s_m`` = -1.
    """

    orders: np.ndarray  # (K,)
    norm: np.ndarray  # (K,)
    fidelity: np.ndarray  # C_n
    bound: np.ndarray  # c_n
    s_log: np.ndarray  # log S
    s_left: np.ndarray  # n' of the pair (n', m') attaining S
    s_m: np.ndarray  # m' of that pair

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
            self.s_left[row].tolist(),
            self.s_m[row].tolist(),
        )
        return tuple(
            OrderCoherence(n, big, small, norm, s, log_s, (left, m) if m >= 0 else None)
            for n, big, small, norm, s, log_s, left, m in columns
        )


def order_coherences(rows, orders, support_eps: float = SUPPORT_EPS) -> OrderArrays:
    """C_n, S and c_n of pure or mixed states at every order.

    ``rows`` is a (T, N+1) block of amplitude rows, one amplitude row, a
    ``FixedNState`` or a ``TwoModeDensityMatrix``; a state is one row.  Both
    forms go through one core.  At order n a state's pairs are the order-n
    coherence elements <n', m'+n| rho |n'+n, m'> of every sector N' = n' +
    m' + n, each with the factorial weight B = sqrt((m'+n)!/m'! (n'+n)!/n'!);
    a pure row has one sector, N, and the products d_m conj(d_{m+n}).  Then
    C_n = N_{n} sum |pair|; S = max B over the supported pairs (both
    populations above ``support_eps``, first pair on ties); and c_n = N_{n}
    |sum pair B / S| over every pair with a nonzero element, each term formed
    from log magnitudes so that B, which overflows float64 at large N, never
    appears on its own.  A row or order without a supported pair has c_n = 0:
    0 is a valid lower bound.  N_{n} is ``normalization(N, n)``; a density
    matrix uses its largest supported total number for N, and orders above
    that N give zeros.

    Pure pairs are strided views of the rows, with B from a table cached per
    N; density pairs are the block subdiagonals that ``coherences`` gathers,
    with B per pair.  Rows and orders are taken in chunks so the temporaries
    stay within ``KERNEL_BYTES``.
    """
    orders = np.fromiter(orders, dtype=int)
    if orders.size and orders.min() < 1:
        raise ValueError("order must be >= 1")
    if isinstance(rows, FixedNState):
        rows = rows.amplitudes
    density = isinstance(rows, TwoModeDensityMatrix)
    if not density:
        rows = np.asarray(rows, dtype=complex)
        rows = rows[None, :] if rows.ndim == 1 else rows
    shape = (1 if density else len(rows), orders.size)
    result = OrderArrays(
        orders,
        np.full(orders.size, np.nan),
        np.zeros(shape),
        np.zeros(shape),
        np.full(shape, np.nan),
        np.full(shape, -1),
        np.full(shape, -1),
    )
    (_density_orders if density else _pure_orders)(result, rows, support_eps)
    return result


def _pure_orders(result: OrderArrays, amps: np.ndarray, support_eps: float) -> None:
    rows, dim = amps.shape
    n_tot = dim - 1
    live = np.flatnonzero(result.orders <= n_tot)
    if not live.size or not rows:
        return
    log_b_all, norms = _order_tables(n_tot)
    result.norm[live] = norms[result.orders[live]]
    order_step = max(1, min(live.size, _CHUNK // dim))
    row_step = max(1, _CHUNK // (order_step * dim))
    for first in range(0, live.size, order_step):
        cols = live[first : first + order_step]
        picked = result.orders[cols]
        log_b, norm = log_b_all[picked], norms[picked]
        for start in range(0, rows, row_step):
            block = slice(start, start + row_step)
            mag, log_mag, unit = _polar(amps[block])
            held = mag**2 > support_eps
            fidelity, bound, s_log, s_m = _order_core(
                mag[:, None, :] * _partners(mag, picked, 0.0),
                log_mag[:, None, :] + _partners(log_mag, picked, -np.inf),
                unit[:, None, :] * _partners(unit.conj(), picked, 0.0),
                held[:, None, :] & _partners(held, picked, False),
                log_b,
                norm,
            )
            result.fidelity[block, cols], result.bound[block, cols] = fidelity, bound
            result.s_log[block, cols], result.s_m[block, cols] = s_log, s_m
            result.s_left[block, cols] = np.where(s_m >= 0, n_tot - picked - s_m, -1)


def _density_orders(result: OrderArrays, rho: TwoModeDensityMatrix, support_eps: float) -> None:
    n_eff = rho.max_supported_total(support_eps)
    live = np.flatnonzero(result.orders <= n_eff)
    if not live.size:
        return
    live = live[np.argsort(result.orders[live], kind="stable")]
    picked = result.orders[live]  # ascending
    norm = result.norm[live] = np.array([normalization(n_eff, n) for n in picked.tolist()])
    side = rho.cutoff + 1
    held = (rho.diagonal_probabilities() > support_eps).ravel()  # [n_a * side + n_b]
    log_fact = log_factorial(np.arange(side))
    # ``coherences(n)`` lists the pairs with n' + m' <= cutoff - n in an order
    # that does not depend on n, so each order's (n', m') are a prefix of the
    # lowest order's, and one table serves every order.
    left, right, _ = rho.coherences(int(picked[0]))
    start = 0
    while start < picked.size:
        # a chunk is padded to the pair count of its first (lowest) order
        width = (side - picked[start]) * (side - picked[start] + 1) // 2
        block = slice(start, start + max(1, _CHUNK // width))
        start = block.stop
        n_l, m_r = left[:width], right[:width]
        fidelity, bound, s_log, s_index = _order_core(
            *_density_pairs(rho, picked[block], n_l, m_r, held, log_fact), norm[block]
        )
        cols = live[block]
        result.fidelity[:, cols], result.bound[:, cols] = fidelity, bound
        result.s_log[:, cols] = s_log
        result.s_left[:, cols] = np.where(s_index >= 0, n_l[s_index], -1)
        result.s_m[:, cols] = np.where(s_index >= 0, m_r[s_index], -1)


def _density_pairs(rho, orders, n_l, m_r, held, log_fact):
    """The core's pair arrays (all but the normalization) of a density matrix
    at ``orders``: order n takes the first pairs (n_l, m_r) with n_l + m_r <=
    cutoff - n, and the rest of its row is padding."""
    side = rho.cutoff + 1
    values = np.zeros((1, orders.size, n_l.size), dtype=complex)
    for k, n in enumerate(orders.tolist()):
        part = rho.coherences(n)[2]
        values[0, k, : part.size] = part
    # each pair's order, or 0 on padding, which keeps the indices in range
    n = np.where(n_l + m_r + orders[:, None] < side, orders[:, None], 0)
    flat = n_l * side + m_r
    supported = (n > 0) & held[flat + n] & held[flat + n * side]
    log_b = 0.5 * (log_fact[m_r + n] - log_fact[m_r] + log_fact[n_l + n] - log_fact[n_l])
    del n
    return (*_polar(values), supported[None], log_b)


def _order_core(pair, log_pair, phase, supported, log_b, norm):
    """C_n, c_n, log S and the position of S's pair (-1 without support) from
    the order-n pairs laid out (rows, orders, pairs): magnitudes, log
    magnitudes, unit phases and support mask, with log B as (orders, pairs)
    and the normalization per order.  Padding pairs have magnitude 0 and no
    support.  ``pair``, ``log_pair`` and ``phase`` are overwritten."""
    fidelity = norm * pair.sum(axis=-1)
    no_product = pair == 0
    masked = pair  # log B where supported, -inf elsewhere
    masked.fill(-np.inf)
    np.copyto(masked, log_b, where=supported)
    s_index = np.argmax(masked, axis=-1)
    s_log = np.take_along_axis(masked, s_index[..., None], axis=-1)[..., 0]
    del masked
    found = s_log > -np.inf
    # Every pair enters the sum, the unsupported ones with weights B / S
    # that may exceed 1.  A certified c_n would take the summed ``weight``
    # of the pairs where ``supported`` is false off |sum| before scaling.
    # Without support S = +inf, which zeroes every weight and so c_n.
    weight = log_pair
    weight += log_b
    weight -= np.where(found, s_log, np.inf)[..., None]
    np.exp(weight, out=weight)
    np.copyto(weight, 0.0, where=no_product)  # products that underflow to 0 are left out
    phase *= weight
    bound = norm * np.abs(phase.sum(axis=-1))
    return fidelity, bound, np.where(found, s_log, np.nan), np.where(found, s_index, -1)


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


def s_factor(state: State, order: int, support_eps: float = SUPPORT_EPS) -> SFactor:
    """S = sup over supported (n', m') of sqrt((m'+n)!/m'!) sqrt((n'+n)!/n'!).

    A pair counts as supported when both linked occupation probabilities
    P(n', m'+n) and P(n'+n, m') exceed ``support_eps``.  Read from the order
    kernel, as ``catness_fidelity`` is; raises ValueError when no pair is
    supported at that threshold, as at every order above the largest
    (supported) total number.
    """
    entry = catness_fidelity(state, order, support_eps)
    if entry.s_pair is None:
        raise ValueError(
            f"no supported mode-number pair at order {order} (support_eps={support_eps:g})"
        )
    return SFactor(entry.s_value, entry.s_log, entry.s_pair)


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


def catness_fidelity(
    state: State, order: int, support_eps: float = SUPPORT_EPS
) -> OrderCoherence:
    """C_n and c_n of a pure or mixed state at the given coherence order: one
    column of ``order_coherences``, whose core serves both forms.

    For pure fixed-N states C_n is exact; for mixed states the element sum is
    normalized with the fixed-N constant of the largest supported total
    number (see coherence_report, which flags this choice).  The bound is
    evaluated term by term relative to S in log space, so it stays finite for
    N up to several hundred; without a supported pair it is 0.
    """
    return order_coherences(state, (order,), support_eps).entries()[0]


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
    """Coherence summary over the requested orders (default: all resolvable),
    from one ``order_coherences`` call for pure and mixed states alike.

    For density matrices the normalization uses the fixed-N constant at the
    largest supported total number; ``fixed_total`` is None in that case to
    flag the convention.
    """
    if isinstance(state, FixedNState):
        fixed_total = top = state.total_number
    else:
        fixed_total, top = None, max(state.max_supported_total(support_eps), 1)
    if orders is None:
        orders = range(1, top + 1)
    entries = order_coherences(state, orders, support_eps).entries()
    return CoherenceReport(entries, spread(state), support_eps, fixed_total, state)
