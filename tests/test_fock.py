import decimal
import math

import numpy as np
import pytest

from noon_coherence import (
    FixedNState,
    OperatorMonomial,
    TwoModeDensityMatrix,
    cross_moment,
    moment,
    number_distribution,
    schwinger_moments,
    to_density_matrix,
)
from noon_coherence.channels import (
    LossSetting,
    apply_loss,
    detected_moment,
    lossy_number_distribution,
)
from noon_coherence.dynamics import build_hamiltonian
from noon_coherence.errors import NumericalError
from noon_coherence import fock
from noon_coherence.fock import log_factorial
from noon_coherence.interferometry import (
    _QUADRATURE_MONOMIALS,
    beam_splitter_matrix,
    mode_transform,
    mode_transform_density,
)
from noon_coherence.states import make_binomial_splitter, make_noon, make_number_pair

from helpers import (
    close,
    mixture_test_states,
    random_fixed_state,
    random_mixture,
    reference_moments,
    two_mode_spin_matrices,
)


def test_fixed_n_state_validates_normalization():
    with pytest.raises(ValueError):
        FixedNState(1, np.array([1.0, 1.0]))
    state = FixedNState.from_amplitudes([1.0, 1.0])
    assert np.allclose(state.amplitudes, 1 / np.sqrt(2))
    with pytest.raises(ValueError):
        FixedNState(2, np.array([1.0, 0.0]))  # wrong length


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_fixed_n_state_rejects_non_finite_amplitudes(bad):
    # A nan norm passes no comparison, so the norm check alone lets nan through.
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        FixedNState(1, np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        FixedNState.from_amplitudes([bad, 1.0])


def _invalid_content(rho):
    """(blocks, message) pairs: copies of rho's blocks with right shapes and
    wrong content, and the ValueError message each must raise."""

    def variant(change):
        blocks = [block.copy() for block in rho.blocks]
        change(blocks)
        return blocks

    def skew(blocks):
        blocks[2][0, 1] += 0.01

    def scale(blocks):
        blocks[:] = [0.9 * block for block in blocks]

    def negative(blocks):
        # |1, 0> at -0.1, the sector's trace kept
        trace = blocks[1].trace()
        blocks[1][:, :] = 0.0
        blocks[1][0, 0], blocks[1][1, 1] = -0.1, trace + 0.1

    def above_bound(blocks):
        # |<3, 0| rho |0, 3>|^2 above P(3, 0) P(0, 3)
        pop = blocks[3].diagonal().real
        blocks[3][0, 3] = 1.01 * np.sqrt(pop[0] * pop[3]) + 1e-3
        blocks[3][3, 0] = np.conj(blocks[3][0, 3])

    def not_finite(value, row, col):
        def change(blocks):
            blocks[2][row, col] = value

        return change

    def infinite_pair(value):
        # an infinite pair is "Hermitian" but not finite
        def change(blocks):
            blocks[3][0, 3] = blocks[3][3, 0] = value

        return change

    return [
        (variant(skew), "not Hermitian"),
        (variant(scale), "trace must be 1"),
        (variant(negative), "real and nonnegative"),
        (variant(above_bound), "positivity bound"),
        (variant(not_finite(np.nan, 1, 1)), "must be finite"),
        (variant(not_finite(np.inf, 0, 2)), "must be finite"),
        (variant(not_finite(complex(0.1, -np.inf), 2, 0)), "must be finite"),
        (variant(not_finite(complex(np.nan, 0.0), 0, 1)), "must be finite"),
        (variant(infinite_pair(np.inf)), "must be finite"),
        (variant(infinite_pair(-np.inf)), "must be finite"),
    ]


def test_density_matrix_validation():
    rho = random_mixture(3, np.random.default_rng(4))
    rebuilt = TwoModeDensityMatrix(rho.cutoff, rho.blocks)
    assert len(rebuilt.blocks) == len(rho.blocks)
    assert all(np.array_equal(a, b) for a, b in zip(rebuilt.blocks, rho.blocks))

    def reshape(blocks):
        blocks[1] = np.zeros((3, 3))
        return blocks

    cases = _invalid_content(rho) + [
        (list(rho.blocks[:-1]), "do not match cutoff"),
        (list(rho.blocks) + [np.zeros((5, 5))], "do not match cutoff"),
        (reshape(list(rho.blocks)), "do not match cutoff"),
    ]
    for blocks, message in cases:
        with pytest.raises(ValueError, match=message):
            TwoModeDensityMatrix(3, blocks)
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        TwoModeDensityMatrix(-1, [])
    with pytest.raises(ValueError, match="must be finite"):
        TwoModeDensityMatrix(1, [[[np.nan]], np.zeros((2, 2))])


def test_store_path_checks_as_the_block_constructor():
    # The library's producers hand a concatenated store to the same checks.
    rho = random_mixture(3, np.random.default_rng(4))
    for blocks, message in _invalid_content(rho):
        store = np.concatenate([block.ravel() for block in blocks]).astype(complex)
        with pytest.raises(ValueError, match=message):
            TwoModeDensityMatrix._from_store(3, store)
        with pytest.raises(ValueError, match=message):
            TwoModeDensityMatrix(3, blocks)
    store = np.concatenate([block.ravel() for block in rho.blocks])
    taken = TwoModeDensityMatrix._from_store(3, store)
    assert taken._flat is store and not store.flags.writeable
    assert all(np.array_equal(a, b) for a, b in zip(taken.blocks, rho.blocks))
    assert np.array_equal(taken.diagonal_probabilities(), rho.diagonal_probabilities())


def test_library_producers_use_the_store_checks(monkeypatch):
    checked = []
    exact = fock._checked_populations

    def counting(cutoff, flat):
        checked.append(cutoff)
        return exact(cutoff, flat)

    def no_blocks(*args):
        raise AssertionError("the block constructor was called")

    monkeypatch.setattr(fock, "_checked_populations", counting)
    monkeypatch.setattr(TwoModeDensityMatrix, "__init__", no_blocks)
    rho = to_density_matrix(make_noon(5))
    lossy = apply_loss(rho, LossSetting(0.7, 0.9))
    mode_transform_density(lossy, beam_splitter_matrix(0.4))
    assert checked == [5, 5, 5]


def test_monomial_validation():
    with pytest.raises(ValueError):
        OperatorMonomial(-1, 0, 0, 0)
    assert OperatorMonomial.cross(3) == OperatorMonomial(3, 0, 0, 3)
    assert OperatorMonomial(1, 2, 3, 4).adjoint == OperatorMonomial(3, 4, 1, 2)


def test_moment_ideal_noon():
    # <a^dag^2 b^2> on the N=2 NOON state is 2!/2.
    assert close(cross_moment(make_noon(2), 2), 1.0)


def test_moment_vacuum():
    vacuum = FixedNState(0, np.array([1.0 + 0j]))
    assert moment(vacuum, (1, 0, 0, 1)) == 0j


def test_moment_binomial_splitter():
    # 3!/(2^2 * 1!) = 1.5
    assert close(cross_moment(make_binomial_splitter(3), 2), 1.5)


def test_moment_phase_sign():
    assert close(cross_moment(make_noon(2, phase=np.pi), 2), -1.0)


def test_number_selection_rule():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        state = random_fixed_state(n, rng)
        p, q, r, s = (int(rng.integers(0, 3)) for _ in range(4))
        if p + q != r + s:
            assert moment(state, (p, q, r, s)) == 0j


def test_moment_hermiticity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = random_fixed_state(int(rng.integers(2, 7)), rng)
        p, q = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        r, s = p, q  # keep the total balanced but allow asymmetry below
        k = int(rng.integers(0, 2))
        mono = OperatorMonomial(p + k, q, r, s + k)
        assert close(moment(state, mono), np.conj(moment(state, mono.adjoint)))
    rho = random_mixture(4, rng)
    mono = OperatorMonomial(2, 1, 1, 2)
    assert close(moment(rho, mono), np.conj(moment(rho, mono.adjoint)))


def test_density_moment_matches_pure_formula():
    rng = np.random.default_rng(3)
    for n in range(1, 13):
        state = random_fixed_state(n, rng)
        rho = to_density_matrix(state)
        for order in range(1, n + 1):
            assert close(cross_moment(rho, order), cross_moment(state, order))


def test_density_layout_is_complete_sectors():
    rng = np.random.default_rng(8)
    state = random_fixed_state(6, rng)
    rho = to_density_matrix(state)
    lossy = apply_loss(rho, LossSetting(0.7, 0.9))
    rotated = mode_transform_density(lossy, beam_splitter_matrix(0.4))
    for out in (rho, lossy, rotated):
        assert len(out.blocks) == out.cutoff + 1
        for total, block in enumerate(out.blocks):
            assert block.shape == (total + 1, total + 1)
    noon = to_density_matrix(make_noon(100))
    assert sum(block.nbytes for block in noon.blocks) == 5_576_816  # 16 sum_{k<=101} k^2


@pytest.mark.parametrize("cutoff", [0, 1, 5, 12])
def test_coherences_are_the_block_subdiagonals(cutoff):
    rng = np.random.default_rng(310 + cutoff)
    for rho in mixture_test_states(cutoff, rng):
        for order in range(1, cutoff + 2):
            n_left, m_right, values = rho.coherences(order)
            # sector N = n' + m' + n ascending, then m' ascending: the
            # subdiagonal block[m' + n, m'] = <n', m'+n| rho |n'+n, m'>
            totals = range(order, cutoff + 1)
            want_right = [np.arange(total - order + 1) for total in totals]
            want_left = [total - order - m for total, m in zip(totals, want_right)]
            want_values = [np.diagonal(rho.blocks[total], -order) for total in totals]
            for got, want in ((n_left, want_left), (m_right, want_right), (values, want_values)):
                want = np.concatenate(want) if want else np.empty(0)
                assert got.shape == want.shape and (got == want).all(), (order, got, want)
            assert values.dtype == complex
        with pytest.raises(ValueError):
            rho.coherences(-1)
    for arr in fock._pair_table(cutoff):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def _monomial_sets(size: int) -> list[tuple[tuple[int, ...], ...]]:
    """The quadrature and spin monomials, and single cross monomials of
    orders whose moments stay within float64 range (the order-250 moment of
    a random N = 500 state is about e^1477)."""
    crosses = sorted({0, 1, 2, 3, min(size, 20)})
    return [
        _QUADRATURE_MONOMIALS,
        fock._SPIN_MONOMIALS,
        *[((n, 0, 0, n),) for n in crosses],
    ]


@pytest.mark.parametrize(
    "kind, size",
    [("pure", 1), ("pure", 20), ("pure", 500)]
    + [("density", c) for c in (0, 1, 12, 40)],
)
def test_cached_moments_equal_the_uncached_reference(kind, size):
    rng = np.random.default_rng(300 + size)
    states = [random_fixed_state(size, rng)] if kind == "pure" else mixture_test_states(size, rng)
    for state in states:
        for monos in _monomial_sets(size):
            for _ in range(2):  # the cold and the cached table
                got = fock._moments(state, monos)
                want = reference_moments(state, monos)
                assert got.dtype == want.dtype and (got == want).all(), monos


def test_moment_tables_survive_eviction_and_are_read_only():
    rng = np.random.default_rng(41)
    rho = mixture_test_states(12, rng)[1]
    first = fock._moments(rho, fock._SPIN_MONOMIALS)
    # more distinct keys than the cache holds push the first table out
    pure = random_fixed_state(60, rng)
    for n in range(fock.MOMENT_TABLES + 4):
        monos = ((n, 0, 0, n),)
        assert (fock._moments(pure, monos) == reference_moments(pure, monos)).all()
    assert fock._moment_table.cache_info().currsize == fock.MOMENT_TABLES
    again = fock._moments(rho, fock._SPIN_MONOMIALS)
    assert (again == first).all()
    assert (again == reference_moments(rho, fock._SPIN_MONOMIALS)).all()
    table = fock._moment_table(False, 12, fock._SPIN_MONOMIALS)
    for arr in table:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_number_changing_moment_is_exactly_zero():
    # |2, 0> at cutoff 2: a^dag would leave the stored space, but a
    # block-diagonal state has no element between different totals
    rho = to_density_matrix(make_number_pair(2, 2))
    assert rho.diagonal_probabilities()[2, 0] == 1.0
    for mono in ((1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 1, 0), (0, 0, 1, 1)):
        assert moment(rho, mono) == 0j


def test_schwinger_single_excitation():
    state = make_number_pair(1, 1)  # |1, 0>
    m = schwinger_moments(state)
    assert close(m.jz, 0.5) and close(m.jx, 0.0) and close(m.jy, 0.0)


def test_schwinger_noon_second_moment():
    for n in (2, 4, 7):
        m = schwinger_moments(make_noon(n))
        assert close(m.jx, 0.0) and close(m.jy, 0.0)
        assert close(m.jz2, n**2 / 4.0)


def test_schwinger_coherent_spin_state():
    # (a^dag + b^dag)^2 |0,0> / sqrt(2^2 2!) has binomial amplitudes; its mean
    # spin points along +x with <J_X> = 1.  Cross-check against the dense
    # two-mode operator matrices.
    state = make_binomial_splitter(2)
    m = schwinger_moments(state)
    assert close(m.jx, 1.0) and close(m.jy, 0.0)
    ops = two_mode_spin_matrices(2)
    rho = to_density_matrix(state).entries
    assert close(np.trace(rho @ ops["jx"]).real, 1.0)
    assert close(np.trace(rho @ ops["jy"]).real, 0.0)


def test_schwinger_rotated_second_moment_identity():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        state = random_fixed_state(n, rng)
        theta = float(rng.uniform(0, 2 * np.pi))
        m = schwinger_moments(state, angles=(theta,))
        combo = (
            np.cos(theta) ** 2 * m.jx2
            + np.sin(theta) ** 2 * m.jy2
            + np.cos(theta) * np.sin(theta) * m.jxy_anti
        )
        assert close(m.jtheta2[theta], combo)


def test_schwinger_variances_nonnegative():
    rng = np.random.default_rng(17)
    for _ in range(25):
        state = random_fixed_state(int(rng.integers(1, 9)), rng)
        m = schwinger_moments(state)
        assert m.jx_var >= -1e-12
        assert m.jy_var >= -1e-12
        assert m.jz_var >= -1e-12


def test_moment_within_float_range_at_n_500():
    # first-order splitter moment is N/2; amplitudes and weights pass
    # through log space, so nothing overflows on the way
    state = make_binomial_splitter(500)
    assert close(cross_moment(state, 1), 250.0, tol=1e-11)


def test_moment_beyond_float_range_raises():
    # |<(a^dag)^250 b^250>| of a random N = 500 state is about e^1477: its
    # ladder weights overflow, so the sum is not finite in float64
    state = random_fixed_state(500, np.random.default_rng(5))
    loss = LossSetting.uniform(0.5)
    with np.errstate(all="raise"):  # no numpy warning escapes
        with pytest.raises(NumericalError, match=r"OperatorMonomial\(p=250, q=0, r=0, s=250\)"):
            cross_moment(state, 250)
        with pytest.raises(NumericalError, match="overflows float64"):
            detected_moment(state, (250, 0, 0, 250), loss)
    assert np.isfinite(cross_moment(state, 100))


def test_schwinger_density_matches_pure():
    # the amplitude route and the monomial route agree on every field, each
    # to 1e-14 of the scale (N/2)^k of an order-k moment
    order = {"jx": 1, "jy": 1, "jz": 1, "ntot": 1, "jx2": 2, "jy2": 2, "jz2": 2,
             "jxy_anti": 2, "jtheta2": 2, "jtheta3": 3, "gtheta3": 3}
    angles = (0.0, np.pi / 2, np.pi / 4, 0.3)
    rng = np.random.default_rng(9)
    for n in (1, 20, 100):
        state = random_fixed_state(n, rng)
        mp = schwinger_moments(state, angles)
        md = schwinger_moments(to_density_matrix(state), angles)
        assert mp.ntot == float(n)
        for attr, k in order.items():
            pure, density = getattr(mp, attr), getattr(md, attr)
            if isinstance(pure, dict):
                assert list(pure) == list(density) == list(angles), attr
                pairs = [(pure[t], density[t]) for t in angles]
            else:
                pairs = [(pure, density)]
            for p, d in pairs:
                assert abs(p - d) <= 1e-14 * max(n / 2, 1) ** k, (n, attr)


def test_pure_squeezed_variance_matches_extended_precision():
    # the N = 500, g = 0.5 Josephson ground state, turned by exp(i pi sigma_x/4)
    # so that J_Y is its squeezed component: norms of J_Y d give the variance
    # to rounding, where the monomial forms (differences of terms of order
    # N^2/4) miss it by about 5e-12 relative
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is no wider than float64 here")
    n = 500
    ground = FixedNState.from_amplitudes(build_hamiltonian(n, 0.5).eigenvectors[:, 0])
    turn = np.cos(np.pi / 4) * np.eye(2) + 1j * np.sin(np.pi / 4) * np.array([[0, 1], [1, 0]])
    state = mode_transform(ground, turn)
    d = state.amplitudes.astype(np.clongdouble)
    m = np.arange(n, dtype=np.longdouble)
    up = np.sqrt((m + 1) * (n - m))
    jy_d = np.zeros_like(d)
    jy_d[:-1] += up * d[1:] / 2j
    jy_d[1:] -= up * d[:-1] / 2j
    reference = np.vdot(jy_d, jy_d).real - np.vdot(d, jy_d).real ** 2
    assert 11.08 < reference < 11.09
    assert abs(schwinger_moments(state).jy_var - reference) <= 1e-13 * reference


def test_schwinger_mixture_matches_dense_operators():
    rng = np.random.default_rng(10)
    rho = random_mixture(5, rng, components=4)
    theta = 0.7
    m = schwinger_moments(rho, angles=(theta,))
    ops = two_mode_spin_matrices(5)
    jx, jy = ops["jx"], ops["jy"]
    jt = np.cos(theta) * jx + np.sin(theta) * jy
    gt = -np.sin(theta) * jx + np.cos(theta) * jy
    dense = rho.entries

    def expect(mat):
        return np.trace(dense @ mat).real

    assert close(m.jx, expect(jx)) and close(m.jy, expect(jy))
    assert close(m.jz, expect(ops["jz"])) and close(m.ntot, expect(ops["ntot"]))
    assert close(m.jx2, expect(jx @ jx)) and close(m.jy2, expect(jy @ jy))
    assert close(m.jz2, expect(ops["jz"] @ ops["jz"]))
    assert close(m.jxy_anti, expect(jx @ jy + jy @ jx))
    assert close(m.jtheta2[theta], expect(jt @ jt))
    assert close(m.jtheta3[theta], expect(jt @ jt @ jt))
    assert close(m.gtheta3[theta], expect(gt @ gt @ gt))


def test_number_distribution_noon():
    assert number_distribution(make_noon(4)) == pytest.approx({-4: 0.5, 4: 0.5})


def test_number_distribution_splitter():
    dist = number_distribution(make_binomial_splitter(2))
    assert dist == pytest.approx({-2: 0.25, 0: 0.5, 2: 0.25})


def test_number_distribution_sums_to_one():
    rng = np.random.default_rng(13)
    state = random_fixed_state(9, rng)
    assert close(sum(number_distribution(state).values()), 1.0)
    rho = random_mixture(5, rng)
    assert close(sum(number_distribution(rho).values()), 1.0)


def test_attenuated_noon_distribution_is_bimodal():
    # N = 50 at 80% transmission: lobes peak at +-2*eta*N/2 = +-40.
    dist = lossy_number_distribution(make_noon(50), LossSetting.uniform(0.8))
    positive = {k: v for k, v in dist.items() if k > 0}
    assert max(positive, key=positive.get) == 40
    assert dist[40] == dist[-40]
    assert dist.get(0, 0.0) < 1e-6
    assert close(sum(dist.values()), 1.0)


def test_to_density_matrix_examples():
    rho = to_density_matrix(make_noon(1))
    assert close(abs(rho.blocks[1][0, 1]), 0.5)  # <1, 0| rho |0, 1>
    assert close(np.trace(rho.entries).real, 1.0)
    rho3 = to_density_matrix(make_noon(3))
    assert close(rho3.blocks[3][3, 0], 0.5)  # <0, 3| rho |3, 0>
    # rank 1
    eigs = np.linalg.eigvalsh(rho3.entries)
    assert close(eigs[-1], 1.0) and np.all(eigs[:-1] < 1e-12)


def test_log_factorial_is_correctly_rounded():
    ctx = decimal.Context(prec=50)
    total = decimal.Decimal(0)
    reference = [0.0]
    for k in range(1, 4001):
        total = ctx.add(total, ctx.ln(k))
        reference.append(float(total))
    table = log_factorial(np.arange(4001))
    assert np.flatnonzero(table != np.array(reference)).tolist() == []
    # the sum of x87 extended-precision logs alone rounds this entry up
    assert log_factorial(6974) == float(ctx.ln(math.factorial(6974)))


def test_log_factorial_edges():
    assert log_factorial(-1) == np.inf
    assert np.all(log_factorial(np.array([-3, -2, -1])) == np.inf)
    assert np.ndim(log_factorial(5)) == 0
    assert log_factorial(5) == float(decimal.Context(prec=50).ln(120))
    assert log_factorial(5.0) == log_factorial(5) == log_factorial(np.uint8(5))
    grid = np.arange(-2, 10).reshape(3, 4)
    values = log_factorial(grid)
    assert values.shape == (3, 4)
    assert np.all(values[grid < 0] == np.inf)
    assert np.array_equal(values[grid >= 0], log_factorial(np.arange(10)))
    assert log_factorial(np.zeros((0, 2), dtype=int)).shape == (0, 2)
    for bad in (2.5, np.nan, np.inf, [1.0, 2.5], "3"):
        with pytest.raises(ValueError):
            log_factorial(bad)
