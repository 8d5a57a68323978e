"""Shared test utilities: random states and mixtures with fixed seeds."""

import json
import math
import os
from pathlib import Path

import numpy as np

import noon_coherence
from noon_coherence import (
    FixedNState,
    NoOscillationError,
    TwoModeDensityMatrix,
    apply_loss,
    evolve,
    normalization,
)
from noon_coherence.channels import LossSetting, _damping_transfer, _log_pow
from noon_coherence.cli import format_float
from noon_coherence.dynamics import (
    DEGENERACY_FLOOR_ULPS,
    JosephsonSystem,
    PeriodEstimate,
    _quadratic_vertex,
)
from noon_coherence.fock import (
    OperatorMonomial,
    SchwingerMoments,
    _block_index,
    _difference_distribution,
    _ladder_weights,
    _sector_jz_values,
    _sector_spin,
    annihilation_matrix,
    ladder_coefficients,
    log_factorial,
    moment,
)
from noon_coherence.interferometry import QuadratureMoments


def random_fixed_state(total_number: int, rng: np.random.Generator) -> FixedNState:
    amps = rng.normal(size=total_number + 1) + 1j * rng.normal(size=total_number + 1)
    return FixedNState.from_amplitudes(amps)


def random_mixture(
    cutoff: int, rng: np.random.Generator, components: int = 3
) -> TwoModeDensityMatrix:
    """Random mixture of fixed-N pure states with totals <= cutoff."""
    weights = rng.random(components)
    weights /= weights.sum()
    blocks = [np.zeros((n + 1, n + 1), dtype=complex) for n in range(cutoff + 1)]
    for w in weights:
        n = int(rng.integers(1, cutoff + 1))
        amps = random_fixed_state(n, rng).amplitudes
        blocks[n] += w * np.outer(amps, amps.conj())
    return TwoModeDensityMatrix(cutoff, blocks)


def mixture_test_states(cutoff: int, rng: np.random.Generator) -> list[TwoModeDensityMatrix]:
    """A random mixture at the cutoff (the vacuum at cutoff 0) and a lossy
    copy of it, whose populations spread over every sector."""
    if cutoff == 0:
        return [TwoModeDensityMatrix(0, [np.ones((1, 1))])]
    rho = random_mixture(cutoff, rng, components=4)
    return [rho, apply_loss(rho, LossSetting(0.7, 0.45))]


def two_mode_spin_matrices(cutoff: int) -> dict[str, np.ndarray]:
    """Dense J_X, J_Y, J_Z and Ntot on the truncated two-mode space: the
    reference the sector-block spin moments are compared against."""
    dim = cutoff + 1
    a = annihilation_matrix(dim)
    eye = np.eye(dim, dtype=complex)
    A = np.kron(a, eye)
    B = np.kron(eye, a)
    jx = (A.conj().T @ B + A @ B.conj().T) / 2.0
    jy = (A.conj().T @ B - A @ B.conj().T) / 2j
    jz = (A.conj().T @ A - B.conj().T @ B) / 2.0
    ntot = A.conj().T @ A + B.conj().T @ B
    return {"jx": jx, "jy": jy, "jz": jz, "ntot": ntot}


def reference_kraus_weights(eta: float, dim: int, k: int) -> np.ndarray:
    """<i|K_k|i+k> = sqrt(C(i+k, k) eta^i (1-eta)^k) for i < dim - k, from
    exact binomials."""
    return np.array(
        [math.sqrt(math.comb(i + k, k) * eta**i * (1.0 - eta) ** k) for i in range(dim - k)]
    )


def kraus_operators(eta: float, dim: int) -> list[np.ndarray]:
    """All Kraus operators K_k, k = 0..dim-1, of the single-mode loss channel
    on ``dim`` levels as dense matrices, <i|K_k|i+k> from exact binomials:
    the dense Kraus reference for the loss channel."""
    return [np.diag(reference_kraus_weights(eta, dim, k), k).astype(complex) for k in range(dim)]


def _reference_damp_mode(blocks: list[np.ndarray], eta: float, mode_b: bool) -> list[np.ndarray]:
    """Apply the single-mode channel to mode a (or b) of the complete sector
    blocks N = 0..cutoff.  Losing k quanta maps the rows and columns of
    sector N that hold at least k quanta in that mode, weighted by the Kraus
    diagonals, onto rows 0..N-k of sector N - k: rows m >= k for mode b
    (which also lowers the b count m by k), rows m <= N - k for mode a."""
    weights = [reference_kraus_weights(eta, len(blocks), k) for k in range(len(blocks))]
    out = [np.zeros_like(block) for block in blocks]
    for total, block in enumerate(blocks):
        if not block.any():
            continue
        for k in range(total + 1):
            kept = total - k + 1
            if mode_b:  # row m holds m quanta in b
                w, part = weights[k][:kept], block[k:, k:]
            else:  # row m holds total - m quanta in a
                w, part = weights[k][kept - 1 :: -1], block[:kept, :kept]
            out[total - k] += w[:, None] * w[None, :] * part
    return out


def reference_apply_loss(rho: TwoModeDensityMatrix, loss: LossSetting) -> list[np.ndarray]:
    """The blocks of the lossy state, one sector block and one number of
    lost quanta at a time, then symmetrized: the reference for
    ``apply_loss``."""
    blocks = _reference_damp_mode(list(rho.blocks), loss.eta_a, mode_b=False)
    blocks = _reference_damp_mode(blocks, loss.eta_b, mode_b=True)
    return [(block + block.conj().T) / 2.0 for block in blocks]


def reference_transfer_tables(eta: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The Kraus table A[i, j] = sqrt(T[i, j]) and the transfer matrix
    T[i, j] = C(j, i) eta^i (1-eta)^(j-i), evaluated in log space on the
    gathered cells i <= j only, and zero below the diagonal: the reference
    the strided-view tables of ``channels`` must match bit for bit."""
    i, j = np.triu_indices(dim)
    log_binom = log_factorial(j) - log_factorial(i) - log_factorial(j - i)
    log_t = log_binom + _log_pow(eta, i) + _log_pow(1.0 - eta, j - i)
    kraus, transfer = np.zeros((dim, dim)), np.zeros((dim, dim))
    kraus[i, j] = np.exp(0.5 * log_t)
    transfer[i, j] = np.exp(log_t)
    return kraus, transfer


def reference_lossy_number_distribution(state: FixedNState, loss: LossSetting) -> dict[int, float]:
    """P(n_a - n_b) after loss with both transfer matrices applied as full
    products to the joint input grid: the reference for
    ``lossy_number_distribution``."""
    n_tot = state.total_number
    dim = n_tot + 1
    m = np.arange(dim)
    joint = np.zeros((dim, dim))
    joint[n_tot - m, m] = state.probabilities()
    joint = _damping_transfer(loss.eta_a, dim) @ joint
    joint = joint @ _damping_transfer(loss.eta_b, dim).T
    return _difference_distribution(joint)


def reference_mode_transform_density(rho: TwoModeDensityMatrix, u: np.ndarray) -> list[np.ndarray]:
    """The rotated blocks R_N rho_N R_N^dag, one sector at a time with the
    complex-eigh sector matrices of ``reference_sector_unitary``, each then
    symmetrized: the reference for ``mode_transform_density``."""
    blocks = []
    for total, block in enumerate(rho.blocks):
        rotation = reference_sector_unitary(total, u)
        rotated = rotation @ block @ rotation.conj().T
        blocks.append((rotated + rotated.conj().T) / 2.0)
    return blocks


def reference_quadrature_moments(state) -> QuadratureMoments:
    """The quadrature moments from 14 separate ``moment`` calls, one per
    monomial: the reference for the one-pass ``QuadratureMoments.from_state``."""

    def mom(p, q, r, s):
        return moment(state, (p, q, r, s))

    ab, abd = mom(0, 0, 1, 1), mom(0, 1, 1, 0)
    adb, adbd = mom(1, 0, 0, 1), mom(1, 1, 0, 0)
    m22, mx = mom(0, 0, 2, 2), mom(0, 2, 2, 0)
    my, mz = mom(2, 0, 0, 2), mom(2, 2, 0, 0)
    a2, ad2, na = mom(0, 0, 2, 0), mom(2, 0, 0, 0), mom(1, 0, 1, 0)
    b2, bd2, nb = mom(0, 0, 0, 2), mom(0, 2, 0, 0), mom(0, 1, 0, 1)
    return QuadratureMoments(
        xx=((ab + abd + adb + adbd) / 4.0).real,
        pp=(-(ab - abd - adb + adbd) / 4.0).real,
        xp=((ab - abd + adb - adbd) / 4j).real,
        px=((ab + abd - adb - adbd) / 4j).real,
        dd=((m22 + mx + my + mz) / 4.0).real,
        aa=(-(m22 - mx - my + mz) / 4.0).real,
        ad=((m22 + mx - my - mz) / 4j).real,
        da=((m22 - mx + my - mz) / 4j).real,
        x2_a=((a2 + ad2 + 2.0 * na + 1.0) / 4.0).real,
        p2_a=((-a2 - ad2 + 2.0 * na + 1.0) / 4.0).real,
        xp_anti_a=((a2 - ad2) / 2j).real,
        x2_rot_a=((-1j * a2 + 1j * ad2 + 2.0 * na + 1.0) / 4.0).real,
        x2_b=((b2 + bd2 + 2.0 * nb + 1.0) / 4.0).real,
        p2_b=((-b2 - bd2 + 2.0 * nb + 1.0) / 4.0).real,
        xp_anti_b=((b2 - bd2) / 2j).real,
        x2_rot_b=((-1j * b2 + 1j * bd2 + 2.0 * nb + 1.0) / 4.0).real,
    )


def reference_moments(state, exponents) -> np.ndarray:
    """``_moments`` rebuilt from scratch on every call: the state mask, the
    gathers and the ladder weights of the number-conserving monomials whose
    (p, q, r, s) are ``exponents``, with no cached table: the reference for
    the cached ``_moments``."""
    p, q, r, s = np.array(exponents).T[:, :, None]
    if isinstance(state, FixedNState):
        n_b = np.arange(state.total_number + 1)
        n_a = state.total_number - n_b
    else:
        index = _block_index(state.cutoff)
        n_a, n_b = index.n_a, index.n_b
    acts = (n_a >= r) & (n_b >= s)
    use = acts.any(axis=0)
    n_a, n_b, acts = n_a[use], n_b[use], acts[:, use]
    if isinstance(state, FixedNState):
        d = state.amplitudes
        values = np.conj(np.take(d, n_b + q - s, mode="clip")) * d[n_b]
    else:
        values = np.take(state._flat, index.diag[use] + q - s, mode="clip")
    weights = _ladder_weights(np.where(acts, n_a, r), np.where(acts, n_b, s), p, q, r, s)
    values *= np.where(acts, weights, 0.0)
    return values.sum(axis=1)


def _sector_j_theta_power(d: np.ndarray, n_tot: int, theta: float, power: int) -> np.ndarray:
    """(J_X cos(theta) + J_Y sin(theta))^power applied along axis 0."""
    for _ in range(power):
        d = _sector_spin(d, n_tot, np.exp(-1j * theta) / 2.0)
    return d


def reference_density_schwinger(rho: TwoModeDensityMatrix, angles=()) -> SchwingerMoments:
    """Spin moments as sums over sector blocks of Tr(O_N rho_N), with the
    sector operators applied block by block: the reference for the
    density-matrix path of ``schwinger_moments``."""
    names = ("jx", "jy", "jz", "ntot", "jx2", "jy2", "jz2", "jxy_anti")
    sums = dict.fromkeys(names, 0.0)
    jtheta2, jtheta3, gtheta3 = (dict.fromkeys(angles, 0.0) for _ in range(3))

    def third(block, n_tot, theta, power):
        return float(np.trace(_sector_j_theta_power(block, n_tot, theta, power)).real)

    for n_tot, block in enumerate(rho.blocks):
        jx_r, jy_r = _sector_spin(block, n_tot, 0.5), _sector_spin(block, n_tot, -0.5j)
        jz = _sector_jz_values(n_tot)
        probs = block.diagonal().real
        sums["jx"] += np.trace(jx_r).real
        sums["jy"] += np.trace(jy_r).real
        sums["jz"] += np.sum(jz * probs)
        sums["ntot"] += n_tot * np.sum(probs)
        sums["jx2"] += np.trace(_sector_spin(jx_r, n_tot, 0.5)).real
        sums["jy2"] += np.trace(_sector_spin(jy_r, n_tot, -0.5j)).real
        sums["jz2"] += np.sum(jz**2 * probs)
        anti = _sector_spin(jy_r, n_tot, 0.5) + _sector_spin(jx_r, n_tot, -0.5j)
        sums["jxy_anti"] += np.trace(anti).real
        for theta in jtheta2:
            jtheta2[theta] += third(block, n_tot, theta, power=2)
            jtheta3[theta] += third(block, n_tot, theta, power=3)
            gtheta3[theta] += third(block, n_tot, theta + np.pi / 2, power=3)
    return SchwingerMoments(
        **{name: float(value) for name, value in sums.items()},
        jtheta2=jtheta2,
        jtheta3=jtheta3,
        gtheta3=gtheta3,
    )


def reference_pure_catness(state: FixedNState, order: int, support_eps: float = 1e-9):
    """C_n, c_n, norm, log S and the S pair of one order, computed one order at
    a time with 1-D arrays: the reference for ``order_coherences``.

    Returns (fidelity, bound, norm, s_log, s_pair); s_log is nan and s_pair
    None without a supported pair, and an order above N gives zeros.
    """
    n_tot = state.total_number
    if order > n_tot:
        return 0.0, 0.0, float("nan"), float("nan"), None
    d = state.amplitudes
    norm = normalization(n_tot, order)
    ms = np.arange(n_tot - order + 1)
    pair_mag = np.abs(d[ms]) * np.abs(d[ms + order])
    fidelity = float(norm * pair_mag.sum())
    logs = 0.5 * (
        log_factorial(ms + order)
        - log_factorial(ms)
        + log_factorial(n_tot - ms)
        - log_factorial(n_tot - ms - order)
    )
    probs = np.abs(d) ** 2
    supported = (probs[ms] > support_eps) & (probs[ms + order] > support_eps)
    if not np.any(supported):
        return fidelity, 0.0, norm, float("nan"), None
    m_best = int(np.argmax(np.where(supported, logs, -np.inf)))
    log_s = float(logs[m_best])
    # conj(d_{m+n}) d_m B_m / S with every factor in log magnitude, so huge
    # weights cannot overflow before the division by S
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(d[ms])) + np.log(np.abs(d[ms + order])) + logs - log_s
    nz = pair_mag > 0
    phases = (d[ms][nz] / np.abs(d[ms][nz])) * np.conj(
        d[ms + order][nz] / np.abs(d[ms + order][nz])
    )
    scaled = np.sum(np.exp(log_mag[nz]) * phases) if np.any(nz) else 0.0
    return fidelity, float(norm * abs(scaled)), norm, log_s, (n_tot - order - m_best, m_best)


def reference_density_catness(
    rho: TwoModeDensityMatrix, order: int, support_eps: float = 1e-9, element_tol: float = 1e-12
):
    """C_n, c_n, norm, log S and the S pair of one order of a density matrix,
    computed order by order from the cross moment and an argmax of the
    factorial weights over the (n', m') population grid: the reference for
    the density rows of ``order_coherences``.

    Returns (fidelity, bound, norm, s_log, s_pair) as ``reference_pure_catness``
    does.  C_n sums the elements above ``element_tol``.  An order without a
    supported pair gives c_n = 0 when |moment| <= ``element_tol`` and raises
    ValueError otherwise.
    """
    n_eff = rho.max_supported_total(support_eps)
    if order > n_eff:
        return 0.0, 0.0, float("nan"), float("nan"), None
    norm = normalization(n_eff, order)
    # the order-n subdiagonal of every block, read from the blocks themselves
    mags = np.abs(np.concatenate([np.diagonal(block, -order) for block in rho.blocks[order:]]))
    fidelity = float(norm * mags[2.0 * mags > element_tol].sum())
    mom = moment(rho, OperatorMonomial.cross(order))
    probs = rho.diagonal_probabilities()
    span = rho.cutoff - order + 1
    # supported[n', m']: P(n', m'+n) and P(n'+n, m') both above support_eps
    supported = (probs[:span, order:] > support_eps) & (probs[order:, :span] > support_eps)
    if not np.any(supported):
        if abs(mom) <= element_tol:
            return fidelity, 0.0, norm, float("nan"), None
        raise ValueError(f"order-{order} moment is nonzero but no mode-number pair is supported")
    n_left, m_right = np.indices(supported.shape)
    log_w = 0.5 * (
        log_factorial(m_right + order)
        - log_factorial(m_right)
        + log_factorial(n_left + order)
        - log_factorial(n_left)
    )
    best = np.unravel_index(np.argmax(np.where(supported, log_w, -np.inf)), log_w.shape)
    log_s = float(log_w[best])
    bound = float(norm * np.exp(np.log(abs(mom)) - log_s)) if abs(mom) > 0.0 else 0.0
    return fidelity, bound, norm, log_s, (int(best[0]), int(best[1]))


def reference_tunnelling_period(
    system: JosephsonSystem,
    initial: FixedNState,
    samples: int = 4096,
    window_halfperiods: float = 10.0,
    overlap_tol: float = 1e-6,
) -> PeriodEstimate:
    """The tunnelling period through ``evolve`` over every eigenstate, with a
    sample-by-sample peak search: the reference for ``tunnelling_period``."""
    overlaps = np.abs(system.eigenvectors.T @ initial.amplitudes) ** 2
    scale = float(np.max(np.abs(system.eigenvalues)))
    floor = DEGENERACY_FLOOR_ULPS * np.finfo(float).eps * max(scale, 1.0)
    relevant = np.flatnonzero(overlaps > overlap_tol)
    if relevant.size < 2:
        raise NoOscillationError("single eigenstate")
    top = relevant[np.argsort(overlaps[relevant])[::-1][:2]]
    gap = float(abs(system.eigenvalues[top[0]] - system.eigenvalues[top[1]]))
    if gap <= floor:
        raise NoOscillationError("degenerate pair")
    spectral = np.pi / gap
    gaps = np.diff(np.sort(system.eigenvalues[relevant]))
    gaps = gaps[gaps > floor]
    if gaps.size == 0:
        raise NoOscillationError("all degenerate")
    times = np.linspace(0.0, window_halfperiods * np.pi / float(gaps.min()), samples)
    jz = evolve(system, initial, times).jz_mean
    if abs(jz[0]) < 1e-9:
        raise NoOscillationError("<J_Z>(0) = 0")
    width = max(3, samples // 32) | 1
    envelope = np.convolve(-np.sign(jz[0]) * jz, np.ones(width) / width, mode="same")
    lo, hi = width, samples - width
    peak_floor = 0.5 * float(envelope[lo:hi].max())
    if peak_floor > 0:
        for k in range(lo, hi):
            if (
                envelope[k] >= envelope[k - 1]
                and envelope[k] >= envelope[k + 1]
                and envelope[k] >= peak_floor
            ):
                scanned = _quadratic_vertex(times, envelope, k, width // 2)
                return PeriodEstimate(
                    float(spectral), scanned, abs(spectral - scanned) / spectral
                )
    raise NoOscillationError("no opposite-sign extremum")


def mode_generator(u: np.ndarray) -> np.ndarray:
    """Hermitian K with U = exp(iK), from U = e^{i alpha} (cos t + i sin t n.sigma),
    for a 2x2 unitary U: the generator whose sector image
    ``reference_sector_unitary`` exponentiates."""
    u = np.asarray(u, dtype=complex)
    alpha = 0.5 * np.angle(np.linalg.det(u))
    v = u * np.exp(-1j * alpha)  # in SU(2)
    h = (v - v.conj().T) / 2j  # sin(t) n.sigma
    sin_t = np.linalg.norm(h) / np.sqrt(2.0)
    t = np.arctan2(sin_t, 0.5 * np.trace(v).real)
    if sin_t == 0.0:  # v = +-1: no axis, all phase
        return (alpha + t) * np.eye(2)
    return alpha * np.eye(2) + (t / sin_t) * h


def reference_sector_unitary(total_number: int, u: np.ndarray) -> np.ndarray:
    """exp(i G) with G the complex Hermitian tridiagonal sector generator of
    U = exp(iK), through a complex ``eigh``: the reference for
    ``sector_unitary``."""
    k = mode_generator(u)
    m = np.arange(total_number + 1)
    up = ladder_coefficients(total_number)
    gen = np.diag(k[0, 0].real * (total_number - m) + k[1, 1].real * m).astype(complex)
    gen += np.diag(k[0, 1] * up, 1) + np.diag(k[1, 0] * up, -1)
    energies, vectors = np.linalg.eigh(gen)
    return (vectors * np.exp(1j * energies)) @ vectors.conj().T


def reference_density_spread(rho: TwoModeDensityMatrix, element_tol: float = 1e-12) -> int:
    """Largest m - m' over the elements with 2 |rho[m, m']| > tol, one
    sector block at a time."""
    widest = 0
    for block in rho.blocks:
        rows, cols = np.nonzero(2.0 * np.abs(block) > element_tol)
        widest = max(widest, int(np.max(rows - cols, initial=0)))
    return widest


def reference_spread(state: FixedNState, element_tol: float = 1e-12) -> int:
    """Largest j - i with 2 |d_i d_j| > tol, read off the full outer product."""
    mags = np.abs(state.amplitudes)
    i, j = np.nonzero(2.0 * np.outer(mags, mags) > element_tol)
    return int(np.max(j - i)) if i.size else 0


def close(a, b, tol=1e-10):
    """Absolute-or-relative closeness for quantities of any magnitude."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def cli_env(threads=None):
    """Environment for a CLI subprocess that imports this test run's package.

    The package's parent directory is prepended to PYTHONPATH as an absolute
    path, so the child finds the same package however the test process found
    it (an install, or a relative PYTHONPATH that breaks under another cwd).
    ``threads`` sets NOON_COHERENCE_THREADS; None removes it.
    """
    env = dict(os.environ)
    package_root = str(Path(noon_coherence.__file__).resolve().parents[1])
    paths = (package_root, env.get("PYTHONPATH", ""))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    if threads is not None:
        env["NOON_COHERENCE_THREADS"] = str(threads)
    else:
        env.pop("NOON_COHERENCE_THREADS", None)
    return env


def reference_json_text(obj, precision: int) -> str:
    """The CLI's JSON text from the standard encoder: each float rounded
    through ``format_float``, then ``sort_keys=True, indent=2``."""

    def rounded(item):
        if isinstance(item, float):
            return float(format_float(item, precision))
        if isinstance(item, dict):
            return {key: rounded(val) for key, val in item.items()}
        if isinstance(item, (list, tuple)):
            return [rounded(val) for val in item]
        return item

    return json.dumps(rounded(obj), sort_keys=True, indent=2) + "\n"


def reference_csv_text(header, rows, precision: int, comments=()) -> str:
    """The CLI's CSV text one cell at a time: integers as ``str(int)``, any
    other number through ``format_float``."""

    def cell(value) -> str:
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format_float(float(value), precision)

    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(header))
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
