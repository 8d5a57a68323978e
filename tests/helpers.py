"""Shared test utilities: random states and mixtures with fixed seeds."""

import os
from pathlib import Path

import numpy as np

import noon_coherence
from noon_coherence import FixedNState, TwoModeDensityMatrix
from noon_coherence.fock import annihilation_matrix


def random_fixed_state(total_number: int, rng: np.random.Generator) -> FixedNState:
    amps = rng.normal(size=total_number + 1) + 1j * rng.normal(size=total_number + 1)
    return FixedNState.from_amplitudes(amps)


def embed_pure(state: FixedNState, cutoff: int) -> np.ndarray:
    """|psi><psi| on the (cutoff+1)^2 grid."""
    dim = cutoff + 1
    vec = np.zeros(dim * dim, dtype=complex)
    for m, amp in enumerate(state.amplitudes):
        vec[(state.total_number - m) * dim + m] = amp
    return np.outer(vec, vec.conj())


def random_mixture(
    cutoff: int, rng: np.random.Generator, components: int = 3
) -> TwoModeDensityMatrix:
    """Random mixture of fixed-N pure states with totals <= cutoff."""
    weights = rng.random(components)
    weights /= weights.sum()
    dim = (cutoff + 1) ** 2
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        n = int(rng.integers(1, cutoff + 1))
        rho += w * embed_pure(random_fixed_state(n, rng), cutoff)
    return TwoModeDensityMatrix(cutoff, rho)


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
