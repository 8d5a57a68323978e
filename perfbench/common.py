"""Pieces shared by the workloads: ops, output checks and reference formulas.

The checks never call the library.  They use closed forms, invariants and
the checked-in CLI fixtures, so a defect in a timed code path cannot also
hide in the value it is compared against.
"""

from __future__ import annotations

import ast
import csv
import json
import math
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path.cwd()  # the benchmark is started from the root of a checkout
SRC = ROOT / "src"
PACKAGE = SRC / "noon_coherence"
FIXTURES = ROOT / "tests" / "fixtures"


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass(frozen=True)
class Op:
    """One closed-loop request: a timed call and an untimed output check.

    ``run`` receives the results of the ops already run in the same round,
    keyed by op name, so an op can consume what an earlier one produced.
    ``known_defect`` is the defect that makes this op fail at the commit
    that defined the benchmark; such a failure still counts in ``failed``.
    """

    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any], None]
    known_defect: KnownDefect | None = None


@dataclass(frozen=True)
class KnownDefect:
    """A defect of the library and the error it shows as.

    Only an error that starts with ``signature`` is excused; any other
    failure of the same op is unexpected.
    """

    text: str
    signature: str

    def explains(self, error: str) -> bool:
        return error.startswith(self.signature)


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@cache
def tolerances() -> dict[str, float]:
    """Constants of noon_coherence/tolerances.py, read without importing it."""
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            values[node.targets[0].id] = ast.literal_eval(node.value)
    return values


def close(a: float, b: float, tol: float | None = None) -> bool:
    """Absolute-or-relative closeness, the convention of the test helpers."""
    tol = tolerances()["EQ_TOL"] if tol is None else tol
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def rel_close(a: float, b: float, tol: float | None = None) -> bool:
    """Relative closeness, for values far below 1 (probabilities, eta^n)."""
    tol = tolerances()["EQ_TOL"] if tol is None else tol
    return abs(a - b) <= tol * max(abs(a), abs(b)) + 1e-300


def expect_close(name: str, got: float, want: float, relative: bool = False) -> None:
    ok = rel_close(got, want) if relative else close(got, want)
    expect(ok, f"{name} = {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------

LOG_FACT = np.array([math.lgamma(k + 1.0) for k in range(2048)])


def chain_normalization(total: int, order: int) -> float:
    """1 / cos(pi / (floor(N/n) + 2)); the chain of two nodes gives exactly 2."""
    chain = total // order
    return 2.0 if chain == 1 else 1.0 / math.cos(math.pi / (chain + 2))


def binomial_pmf(trials: int, p: float) -> np.ndarray:
    k = np.arange(trials + 1)
    log = LOG_FACT[trials] - LOG_FACT[k] - LOG_FACT[trials - k]
    return np.exp(log + k * math.log(p) + (trials - k) * math.log1p(-p))


def binomial_amplitudes(total: int) -> np.ndarray:
    """sqrt(C(N, m) / 2^N), the 50/50 splitter output."""
    return np.sqrt(binomial_pmf(total, 0.5))


def pure_orders(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """C_n, c_n, the normalization and the support excess for n = 1..N of a
    fixed-N pure state.

    C_n = norm * sum_m |d_m d_{m+n}|;  c_n = norm * |sum_m conj(d_{m+n}) d_m B_m| / S
    with log B_m = (log (m+n)!/m! + log (N-m)!/(N-m-n)!)/2 and S the largest
    B_m over pairs whose two probabilities exceed SUPPORT_EPS.  Pairs below
    that threshold still enter the moment, with weights B_m / S that may
    exceed 1.  That is how the library breaks c_n <= C_n (CN_ABOVE_BOUND):
    by at most excess_n = norm * sum over unsupported m of
    |d_m d_{m+n}| (B_m / S - 1)^+.
    """
    eps = tolerances()["SUPPORT_EPS"]
    total = len(amps) - 1
    mags = np.abs(amps)
    probs = mags**2
    with np.errstate(divide="ignore"):
        log_mags = np.log(mags)
    big_c, small_c, norms, excess = (np.zeros(total) for _ in range(4))
    for order in range(1, total + 1):
        m = np.arange(total - order + 1)
        norm = chain_normalization(total, order)
        norms[order - 1] = norm
        big_c[order - 1] = norm * np.sum(mags[m] * mags[m + order])
        supported = (probs[m] > eps) & (probs[m + order] > eps)
        if not supported.any():
            continue
        log_b = 0.5 * (
            LOG_FACT[m + order] - LOG_FACT[m] + LOG_FACT[total - m] - LOG_FACT[total - m - order]
        )
        log_s = log_b[supported].max()
        terms = np.conj(amps[m + order]) * amps[m]
        nz = terms != 0
        log_pair = log_mags[m][nz] + log_mags[m + order][nz]
        scaled = np.exp(log_pair + log_b[nz] - log_s)
        small_c[order - 1] = norm * abs(np.sum(scaled * terms[nz] / np.abs(terms[nz])))
        unsupported = ~supported[nz]
        excess[order - 1] = norm * np.sum(np.maximum(scaled - np.exp(log_pair), 0.0)[unsupported])
    return big_c, small_c, norms, excess


CN_ABOVE_BOUND = "c_n exceeds C_n + EQ_TOL: pairs below SUPPORT_EPS enter c_n with weights above 1"


@dataclass
class BoundBreaches:
    """States on which c_n > C_n + EQ_TOL by no more than the support excess
    (CN_ABOVE_BOUND).  They are counted here, apart from ``failed``: the op
    passed every other check, so its latency still counts."""

    checked: int = 0
    breached: int = 0
    largest: float = 0.0

    def report(self) -> str:
        return (f"known defect ({CN_ABOVE_BOUND}): c_n > C_n + EQ_TOL on {self.breached} "
                f"of {self.checked} checked states, by at most {self.largest:.3g}")


CN_BREACHES = BoundBreaches()


def check_cn_bound(small_c: np.ndarray, big_c: np.ndarray, excess: np.ndarray, where: str) -> None:
    """c_n <= C_n + EQ_TOL for every order of one state.

    A breach no larger than the support excess is the known defect and is
    counted in CN_BREACHES; a larger one fails the check.
    """
    eq = tolerances()["EQ_TOL"]
    over = np.asarray(small_c) - np.asarray(big_c)
    CN_BREACHES.checked += 1
    if np.all(over <= eq):
        return
    worst = int(np.argmax(over - excess))
    expect(over[worst] <= excess[worst] + eq,
           f"{where}: c_n - C_n = {over[worst]:.3g}, beyond the support excess {excess[worst]:.3g}")
    CN_BREACHES.breached += 1
    CN_BREACHES.largest = max(CN_BREACHES.largest, float(over.max()))


def spread_of(amps: np.ndarray) -> int:
    """Largest separation j - i of two amplitudes with 2 |d_i d_j| > ELEMENT_TOL."""
    mags = np.abs(amps)
    i, j = np.nonzero(2.0 * np.outer(mags, mags) > tolerances()["ELEMENT_TOL"])
    return int(np.max(j - i)) if i.size else 0


def noon_loss_distribution(total: int, eta_a: float, eta_b: float) -> dict[int, float]:
    """P(n_a - n_b) of a NOON state after loss: each branch decays binomially."""
    pa, pb = binomial_pmf(total, eta_a), binomial_pmf(total, eta_b)
    dist = {0: 0.5 * (pa[0] + pb[0])}
    for k in range(1, total + 1):
        dist[k] = 0.5 * pa[k]
        dist[-k] = 0.5 * pb[k]
    return dist


def binomial_loss_distribution(total: int, eta_a: float, eta_b: float) -> dict[int, float]:
    """P(n_a - n_b) of the 50/50 splitter output after loss.

    Each quantum independently ends in mode a and survives (eta_a / 2), ends
    in mode b and survives (eta_b / 2), or is lost, so n_a - n_b is a sum of
    N independent steps +1, -1, 0: the N-th power of a three-term polynomial.
    """
    step = np.array([eta_b / 2, 1.0 - (eta_a + eta_b) / 2, eta_a / 2])  # coefficients of x^-1, x^0, x^1
    power, result, n = step, np.array([1.0]), total
    while n:
        if n & 1:
            result = np.convolve(result, power)
        power = np.convolve(power, power)
        n >>= 1
    return {k - total: float(p) for k, p in enumerate(result)}


def check_distribution(dist: dict[int, float], want: dict[int, float], floor: float = 1e-15) -> None:
    """Every printed probability matches; every omitted one is below the floor."""
    for key, value in want.items():
        if key in dist:
            expect_close(f"P({key})", dist[key], value, relative=True)
        else:
            expect(value <= 10 * floor, f"P({key}) = {value!r} is missing from the output")
    expect(set(dist) <= set(want), "output has outcomes the state cannot produce")


def folded_frequency(omega: int, grid: int) -> int:
    """Where a real signal at angular frequency omega lands on a K-point grid."""
    alias = omega % grid
    return min(alias, grid - alias)


def check_scan(probs, spectrum, dominant: int, band: int, grid: int, separation: int | None) -> None:
    """Fringe invariants: P in [0, 1], spectrum[0] = mean, no content above the
    state's largest coherence order ``band``, and the dominant frequency at the
    branch separation (aliased when it exceeds K/2)."""
    probs = np.asarray(probs, dtype=float)
    spectrum = np.asarray(spectrum, dtype=float)
    expect(np.all(np.isfinite(probs)), "scan has non-finite probabilities")
    expect(np.all((probs >= -1e-12) & (probs <= 1 + 1e-12)), "scan probability outside [0, 1]")
    expect_close("spectrum[0]", spectrum[0], float(probs.mean()))
    if band < grid // 2:
        expect(spectrum[band + 1 :].max() <= 1e-9, f"fringe content above order {band}")
    if separation is not None:
        want = folded_frequency(separation, grid)
        expect(dominant == want, f"dominant frequency {dominant}, expected {want}")


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    """Comment lines and rows of a CLI CSV file."""
    with open(path, newline="") as handle:
        lines = handle.read().splitlines()
    comments = [line[2:] for line in lines if line.startswith("# ")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return comments, rows


def compare_to_fixture(produced: Path, fixture: str) -> None:
    """Numeric comparison cell by cell within EQ_TOL, never byte for byte."""
    golden = FIXTURES / fixture
    if golden.suffix == ".json":
        _compare_json(json.loads(produced.read_text()), json.loads(golden.read_text()), fixture)
        return
    got_comments, got = read_csv(produced)
    want_comments, want = read_csv(golden)
    expect(len(got) == len(want), f"{fixture}: {len(got)} rows, fixture has {len(want)}")
    expect(len(got_comments) == len(want_comments), f"{fixture}: comment lines differ")
    for row_got, row_want in zip(got, want):
        expect(row_got.keys() == row_want.keys(), f"{fixture}: columns differ")
        for key in row_want:
            expect_close(f"{fixture}[{key}]", float(row_got[key]), float(row_want[key]))


def _compare_json(got, want, where: str) -> None:
    if isinstance(want, dict):
        expect(isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys differ")
        for key in want:
            _compare_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        expect(isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ")
        for i, (a, b) in enumerate(zip(got, want)):
            _compare_json(a, b, f"{where}[{i}]")
    elif isinstance(want, bool) or isinstance(want, str) or want is None:
        expect(got == want, f"{where}: {got!r} != {want!r}")
    else:
        expect_close(where, float(got), float(want))
