"""Spin squeezing as a witness of mesoscopic coherence.

Three layers: the squeezing parameter xi_N built from transverse spin
variances; the bound n > sqrt(N) / xi_N on the order of coherence any
squeezed state must carry; and the inference chain that turns reported
second moments (squeezing in J_Z, anti-squeezing in J_Y with vanishing first
moments) into a certified two-particle coherence in the rotated mode pair
c = (a + b)/sqrt(2), d = e^{-i pi/4} (a - b)/sqrt(2).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fock import State, schwinger_moments
from .tolerances import EQ_TOL

# Mode map (c, d) = U (a, b) used by the two-atom inference.
ROTATED_MODE_MATRIX = np.array(
    [[1.0, 1.0], [np.exp(-1j * np.pi / 4), -np.exp(-1j * np.pi / 4)]], dtype=complex
) / np.sqrt(2.0)

JX_NORMALIZED = "jx_normalized"
N_NORMALIZED = "n_normalized"

# Slack of the mixed-state bound check, and the largest |<J_X>| a spread-0
# state may show before it is flagged as a contradiction.
BOUND_CHECK_TOL = 1e-9
# The two-atom inference needs |<J_Y>|, |<J_Z>| <= MEAN_TOL_FACTOR sqrt(<N>).
MEAN_TOL_FACTOR = 0.05


@dataclass(frozen=True)
class SqueezeData:
    """First and second spin moments entering the squeezing analysis."""

    mean_n: float
    jx_mean: float
    jy_mean: float
    jz_mean: float
    jy_var: float
    jz_var: float

    def __post_init__(self):
        if self.mean_n < 0:
            raise ValueError("mean_n must be >= 0")
        if self.jy_var < -1e-9 or self.jz_var < -1e-9:
            raise ValueError("variances must be nonnegative")

    @classmethod
    def from_state(cls, state: State) -> "SqueezeData":
        m = schwinger_moments(state)
        data = cls(
            mean_n=m.ntot,
            jx_mean=m.jx,
            jy_mean=m.jy,
            jz_mean=m.jz,
            jy_var=m.jy_var,
            jz_var=m.jz_var,
        )
        # Heisenberg consistency for data coming from an actual state.
        product = np.sqrt(max(data.jy_var, 0.0) * max(data.jz_var, 0.0))
        if product < abs(data.jx_mean) / 2.0 - 1e-9:
            raise ValueError("spin moments violate the uncertainty relation")
        return data

    @property
    def jy2(self) -> float:
        return self.jy_var + self.jy_mean**2

    @property
    def jz2(self) -> float:
        return self.jz_var + self.jz_mean**2


@dataclass(frozen=True)
class SqueezeEstimate:
    value: float
    mode: str


def squeeze_parameter(data: SqueezeData, mode: str = N_NORMALIZED) -> SqueezeEstimate:
    """xi_N = Delta J_Y / sqrt(|<J_X>| / 2), or with <N>/4 as the reference.

    The mean-spin normalization requires <J_X> != 0; ideal NOON states have
    <J_X> = 0 and are rejected as inapplicable.
    """
    dy = np.sqrt(max(data.jy_var, 0.0))
    if mode == JX_NORMALIZED:
        denom = abs(data.jx_mean) / 2.0
        if denom < 1e-12:
            raise ValueError("squeezing test inapplicable: <J_X> is zero")
    elif mode == N_NORMALIZED:
        denom = data.mean_n / 4.0
        if denom <= 0.0:
            raise ValueError("squeezing test inapplicable: <N> is zero")
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    return SqueezeEstimate(float(dy / np.sqrt(denom)), mode)


def transverse_squeeze_parameter(data: SqueezeData) -> tuple[float, str]:
    """<N>-normalized squeezing of the more-squeezed transverse component.

    Returns (xi, axis).  Experiments squeeze either J_Y or J_Z depending on
    their axis conventions; the coherence bound applies to whichever
    transverse variance is reduced.
    """
    if data.mean_n <= 0:
        raise ValueError("squeezing test inapplicable: <N> is zero")
    variances = {"jy": data.jy_var, "jz": data.jz_var}
    axis = min(variances, key=variances.get)
    xi = float(np.sqrt(max(variances[axis], 0.0)) / (np.sqrt(data.mean_n) / 2.0))
    return xi, axis


@dataclass(frozen=True)
class CoherenceBound:
    """Minimum coherence order implied by a measured squeezing parameter."""

    xi: float
    min_order: float
    certified: bool


def coherence_bound(xi: float, total_number: float) -> CoherenceBound:
    """Squeezing xi_N < 1 certifies coherence of order above sqrt(N)/xi_N."""
    if xi <= 0:
        raise ValueError("xi must be positive")
    return CoherenceBound(
        xi=float(xi),
        min_order=float(np.sqrt(total_number) / xi),
        certified=bool(xi < 1.0),
    )


@dataclass(frozen=True)
class BoundCheckResult:
    passed: bool
    lhs: float  # (Delta J_Y)^2
    rhs: float  # |<J_X>|^2 / delta0^2
    margin: float
    contradiction: bool


def mixed_state_bound_check(state: State, delta0: float) -> BoundCheckResult:
    """Check (Delta J_Y)^2 >= |<J_X>|^2 / delta0^2 on a state, within 1e-9
    (``BOUND_CHECK_TOL``).

    delta0 is the coherence spread; a zero spread together with a <J_X>
    above 1e-9 is flagged as a contradiction (a spread-0 state cannot carry
    any transverse mean spin).
    """
    m = schwinger_moments(state)
    lhs = m.jy_var
    if delta0 == 0:
        contradiction = abs(m.jx) > BOUND_CHECK_TOL
        return BoundCheckResult(
            passed=not contradiction,
            lhs=float(lhs),
            rhs=float("inf") if contradiction else 0.0,
            margin=float("-inf") if contradiction else float(lhs),
            contradiction=contradiction,
        )
    rhs = m.jx**2 / delta0**2
    margin = lhs - rhs
    return BoundCheckResult(
        passed=bool(margin >= -BOUND_CHECK_TOL),
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        contradiction=False,
    )


# ---------------------------------------------------------------------------
# two-atom inference chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    description: str
    satisfied: bool
    margin: float


@dataclass(frozen=True)
class TwoAtomInference:
    """Outcome of the squeezing-to-coherence inference on one data record."""

    certified: bool
    margin: float  # <J_Y^2> - <J_Z^2>, the anticommutator of the rotated spins
    chain: tuple[ChainStep, ...]

    def to_json(self) -> dict:
        return {
            "certified": self.certified,
            "margin": self.margin,
            "chain": [
                {"step": s.description, "satisfied": s.satisfied, "margin": s.margin}
                for s in self.chain
            ],
        }


def infer_two_atom_coherence(data: SqueezeData) -> TwoAtomInference:
    """Certify a two-particle coherence in the rotated modes from spin data.

    Requires near-zero first moments (|<J>| <= 0.05 sqrt(<N>), the factor
    being ``MEAN_TOL_FACTOR``).
    When <J_Z^2> < <N>/4 < <J_Y^2>, the anticommutator of the rotated-mode
    spin components equals <J_Y^2> - <J_Z^2> != 0, which forces
    |<c^dag^2 d^2>| > 0: a coherence between rotated-mode number states two
    quanta apart.  Each of the three strict comparisons (<J_Z^2> < <N>/4,
    <N>/4 < <J_Y^2>, <J_Y^2> - <J_Z^2> > 0) must clear a slack of
    EQ_TOL * max(1, <N>/4), so that rounding alone cannot certify a state on
    the boundary, such as a coherent spin state.  An ordering failure yields
    an inconclusive (uncertified) result rather than an error.
    """
    mean_tol = MEAN_TOL_FACTOR * np.sqrt(max(data.mean_n, 0.0))
    for label, value in (("<J_Y>", data.jy_mean), ("<J_Z>", data.jz_mean)):
        if abs(value) > mean_tol:
            raise ValueError(
                f"{label} = {value:g} is not negligible against {mean_tol:g}; "
                "the inference assumes vanishing first moments"
            )
    quarter_n = data.mean_n / 4.0
    slack = EQ_TOL * max(1.0, quarter_n)
    anticomm = data.jy2 - data.jz2
    steps = [
        ChainStep("<J_Y> ~ 0", True, mean_tol - abs(data.jy_mean)),
        ChainStep("<J_Z> ~ 0", True, mean_tol - abs(data.jz_mean)),
        ChainStep("<J_Z^2> < <N>/4", quarter_n - data.jz2 > slack, quarter_n - data.jz2),
        ChainStep("<N>/4 < <J_Y^2>", data.jy2 - quarter_n > slack, data.jy2 - quarter_n),
        ChainStep(
            "<J_Y^2> - <J_Z^2> != 0 => <{J_cx, J_cy}> != 0", abs(anticomm) > slack, anticomm
        ),
    ]
    certified = bool(steps[2].satisfied and steps[3].satisfied and anticomm > slack)
    steps.append(
        ChainStep("|<c^dag^2 d^2>| >= |<J_Y^2> - <J_Z^2>| > 0", certified, anticomm)
    )
    return TwoAtomInference(
        certified=certified,
        margin=float(anticomm),
        chain=tuple(steps),
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("n", "jx", "jy", "jz", "jy2", "jz2")


def read_squeeze_rows(path: str | Path) -> list[SqueezeData]:
    """Read (N, jx, jy, jz, jy2, jz2) rows; second moments become variances."""
    rows: list[SqueezeData] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError("squeezing CSV is empty")
        fields = tuple(name.strip().lower() for name in reader.fieldnames)
        if fields != _CSV_COLUMNS:
            raise ValueError(
                f"squeezing CSV must have columns {','.join(_CSV_COLUMNS)}, "
                f"got {','.join(fields)}"
            )
        for line_no, raw in enumerate(reader, start=2):
            # a short row gives None values, a long one a None key
            try:
                values = {key.strip().lower(): float(val) for key, val in raw.items()}
                if not all(map(math.isfinite, values.values())):
                    raise ValueError("nan or inf")
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed squeezing CSV at line {line_no}") from exc
            rows.append(
                SqueezeData(
                    mean_n=values["n"],
                    jx_mean=values["jx"],
                    jy_mean=values["jy"],
                    jz_mean=values["jz"],
                    jy_var=values["jy2"] - values["jy"] ** 2,
                    jz_var=values["jz2"] - values["jz"] ** 2,
                )
            )
    if not rows:
        raise ValueError("squeezing CSV contains no data rows")
    return rows
