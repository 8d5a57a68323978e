"""Factories for the fixed-N state families under study.

All factories return states in the |N-m>_a |m>_b amplitude convention of
:mod:`noon_coherence.fock`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .fock import FixedNState, log_factorial

NOON = "noon"
BINOMIAL_SPLITTER = "binomial_splitter"
EMBEDDED_INITIAL = "embedded_initial"
NUMBER_PAIR = "number_pair"

RECIPE_KINDS = (NOON, BINOMIAL_SPLITTER, EMBEDDED_INITIAL, NUMBER_PAIR)


def make_noon(total_number: int, phase: float = 0.0) -> FixedNState:
    """(|N,0> + e^{i phase} |0,N>) / sqrt(2)."""
    if total_number < 1:
        raise ValueError("a NOON state needs total_number >= 1")
    amps = np.zeros(total_number + 1, dtype=complex)
    amps[0] = 1.0 / np.sqrt(2.0)
    amps[total_number] = np.exp(1j * phase) / np.sqrt(2.0)
    return FixedNState(total_number, amps)


def make_binomial_splitter(total_number: int) -> FixedNState:
    """Output of a 50/50 beam splitter fed with N quanta in a single arm.

    Amplitudes are sqrt(N! / (2^N m! (N-m)!)); the binomial profile is
    symmetric under m <-> N-m, so both mode-ordering conventions coincide.
    """
    if total_number < 1:
        raise ValueError("total_number must be >= 1")
    m = np.arange(total_number + 1)
    log_amp = 0.5 * (
        log_factorial(total_number)
        - total_number * np.log(2.0)
        - log_factorial(m)
        - log_factorial(total_number - m)
    )
    amps = np.exp(log_amp).astype(complex)
    return FixedNState.from_amplitudes(amps)


def make_number_pair(left_occupation: int, total_number: int) -> FixedNState:
    """The product number state |n_L>_a |N - n_L>_b."""
    if not 0 <= left_occupation <= total_number:
        raise ValueError("left_occupation must lie in [0, total_number]")
    amps = np.zeros(total_number + 1, dtype=complex)
    amps[total_number - left_occupation] = 1.0
    return FixedNState(total_number, amps)


def make_embedded_cat(
    left_occupation: int, total_number: int, phase: float = 0.0
) -> FixedNState:
    """Equal superposition of |n_L>|N-n_L> and |N-n_L>|n_L>.

    The separation between the two branches is N - 2*n_L quanta; n_L = 0
    reduces to the NOON state.
    """
    if not 0 <= left_occupation <= total_number:
        raise ValueError("left_occupation must lie in [0, total_number]")
    if left_occupation >= total_number - left_occupation:
        raise ValueError("degenerate superposition: need n_L < N - n_L")
    amps = np.zeros(total_number + 1, dtype=complex)
    amps[left_occupation] = 1.0 / np.sqrt(2.0)  # |N-n_L>_a |n_L>_b
    amps[total_number - left_occupation] = np.exp(1j * phase) / np.sqrt(2.0)
    return FixedNState(total_number, amps)


def _json_value(data: Mapping, key: str, types, default=None):
    """``data[key]`` (or ``default``) if it is one of ``types``; JSON true
    and false arrive as bool, a subclass of int, and are refused too."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"recipe value {key!r} has the wrong type: {value!r}")
    return value


@dataclass(frozen=True)
class StateRecipe:
    """Declarative description of a factory state, JSON round-trippable."""

    kind: str
    total_number: int
    phase: float = 0.0
    left_occupation: int | None = None

    def __post_init__(self):
        if self.kind not in RECIPE_KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}")
        if self.total_number < 1:
            raise ValueError("total_number must be >= 1")
        needs_left = self.kind in (EMBEDDED_INITIAL, NUMBER_PAIR)
        if needs_left and self.left_occupation is None:
            raise ValueError(f"kind {self.kind!r} requires left_occupation")
        if not needs_left and self.left_occupation is not None:
            raise ValueError(f"kind {self.kind!r} does not take left_occupation")
        if self.left_occupation is not None and not (
            0 <= self.left_occupation <= self.total_number
        ):
            raise ValueError("left_occupation must lie in [0, total_number]")
        if self.phase != 0.0 and self.kind in (BINOMIAL_SPLITTER, NUMBER_PAIR):
            raise ValueError(f"kind {self.kind!r} does not take a phase")

    def build(self) -> FixedNState:
        if self.kind == NOON:
            return make_noon(self.total_number, self.phase)
        if self.kind == BINOMIAL_SPLITTER:
            return make_binomial_splitter(self.total_number)
        if self.kind == EMBEDDED_INITIAL:
            return make_embedded_cat(self.left_occupation, self.total_number, self.phase)
        return make_number_pair(self.left_occupation, self.total_number)

    def to_json(self) -> dict:
        data: dict = {"kind": self.kind, "n": self.total_number}
        if self.kind in (NOON, EMBEDDED_INITIAL):
            data["phase"] = self.phase
        if self.left_occupation is not None:
            data["n_l"] = self.left_occupation
        return data

    @classmethod
    def from_json(cls, data: Mapping) -> "StateRecipe":
        """The recipe of a JSON object: ``n`` and ``n_l`` must be integers
        and ``phase`` a number, never a bool or a string; anything else
        raises ValueError."""
        if not isinstance(data, Mapping):
            raise ValueError(f"a state recipe is a JSON object, got {data!r}")
        allowed = {"kind", "n", "phase", "n_l"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown recipe keys: {sorted(unknown)}")
        if "kind" not in data or "n" not in data:
            raise ValueError("recipe needs at least 'kind' and 'n'")
        return cls(
            kind=data["kind"],
            total_number=_json_value(data, "n", int),
            phase=float(_json_value(data, "phase", (int, float), 0.0)),
            left_occupation=_json_value(data, "n_l", (int, type(None))),
        )
