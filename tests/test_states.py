import numpy as np
import pytest

from noon_coherence import cross_moment, schwinger_moments
from noon_coherence.coherence import spread
from noon_coherence.states import (
    StateRecipe,
    make_binomial_splitter,
    make_embedded_cat,
    make_noon,
    make_number_pair,
)

from helpers import close


def test_noon_amplitudes():
    state = make_noon(1)
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    with pytest.raises(ValueError):
        make_noon(0)


def test_noon_phase_enters_second_branch():
    state = make_noon(3, phase=np.pi / 2)
    assert close(state.amplitudes[0], 1 / np.sqrt(2))
    assert close(state.amplitudes[3], 1j / np.sqrt(2))


def test_binomial_splitter_amplitudes():
    assert np.allclose(
        make_binomial_splitter(2).amplitudes, [0.5, 1 / np.sqrt(2), 0.5]
    )
    amps3 = make_binomial_splitter(3).amplitudes
    assert np.allclose(amps3, [np.sqrt(1 / 8), np.sqrt(3 / 8), np.sqrt(3 / 8), np.sqrt(1 / 8)])


def test_binomial_splitter_normalized_large_n():
    for n in (10, 100, 500):
        probs = make_binomial_splitter(n).probabilities()
        assert close(probs.sum(), 1.0, tol=1e-12)


def test_binomial_splitter_all_orders_coherent():
    for n in range(1, 13):
        state = make_binomial_splitter(n)
        for order in range(1, n + 1):
            assert abs(cross_moment(state, order)) > 1e-12


def test_number_pair_occupations():
    # |n_L>_a |N-n_L>_b: n_L = 0 leaves every quantum in mode b.
    state = make_number_pair(0, 5)
    assert state.occupation_probability(0, 5) == pytest.approx(1.0)
    state = make_number_pair(4, 20)
    assert state.occupation_probability(4, 16) == pytest.approx(1.0)
    balanced = make_number_pair(3, 6)
    assert close(schwinger_moments(balanced).jz, 0.0)
    with pytest.raises(ValueError):
        make_number_pair(7, 6)


def test_embedded_cat_structure():
    state = make_embedded_cat(4, 20)
    assert close(abs(state.amplitudes[4]), 1 / np.sqrt(2))
    assert close(abs(state.amplitudes[16]), 1 / np.sqrt(2))
    assert spread(state) == 12
    assert spread(make_embedded_cat(2, 20)) == 16


def test_embedded_cat_reduces_to_noon():
    for phase in (0.0, 1.1):
        assert np.allclose(
            make_embedded_cat(0, 6, phase).amplitudes, make_noon(6, phase).amplitudes
        )


def test_embedded_cat_degenerate_rejected():
    with pytest.raises(ValueError):
        make_embedded_cat(3, 6)
    with pytest.raises(ValueError):
        make_embedded_cat(5, 6)  # n_L beyond the midpoint duplicates a state


def test_recipe_round_trip_and_build():
    recipes = [
        StateRecipe("noon", 5, phase=0.25),
        StateRecipe("binomial_splitter", 4),
        StateRecipe("embedded_initial", 20, left_occupation=4),
        StateRecipe("number_pair", 6, left_occupation=2),
    ]
    for recipe in recipes:
        back = StateRecipe.from_json(recipe.to_json())
        assert back == recipe
        built = back.build()
        assert built.total_number == recipe.total_number


def test_recipe_validation():
    with pytest.raises(ValueError):
        StateRecipe("bogus", 5)
    with pytest.raises(ValueError):
        StateRecipe("noon", 5, left_occupation=1)
    with pytest.raises(ValueError):
        StateRecipe("number_pair", 5)
    with pytest.raises(ValueError):
        StateRecipe("binomial_splitter", 5, phase=0.1)
    with pytest.raises(ValueError):
        StateRecipe.from_json({"kind": "noon", "n": 5, "bogus_key": 1})
    with pytest.raises(ValueError):
        StateRecipe.from_json({"n": 5})
    with pytest.raises(ValueError):
        StateRecipe.from_json([["kind", "noon"], ["n", 5]])


@pytest.mark.parametrize(
    "entry",
    [{"n": 5.7}, {"n": True}, {"n": "5"}, {"n": None}, {"phase": True}, {"phase": "0.5"},
     {"phase": None}, {"kind": "embedded_initial", "n_l": 2.9},
     {"kind": "embedded_initial", "n_l": True}, {"kind": "number_pair", "n_l": "2"}],
)
def test_recipe_json_takes_integers_and_numbers_only(entry):
    # JSON floats, bools, strings and nulls are refused, never coerced
    with pytest.raises(ValueError):
        StateRecipe.from_json({"kind": "noon", "n": 6, **entry})


def test_recipe_json_accepts_an_integer_phase():
    recipe = StateRecipe.from_json({"kind": "noon", "n": 6, "phase": 1})
    assert recipe.phase == 1.0 and isinstance(recipe.phase, float)
    assert StateRecipe.from_json(recipe.to_json()) == recipe
