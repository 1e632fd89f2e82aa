import random

import pytest
from hypothesis import strategies as st

from symcret import Controller, FiniteTransitionSystem, Relation, fig5, verify_fig5_consistency


@pytest.fixture(scope="session", autouse=True)
def fixture_consistency_gate():
    # Nothing else may trust the bundled scenario before this passes.
    verify_fig5_consistency()


@pytest.fixture(scope="session")
def fx():
    return fig5()


@st.composite
def small_systems(draw, max_states=4, max_inputs=2, fully_available=False):
    n = draw(st.integers(2, max_states))
    m = draw(st.integers(1, max_inputs))
    states = [f"x{i}" for i in range(n)]
    inputs = [f"u{j}" for j in range(m)]
    trans = {}
    for x in states:
        if fully_available:
            live = list(inputs)
        else:
            live = [u for u in inputs if draw(st.booleans())]
            if not live:
                live = [draw(st.sampled_from(inputs))]
        for u in live:
            succ = draw(
                st.frozensets(st.sampled_from(states), min_size=1, max_size=min(3, n))
            )
            trans[(x, u)] = succ
    return FiniteTransitionSystem(tuple(states), tuple(inputs), trans)


@st.composite
def strict_relations(draw, concrete_states, max_cells=3, allow_overlap=True):
    cells = [f"q{i}" for i in range(draw(st.integers(1, max_cells)))]
    pairs = set()
    for x in concrete_states:
        pairs.add((x, draw(st.sampled_from(cells))))
        if allow_overlap and draw(st.integers(0, 3)) == 0:
            pairs.add((x, draw(st.sampled_from(cells))))
    return Relation(tuple(concrete_states), tuple(cells), frozenset(pairs))


def chain(n, loop_last=True):
    states = [f"s{i}" for i in range(n)]
    trans = {(states[i], "go"): {states[i + 1]} for i in range(n - 1)}
    if loop_last:
        trans[(states[-1], "go")] = {states[-1]}
    return FiniteTransitionSystem(tuple(states), ("go",), trans)


def seeded_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_partial_controller(rng: random.Random, sys: FiniteTransitionSystem) -> Controller:
    """A random non-empty subset of the available inputs at about 85 % of
    the states, none at the rest."""
    choices = {}
    for x in sys.states:
        if rng.random() < 0.85:
            available = sys.available_inputs(x)
            choices[x] = frozenset(rng.sample(available, rng.randint(1, len(available))))
    return Controller(choices)
