"""Rate formulas and their identity with the quadratic objective."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfslv.core import quadratic_form
from cfslv.gram import build_gram_single
from cfslv.rate import computation_rate, rate_from_objective


def test_rate_hand_computed():
    expected = 0.5 * math.log2(5.0 / 2.0)
    assert abs(computation_rate([1.0, 1.0], 2.0, [1, 1]) - expected) <= 1e-15


def test_rate_zero_channel_clamps():
    assert computation_rate([0.0, 0.0], 1.0, [1, 0]) == 0.0


def test_rate_orthogonal_combination_clamps():
    assert computation_rate([1.0, 0.0], 3.0, [0, 1]) == 0.0


def test_rate_rejects_zero_vector():
    with pytest.raises(ValueError):
        computation_rate([1.0, 1.0], 2.0, [0, 0])


def test_rate_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        computation_rate([1.0, 1.0], 2.0, [1])


def test_rate_from_objective_hand_computed():
    expected = 0.5 * math.log2(5.0 / 2.0)
    assert abs(rate_from_objective(2.0, [1.0, 1.0], 2.0) - expected) <= 1e-15


def test_rate_from_objective_clamps_at_scale():
    h = [1.0, 2.0]
    power = 3.0
    scale = 1.0 + power * 5.0
    assert rate_from_objective(scale, h, power) == 0.0
    assert rate_from_objective(2.0 * scale, h, power) == 0.0


def test_rate_from_objective_exact_power_of_two():
    assert rate_from_objective(1.0, [1.0, 0.0, 0.0], 7.0) == 1.5


def test_rate_from_objective_rejects_nonpositive():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            rate_from_objective(bad, [1.0], 1.0)


def test_rates_reject_an_overflowing_channel():
    with pytest.raises(ValueError, match=r"^1 \+ P\|h\|\^2 overflows a float"):
        computation_rate([1e200, 1.0], 1.0, [1, 0])
    with pytest.raises(ValueError, match=r"^1 \+ P\|h\|\^2 overflows a float"):
        rate_from_objective(1.0, [1e200, 1.0], 1.0)


@settings(max_examples=200)
@given(
    st.integers(0, 2**31 - 1),
    st.lists(st.integers(-10, 10), min_size=1, max_size=6).filter(lambda v: any(v)),
)
def test_rate_identity_with_objective(seed, coeffs):
    rng = np.random.default_rng(seed)
    n = len(coeffs)
    h = rng.standard_normal(n)
    power = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
    a = np.array(coeffs)
    direct = computation_rate(h, power, a)
    via_objective = rate_from_objective(
        quadratic_form(build_gram_single(h, power), a), h, power
    )
    assert direct >= 0.0 and via_objective >= 0.0
    assert abs(direct - via_objective) <= 1e-12


def test_rate_decreases_with_objective():
    h = [0.8, -1.3, 0.4]
    power = 6.0
    values = [rate_from_objective(f, h, power) for f in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_best_objective_gives_best_rate_over_small_box():
    rng = np.random.default_rng(37)
    for _ in range(10):
        h = rng.standard_normal(2)
        power = float(rng.uniform(0.5, 8.0))
        g = build_gram_single(h, power)
        best_f = None
        best_r = None
        for a in itertools.product(range(-4, 5), repeat=2):
            if not any(a):
                continue
            f = quadratic_form(g, np.array(a))
            r = computation_rate(h, power, np.array(a))
            if best_f is None or f < best_f:
                best_f = f
            if best_r is None or r > best_r:
                best_r = r
        assert abs(rate_from_objective(best_f, h, power) - best_r) <= 1e-12
