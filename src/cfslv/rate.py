"""Achievable computation rate of a decoded integer combination.

A relay hearing y = sum_j h_j x_j + z and decoding the combination
sum_j a_j x_j achieves

    R(h, a) = 1/2 log2+ ( ( |a|^2 - P (h.a)^2 / (1 + P |h|^2) )^-1 )

bits per channel use, where log2+ clips at zero.  The bracketed
denominator equals f(a) / (1 + P |h|^2) for the single-antenna Gram
matrix, so the rate is also a function of the objective value alone.
"""

from __future__ import annotations

import math

from .core import as_channel_vector, as_coefficient_vector
from .gram import _check_power, _single_scale


def computation_rate(h, power: float, a) -> float:
    """Rate in bits per channel use for combination a on channel h."""
    h = as_channel_vector(h)
    a = as_coefficient_vector(a)
    power = _check_power(power)
    if a.n != h.n:
        raise ValueError(f"dimension mismatch: channel is {h.n}, coefficients are {a.n}")
    av = a.entries.astype(float)
    hv = h.entries
    scale = _single_scale(hv, power)
    inner = float(hv @ av)
    denom = float(av @ av) - power * inner * inner / scale
    if denom <= 0.0:
        raise ValueError("rate denominator underflowed; instance is numerically degenerate")
    return max(0.0, 0.5 * math.log2(1.0 / denom))


def rate_from_objective(f_value: float, h, power: float) -> float:
    """Rate implied by an objective value f = a^T G a on channel h.

    Equals computation_rate for the a that produced f_value:
    R = 1/2 log2+ ((1 + P |h|^2) / f).  Both raise ValueError if
    1 + P |h|^2 overflows a float.
    """
    h = as_channel_vector(h)
    power = _check_power(power)
    f_value = float(f_value)
    if not (math.isfinite(f_value) and f_value > 0.0):
        raise ValueError("objective value must be finite and positive")
    return _rate_bits(_single_scale(h.entries, power), f_value)


def _rate_bits(scale: float, f_value: float) -> float:
    """1/2 log2+ (scale / f) for scale = 1 + P|h|^2 from _single_scale
    and a finite positive f: rate_from_objective's value, for a caller
    that holds both already (a solve_single result carries a valid
    f_star)."""
    return max(0.0, 0.5 * math.log2(scale / f_value))


def _mimo_rate_bits(f_value: float) -> float:
    """1/2 log2+ (1 / f) for f = a^T G a of build_gram_mimo's G, whose
    scale is 1, as -1/2 log2 f: _rate_bits(1.0, f) would round 1 / f."""
    return max(0.0, -0.5 * math.log2(f_value))
