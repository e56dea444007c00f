"""Shared helpers: tiny independent enumerators used to check the oracle."""

import itertools

import numpy as np
import pytest


def box_minimum_pure(g_entries, bound, radius=None):
    """Pure-python exhaustive minimum of a^T G a over small integer sets.

    Scans every nonzero a with |a_i| <= bound entrywise; when radius is
    given, points with |a| > radius are skipped, making the search
    region exactly the lattice ball.  Returns (f, a) for the canonical-
    sign a (first nonzero entry positive; f(-a) = f(a) bit for bit) that
    is lowest by f, then by |a|^2, and then lexicographically largest:
    cfslv's tie rule, written out here so the reference stays
    independent of the package.  Deliberately naive; only usable for
    tiny n and bound.
    """
    g = [[float(x) for x in row] for row in np.asarray(g_entries)]
    n = len(g)
    best_key = None
    best_a = None
    for a in itertools.product(range(-bound, bound + 1), repeat=n):
        if not any(a) or next(x for x in a if x) < 0:
            continue
        norm2 = sum(x * x for x in a)
        if radius is not None and norm2 > radius * radius:
            continue
        f = sum(a[i] * g[i][j] * a[j] for i in range(n) for j in range(n))
        # the largest a is the smallest -a
        key = (f, norm2, [-x for x in a])
        if best_key is None or key < best_key:
            best_key = key
            best_a = a
    return best_key[0], best_a


@pytest.fixture(scope="session")
def box_minimum():
    return box_minimum_pure


def random_gram(rng, n):
    """Random well-conditioned positive definite matrix."""
    m = rng.standard_normal((n, n))
    g = m @ m.T + (0.1 + rng.uniform(0.0, 1.0)) * np.eye(n)
    return 0.5 * (g + g.T)


@pytest.fixture(scope="session")
def gram_factory():
    return random_gram
