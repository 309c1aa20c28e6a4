import random
from fractions import Fraction

import pytest

from fractalseq import Surd
from fractalseq.signature import theta_sign


def make_theta_sample(n_rational=25, n_surd=25, seed=20250808):
    """Deterministic mixed sample of exact positive parameters."""
    rng = random.Random(seed)
    thetas = []
    seen = set()
    while sum(isinstance(t, Fraction) for t in thetas) < n_rational:
        t = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        if t not in seen:
            seen.add(t)
            thetas.append(t)
    surds = 0
    while surds < n_surd:
        t = Surd.make(rng.randint(-5, 9), rng.randint(1, 6),
                      rng.choice([2, 3, 5, 7, 13]), rng.randint(1, 8))
        if isinstance(t, Surd) and theta_sign(t) > 0 and t not in seen:
            seen.add(t)
            thetas.append(t)
            surds += 1
    return thetas


@pytest.fixture(scope="session")
def theta_sample():
    return make_theta_sample()
