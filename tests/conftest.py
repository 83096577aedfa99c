import random

import pytest


@pytest.fixture
def rng() -> random.Random:
    """Fresh deterministic generator per test; reseed locally for sub-streams."""
    return random.Random(0x5E1DE1)


def _cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, entry in enumerate(rows[0]):
        if entry == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (1 if j % 2 == 0 else -1) * entry * _cofactor_det(minor)
    return total


@pytest.fixture(scope="session")
def cofactor_det():
    """Reference determinant by first-row cofactor expansion: slow, obviously right.

    It shares no code with the package's elimination, and works over ints,
    Fractions and polynomials alike.
    """
    return _cofactor_det
