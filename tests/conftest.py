import cmath
import pathlib

import numpy as np
import pytest

from twistlab import fixtures
from twistlab.cocycles import (BicharacterCocycle, CoboundaryCocycle, Cocycle, ConjugateCocycle,
                               ProductCocycle, PullbackCocycle, TableCocycle, TrivialCocycle)
from twistlab.groups import FreeGroup

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def s3():
    return fixtures.symmetric(3)


@pytest.fixture(scope="session")
def q8():
    return fixtures.quaternion()


@pytest.fixture(scope="session")
def d4():
    return fixtures.dihedral(4)


@pytest.fixture(scope="session")
def f2():
    return FreeGroup(2)


@pytest.fixture
def record_calls():
    """record_calls(obj, name) wraps the method obj.name so that every call
    appends its argument tuple to the list it returns."""
    def wrap(obj, name):
        calls, method = [], getattr(obj, name)
        setattr(obj, name, lambda *args: calls.append(args) or method(*args))
        return calls
    return wrap


class LengthPhase(Cocycle):
    """exp(i |x| |y|^2) on a free group: normalised and unit-modulus, but the
    identity fails by a phase 2 |x| |y| |z| on reduced products."""

    def pair_values(self, xs, ys, xys):
        words = self.group.words
        return np.array([cmath.exp(1j * len(x) * len(y) ** 2)
                         for x, y in zip(words(xs), words(ys))], dtype=complex)


def evaluate(sigma, x, y) -> complex:
    """sigma(x, y) on the elements x and y, from the definition of sigma's
    class in Python arithmetic: the reference Cocycle.pair_values is held
    to, bit for bit."""
    G = sigma.group
    if isinstance(sigma, LengthPhase):
        return cmath.exp(1j * len(x) * len(y) ** 2)
    if isinstance(sigma, TrivialCocycle):
        return 1.0 + 0.0j
    if isinstance(sigma, TableCocycle):
        return complex(sigma.values[x, y])
    if isinstance(sigma, BicharacterCocycle):
        # <x, Theta y>: each entry of x Theta summed over i from left to
        # right, then the dot with y summed over j from left to right
        th, d = sigma.theta.tolist(), G.dim
        xt = [x[0] * th[0][j] for j in range(d)]
        for i in range(1, d):
            xt = [xt[j] + x[i] * th[i][j] for j in range(d)]
        e = xt[0] * y[0]
        for j in range(1, d):
            e = e + xt[j] * y[j]
        return complex(np.exp(2j * np.pi * e))
    if isinstance(sigma, CoboundaryCocycle):
        return sigma.beta(x).conjugate() * sigma.beta(y).conjugate() * sigma.beta(G.compose(x, y))
    if isinstance(sigma, ProductCocycle):
        z = 1.0 + 0.0j
        for f in sigma.factors:
            z *= evaluate(f, x, y)
        return z
    if isinstance(sigma, ConjugateCocycle):
        return evaluate(sigma.base, x, y).conjugate()
    if isinstance(sigma, PullbackCocycle):
        return evaluate(sigma.quotient_cocycle, x[1], y[1])
    raise TypeError(f"no reference for {type(sigma).__name__}")
