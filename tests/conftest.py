import pathlib

import pytest

from twistlab import fixtures
from twistlab.cocycles import Cocycle
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


class _PairByPair(Cocycle):
    def __init__(self, base):
        super().__init__(base.group)
        self.base = base

    def evaluate(self, x, y):
        return self.base.evaluate(x, y)


@pytest.fixture
def pair_by_pair():
    """pair_by_pair(sigma): sigma's values through evaluate alone, so that
    they are read by the per-pair default of Cocycle.pair_values."""
    return _PairByPair
