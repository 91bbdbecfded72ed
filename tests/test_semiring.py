import math

from hypothesis import given, strategies as st

from lazyfst.semiring import ZERO, is_member

# The semiring's one and its two operations.  The package writes them
# inline (0.0, min, +); these are the laws those inline forms rely on.
ONE = 0.0


def plus(a: float, b: float) -> float:
    """Semiring collection: keep the better (smaller) cost."""
    return a if a <= b else b


def times(a: float, b: float) -> float:
    """Semiring extension: accumulate costs along a path."""
    return a + b


weights = st.one_of(
    st.just(math.inf),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False))

dyadic = st.integers(min_value=0, max_value=4096).map(lambda k: k * 0.125)


def test_constants():
    assert ZERO == math.inf
    assert ONE == 0.0
    assert is_member(ZERO) and is_member(ONE)
    assert not is_member(-1.0)
    assert not is_member(float("nan"))


@given(weights, weights)
def test_plus_is_min(a, b):
    assert plus(a, b) == min(a, b)
    assert plus(a, b) == plus(b, a)


@given(weights, weights, weights)
def test_plus_associative_exact(a, b, c):
    assert plus(plus(a, b), c) == plus(a, plus(b, c))


@given(weights)
def test_identities(a):
    assert plus(a, ZERO) == a
    assert times(a, ONE) == a
    assert times(a, ZERO) == ZERO
    assert plus(a, a) == a


@given(dyadic, dyadic, dyadic)
def test_times_associative_on_dyadics(a, b, c):
    assert times(times(a, b), c) == times(a, times(b, c))


@given(weights, weights, weights)
def test_times_distributes_over_plus(a, b, c):
    # min-then-add equals add-then-min exactly: float addition is
    # monotone, so the same operand wins on both sides.
    assert times(a, plus(b, c)) == plus(times(a, b), times(a, c))

