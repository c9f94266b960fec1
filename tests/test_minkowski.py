import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from kgbohm import (
    CausalClass,
    Tolerances,
    FourVector,
    PlaneClass,
    euclidean_sq,
    inner,
    plane_class,
)
from kgbohm.minkowski import _rescaled
from support import candidate_class, raise_index, scaled

finite_components = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
vectors = st.builds(FourVector, *([finite_components] * 4))


def test_inner_signature():
    e0 = FourVector(1.0, 0.0, 0.0, 0.0)
    e1 = FourVector(0.0, 1.0, 0.0, 0.0)
    assert inner(e0, e0) == 1.0
    assert inner(e1, e1) == -1.0
    assert inner(e0, e1) == 0.0
    assert inner(FourVector(2.0, 3.0, 4.0, 5.0), FourVector(2.0, 3.0, 4.0, 5.0)) == (
        4.0 - 9.0 - 16.0 - 25.0
    )


def test_vector_has_no_arithmetic():
    a = FourVector(1.0, 2.0, 3.0, 4.0)
    b = FourVector(10.0, 20.0, 30.0, 40.0)
    ops = {
        "a + b": lambda: a + b,
        "tuple + a": lambda: (1.0,) + a,  # no concatenation from either side
        "a * 2.0": lambda: a * 2.0,
        "a * 2": lambda: a * 2,  # no repetition
        "2 * a": lambda: 2 * a,
        "2.0 * a": lambda: 2.0 * a,
        "-a": lambda: -a,
    }
    for name, op in ops.items():
        with pytest.raises(TypeError):
            op()
            pytest.fail(name)
    # still a 4-tuple for iteration/indexing
    assert len(a) == 4 and a[1] == 2.0 and list(a) == [1.0, 2.0, 3.0, 4.0]


def test_is_finite():
    assert FourVector(0.0, 1.0, -2.0, 3.0).is_finite()
    assert not FourVector(0.0, math.inf, 0.0, 0.0).is_finite()
    assert not FourVector(math.nan, 0.0, 0.0, 0.0).is_finite()


def test_raise_index_flips_spatial_signs():
    v = FourVector(1.0, 2.0, -3.0, 4.0)
    assert raise_index(v) == FourVector(1.0, -2.0, 3.0, -4.0)
    assert raise_index(raise_index(v)) == v
    # inner(v, v) equals the plain dot of covariant and contravariant forms
    up = raise_index(v)
    assert inner(v, v) == sum(a * b for a, b in zip(v, up))


def test_euclidean_helpers():
    v = FourVector(1.0, 2.0, 2.0, 0.0)
    assert euclidean_sq(v) == 9.0
    assert math.sqrt(euclidean_sq(v)) == 3.0


# The causal class of a vector is the null band of the candidates in
# construction._candidates; candidate_class reads it there, on the candidate 2v.


def test_causal_class_basics():
    assert candidate_class(FourVector(1.0, 0.0, 0.0, 0.0)) is CausalClass.TIMELIKE
    assert candidate_class(FourVector(0.0, 1.0, 0.0, 0.0)) is CausalClass.SPACELIKE
    assert candidate_class(FourVector(1.0, 1.0, 0.0, 0.0)) is CausalClass.NULL
    assert candidate_class(FourVector(0.0, 0.0, 0.0, 0.0)) is CausalClass.NULL


def test_causal_class_tolerance_is_relative():
    # |v.v| = 2e-12 against component scale ~2: inside the 1e-9 band
    v = FourVector(1.0, 1.0 + 1e-12, 0.0, 0.0)
    assert candidate_class(v) is CausalClass.NULL
    # same shape but scaled: still null
    w = scaled(v, 4096.0)
    assert candidate_class(w) is CausalClass.NULL
    # a clearly timelike vector stays timelike at tiny scale
    assert candidate_class(FourVector(1e-8, 0.0, 0.0, 0.0)) is CausalClass.TIMELIKE
    # widening the tolerance flips a marginal verdict
    u = FourVector(1.0, 0.999, 0.0, 0.0)
    assert candidate_class(u) is CausalClass.TIMELIKE
    assert candidate_class(u, Tolerances(causal=1e-2)) is CausalClass.NULL


def _scales_exactly(vectors, s):
    # a power of two rescales a float exactly unless the result is subnormal
    return all(scaled(scaled(v, s), 1.0 / s) == v for v in vectors)


@given(vectors, st.integers(min_value=-30, max_value=30))
@example(FourVector(0.0, 0.0, 0.0, 1.302385449676331e-167), 17)
def test_causal_class_invariant_under_exact_scaling(v, e):
    # powers of two rescale floats exactly, so the verdict cannot move, even
    # where the squares underflow
    s = math.ldexp(1.0, e)
    assume(_scales_exactly([v], s))
    assert candidate_class(scaled(v, s)) is candidate_class(v)


@pytest.mark.parametrize(
    "v, verdict",
    [
        (FourVector(0.0, 0.0, 0.0, 1e-170), CausalClass.SPACELIKE),
        (FourVector(5e-324, 0.0, 0.0, 0.0), CausalClass.TIMELIKE),
        (FourVector(1e200, 0.0, 0.0, 0.0), CausalClass.TIMELIKE),
        (FourVector(1e200, 1e200, 0.0, 0.0), CausalClass.NULL),
        (FourVector(-1e300, 1.0, 2e300, 0.0), CausalClass.SPACELIKE),
    ],
)
def test_causal_class_survives_under_and_overflowing_squares(v, verdict):
    assert candidate_class(v) is verdict


# Every float kind: the whole exponent range, signed zeros, subnormals,
# values near the float maximum, infinities and NaN.
any_components = st.one_of(
    st.floats(),
    st.builds(
        math.ldexp,
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(min_value=-1080, max_value=1024),
    ),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max,
        -sys.float_info.max, math.inf, -math.inf, math.nan,
    ]),
)
any_vectors = st.builds(FourVector, *([any_components] * 4))


@given(st.lists(any_vectors, min_size=1, max_size=3))
# Python's max skips a NaN that does not come first; numpy's propagates it
@example([FourVector(1.0, math.nan, 0.0, 0.0)])
@example([FourVector(3.0, 0.0, 0.0, 0.0), FourVector(0.0, 0.0, 0.0, math.nan)])
@example([FourVector(-0.0, 5e-324, 0.0, -0.0)])
def test_rescaled_scalar_branch_matches_the_array_branch(vs):
    scalar = _rescaled(*vs)
    arrays = _rescaled(*(np.array(v, dtype=float)[:, None] for v in vs))
    assert all(type(v) is FourVector for v in scalar)
    assert all(type(c) is float for v in scalar for c in v)
    assert [[c.hex() for c in v] for v in scalar] == [
        [float(c).hex() for c in a[:, 0]] for a in arrays
    ]


@given(vectors, vectors)
def test_inner_is_symmetric(a, b):
    assert inner(a, b) == inner(b, a)


def test_plane_class_basics():
    e0 = FourVector(1.0, 0.0, 0.0, 0.0)
    e1 = FourVector(0.0, 1.0, 0.0, 0.0)
    e2 = FourVector(0.0, 0.0, 1.0, 0.0)
    assert plane_class(e1, e2) is PlaneClass.SPACELIKE_PLANE
    assert plane_class(e0, e1) is PlaneClass.LORENTZIAN_PLANE
    # parallel vectors span no plane
    assert plane_class(e1, scaled(e1, 3.0)) is PlaneClass.DEGENERATE_PLANE
    # plane containing a null direction
    assert (
        plane_class(FourVector(1.0, 1.0, 0.0, 0.0), e2) is PlaneClass.DEGENERATE_PLANE
    )


def test_plane_with_timelike_member_is_lorentzian():
    # two independent timelike vectors satisfy the reversed Cauchy-Schwarz
    # inequality, so their Gram determinant is negative
    a = FourVector(2.0, 0.1, 0.0, 0.0)
    b = FourVector(3.0, 0.0, 0.2, 0.0)
    assert inner(a, a) > 0 and inner(b, b) > 0
    assert plane_class(a, b) is PlaneClass.LORENTZIAN_PLANE


@given(vectors, vectors, st.integers(min_value=-20, max_value=20))
@example(
    FourVector(0.0, 0.0, 0.0, 1.426450086930468e-160), FourVector(0.0, 0.0, 1.0, 0.0), -4
)
def test_plane_class_invariant_under_exact_scaling(a, b, e):
    s = math.ldexp(1.0, e)
    assume(_scales_exactly([a, b], s))
    assert plane_class(scaled(a, s), scaled(b, s)) is plane_class(a, b)


def test_plane_class_survives_underflowing_squares():
    tiny = FourVector(0.0, 1e-170, 0.0, 0.0)
    e2 = FourVector(0.0, 0.0, 1.0, 0.0)
    assert plane_class(tiny, e2) is PlaneClass.SPACELIKE_PLANE
    assert plane_class(FourVector(1e-170, 0.0, 0.0, 0.0), scaled(e2, 1e-160)) is (
        PlaneClass.LORENTZIAN_PLANE
    )
