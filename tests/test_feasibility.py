from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from arrtop.feasibility import feasible_point

from face_oracle import feasible_point as fraction_feasible_point


@st.composite
def systems(draw):
    """Strict integer rows in m flat coordinates, some of them planted to
    hold at an integer point so that feasible systems are common, and one
    positive multiplier per row."""
    m = draw(st.integers(min_value=1, max_value=3))
    point = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=m, max_size=m))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        coeffs = draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=m, max_size=m))
        if draw(st.booleans()):
            const = -sum(a * x for a, x in zip(coeffs, point)) + draw(
                st.integers(min_value=1, max_value=3))
        else:
            const = draw(st.integers(min_value=-6, max_value=6))
        rows.append((coeffs, const))
    scales = draw(st.lists(st.integers(min_value=1, max_value=50),
                           min_size=len(rows), max_size=len(rows)))
    planted = all(sum(a * x for a, x in zip(c, point)) + k > 0 for c, k in rows)
    return m, rows, scales, planted


@settings(max_examples=300, deadline=None)
@given(systems())
def test_witness_is_exact_and_ignores_positive_scaling(system):
    m, rows, scales, planted = system
    origin = (0,) * m + (1,)
    basis = tuple(tuple(int(i == j) for j in range(m + 1)) for i in range(m))
    witness = feasible_point(origin, basis, rows)
    scaled = [([s * a for a in c], s * k) for (c, k), s in zip(rows, scales)]
    assert feasible_point(origin, basis, scaled) == witness
    if planted:
        assert witness is not None
    fractions = fraction_feasible_point(tuple(Fraction(0) for _ in range(m)),
                                        tuple(b[:m] for b in basis), rows)
    if witness is None:
        assert fractions is None
    else:
        # with the standard basis the witness (W, D) is its own flat
        # coordinates W/D, primitive, and the Fraction oracle's point
        *w, den = witness
        assert all(type(x) is int for x in witness) and den > 0
        assert gcd(*witness) == 1
        assert tuple(Fraction(x, den) for x in w) == fractions
        for coeffs, const in rows:
            assert sum(a * x for a, x in zip(coeffs, w)) + const * den > 0


def test_witness_lies_on_the_flat():
    # u = (1/2) on the line p + u·v, p = (1, 2) and v = (1/3, -1) over
    # L = 3, for 0 < u < 1: the point (7/6, 3/2)
    p, v = (3, 6, 3), ((1, -3, 0),)
    assert feasible_point(p, v, [((1,), 0), ((-1,), 1)]) == (7, 9, 6)
    assert feasible_point(p, v, [((1,), 0), ((-1,), 0)]) is None
    # no nonconstant row: the flat's own point, made primitive
    assert feasible_point((2, 4, 2), v, [((0,), 1)]) == (1, 2, 1)
