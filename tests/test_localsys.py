from fractions import Fraction

import pytest

from arrtop.fields import FieldSpec
from arrtop.localsys import (
    LocalSystemError,
    build_local_system,
    decone_system,
    is_trivial,
    local_system_from_json,
    restrict,
    scalar_system,
    total_turn,
)

Q = FieldSpec.rationals()
F7 = FieldSpec.prime(7)


def test_build_rank1(a2):
    system = scalar_system(Q, [2, 3])
    assert system.rank == 1 and system.d == 2
    del a2


def test_build_rejects_singular():
    with pytest.raises(LocalSystemError, match="matrix 2 is singular"):
        scalar_system(F7, [2, 7, 3])


def test_build_rejects_noncommuting():
    with pytest.raises(LocalSystemError, match="1 and 2 do not commute"):
        build_local_system(Q, 2, [[[1, 1], [0, 1]], [[0, 1], [1, 0]]])


def test_rank1_never_rejected_for_commutation():
    system = scalar_system(Q, [2, 3, 5, Fraction(1, 2)])
    assert system.d == 4


def test_is_trivial():
    assert is_trivial(build_local_system(Q, 2, [[[1, 0], [0, 1]]] * 3))
    assert not is_trivial(scalar_system(Q, [1, 1, 2]))
    assert not is_trivial(build_local_system(Q, 2, [[[1, 1], [0, 1]]] * 2))


def test_total_turn_scalars(cen3):
    assert total_turn(cen3, scalar_system(Q, [2, 2, 2])) == ((8,),)
    assert total_turn(cen3, scalar_system(F7, [2, 2, 2])) == ((1,),)


def test_total_turn_diagonal(bool2):
    system = build_local_system(Q, 2, [[[2, 0], [0, 3]], [[5, 0], [0, 7]]])
    assert total_turn(bool2, system) == ((10, 0), (0, 21))


def test_total_turn_rejects_noncentral(gen3):
    with pytest.raises(LocalSystemError, match="central"):
        total_turn(gen3, scalar_system(Q, [2, 2, 2]))


def test_total_turn_order_invariant(cen3):
    a = build_local_system(Q, 2, [[[2, 1], [0, 2]], [[3, 0], [0, 3]], [[1, 1], [0, 1]]])
    b = build_local_system(Q, 2, list(reversed(a.monodromy)))
    assert total_turn(cen3, a) == total_turn(cen3, b)


def test_restrict():
    system = scalar_system(Q, [2, 3, 5])
    assert restrict(system, [0, 1]).monodromy == (((2,),), ((3,),))
    assert restrict(system, [0, 1, 2]) == system
    assert restrict(restrict(system, [0, 2]), [1]).monodromy == (((5,),),)


def test_restrict_rejects_bad_maps():
    system = scalar_system(Q, [2, 3, 5])
    with pytest.raises(LocalSystemError, match="injective"):
        restrict(system, [0, 0])
    with pytest.raises(LocalSystemError, match="out of range"):
        restrict(system, [0, 3])


def test_trivial_restricts_trivial():
    system = scalar_system(Q, [1, 1, 1])
    assert is_trivial(restrict(system, [2, 0]))


def test_decone_system_f7(cen3):
    descended = decone_system(cen3, scalar_system(F7, [2, 2, 2]), 2)
    assert descended.monodromy == (((2,),), ((2,),))


def test_decone_system_rejects_nonidentity_turn(cen3):
    with pytest.raises(LocalSystemError, match="does not descend"):
        decone_system(cen3, scalar_system(Q, [2, 2, 2]), 0)


def test_decone_system_balanced(bool2):
    descended = decone_system(bool2, scalar_system(Q, [5, Fraction(1, 5)]), 1)
    assert descended.monodromy == (((5,),),)


def test_inverse_system_roundtrip():
    system = build_local_system(Q, 2, [[[1, 1], [0, 1]], [[2, 1], [0, 2]]])
    double = system.inverse_system().inverse_system()
    assert double == system


def test_json_roundtrip():
    system = build_local_system(F7, 2, [[[1, 1], [0, 1]], [[2, 1], [0, 2]]])
    again = local_system_from_json(system.to_json())
    assert again == system


def test_json_rational_entries():
    raw = {"field": {"kind": "Q"}, "rank": 1, "monodromy": [["1/2"], ["-3"]]}
    system = local_system_from_json(raw)
    assert system.monodromy == (((Fraction(1, 2),),), ((Fraction(-3),),))


def test_json_rejects_wrong_length():
    raw = {"field": {"kind": "Q"}, "rank": 2, "monodromy": [["1", "0", "0"]]}
    with pytest.raises(LocalSystemError):
        local_system_from_json(raw)


def test_hash_is_cached_and_agrees_with_equality():
    a = scalar_system(Q, [2, 3])
    b = scalar_system(Q, [2, 3])
    assert a == b and hash(a) == hash(b) and {a: "x"}[b] == "x"
    assert a != scalar_system(Q, [3, 2])
    assert vars(a)["_hash"] == hash((a.field, a.rank, a.monodromy))
