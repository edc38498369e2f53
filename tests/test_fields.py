import copy
import pickle
import random

import pytest

from arrtop.exactla import FMatrixSparse, rank
from arrtop.fields import MAX_PRIME, FieldSpec, _is_prime, parse_int, parse_rational
from arrtop.localsys import local_system_from_json, scalar_system


def trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def rank_mod_p_reference(rows, p):
    """Gaussian elimination mod p on Python integers (no overflow)."""
    m = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


def corank_one_matrix(p, n=12, seed=5):
    """n x n matrix of rank n - 1 mod p with entries spread over [0, p)."""
    rng = random.Random(seed)
    a = [[rng.randrange(p) for _ in range(n - 1)] for _ in range(n)]
    b = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
    return [[sum(a[i][t] * b[t][j] for t in range(n - 1)) % p for j in range(n)]
            for i in range(n)]


def sparse(rows):
    m = FMatrixSparse(len(rows), len(rows[0]))
    m.entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return m


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(-2, 3000) if _is_prime(n)] == \
        [n for n in range(-2, 3000) if trial_division(n)]


def test_is_prime_large_mersenne():
    # 2^31 - 1 is prime and 2^31 + 1 = 3 * 715827883, both below MAX_PRIME
    assert 2**31 + 1 < MAX_PRIME
    assert _is_prime(2**31 - 1)
    assert not _is_prime(2**31 + 1)


@pytest.mark.parametrize("n", [561, 3215031751])
def test_is_prime_rejects_carmichael_numbers(n):
    assert not _is_prime(n)


def test_prime_above_int64_safe_bound_is_refused():
    p = 4294967311
    assert _is_prime(p) and p > MAX_PRIME
    rows = corank_one_matrix(p)
    assert rank_mod_p_reference(rows, p) == 11
    with pytest.raises(ValueError, match="up to"):
        FieldSpec.prime(p)
    with pytest.raises(ValueError, match="up to"):
        FieldSpec.from_json({"kind": "Fp", "p": p})


def test_largest_accepted_prime_ranks_exactly():
    p = next(q for q in range(MAX_PRIME, 0, -1) if _is_prime(q))
    rows = corank_one_matrix(p)
    assert rank(sparse(rows), FieldSpec.prime(p)) == rank_mod_p_reference(rows, p) == 11


@pytest.mark.parametrize("field", [FieldSpec.rationals(), FieldSpec.prime(2),
                                   FieldSpec.prime(7), FieldSpec.prime(MAX_PRIME - 7)])
def test_an_int_element_is_the_parsed_one_and_a_bool_is_refused(field):
    for n in (0, 1, -1, 6, 7, -7, 10**30 + 1, -(10**30)):
        got, parsed = field.element(n), field.element(str(n))
        assert got == parsed and type(got) is type(parsed)
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"malformed rational {flag}"):
            field.element(flag)


def test_a_field_is_one_object_however_it_is_made():
    # fields compare and hash by identity, so every way of making or
    # copying one must give the same object
    for made in ([FieldSpec.rationals(), FieldSpec("Q"), FieldSpec.from_json({"kind": "Q"})],
                 [FieldSpec.prime(7), FieldSpec("Fp", 7), FieldSpec.from_json({"kind": "Fp", "p": 7}),
                  FieldSpec.from_json({"kind": "Fp", "p": "7"})]):
        first = made[0]
        made += [copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first))]
        assert all(field is first and field == first and hash(field) == hash(first)
                   for field in made)
    assert len({FieldSpec.rationals(), FieldSpec.prime(7), FieldSpec.prime(11),
                FieldSpec("Fp", 7)}) == 3
    from_file = local_system_from_json({"field": {"kind": "Fp", "p": "7"}, "rank": 1,
                                        "monodromy": [["2"], ["3"]]})
    made_here = scalar_system(FieldSpec("Fp", 7), [2, 3])
    assert from_file == made_here and hash(from_file) == hash(made_here)
    with pytest.raises(AttributeError):
        FieldSpec.prime(7).p = 11
    with pytest.raises(ValueError, match="needs a prime"):
        FieldSpec("Fp", 7.0)             # its key equals F_7's, yet it is refused


def test_parse_int_takes_the_integer_form_parse_rational_takes():
    # int() alone reads digit separators, which parse_rational refuses
    for text in ("7", " -12 ", "+3", "0", "101"):
        assert parse_int(text) == parse_rational(text)
    for text in ("1_000", "1_01", "_1", "1.0", "0x10", "", "1 0"):
        for parse in (parse_int, parse_rational):
            with pytest.raises(ValueError):
                parse(text)
    with pytest.raises(ValueError, match="malformed integer"):
        FieldSpec.from_json({"kind": "Fp", "p": "1_01"})
