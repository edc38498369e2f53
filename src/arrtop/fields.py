"""Coefficient fields: the rationals and prime fields F_p.

Elements of Q are `fractions.Fraction`; elements of F_p are ints in
[0, p).  Arithmetic on them is plain Python operators, with one `% p`
per result over F_p.  A FieldSpec names the field and coerces input
into it; it does no arithmetic of its own.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def parse_rational(s) -> Fraction:
    """Parse a rational string: optional sign, digits, optional '/digits'
    with a nonzero denominator."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str) or not _RATIONAL_RE.match(s.strip()):
        raise ValueError(f"malformed rational {s!r}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {s!r}") from None


def parse_int(value) -> int:
    """An int, or a string of parse_rational's integer form (optional sign,
    digits; no digit separators); a float or a bool is refused rather than
    truncated or read as 0 and 1."""
    if type(value) is int or isinstance(value, str) and _INT_RE.match(value.strip()):
        return int(value)
    raise ValueError(f"malformed integer {value!r}")


# Largest characteristic accepted, an input bound: the F_p rank engine
# works on Python ints and overflows at no prime, while the dense int64
# test oracle multiplies two residues, so (p - 1)**2 must fit there.
MAX_PRIME = isqrt(2**63 - 1) + 1


def _is_prime(n: int) -> bool:
    """Trial division up to isqrt(n): FieldSpec asks it only up to
    MAX_PRIME, about 3e9, a few ms once per prime."""
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


_FIELDS = {}                             # (kind, p) -> its one FieldSpec


class FieldSpec:
    """Q (kind='Q') or F_p (kind='Fp' with p prime).  There is one object
    per field, checked once when first made, so fields compare and hash by
    identity, in C: systems hash and compare their field at no Python cost."""

    __slots__ = ("kind", "p")

    def __new__(cls, kind: str, p: int | None = None):
        field = _FIELDS.get((kind, p))
        if field is not None and type(p) is type(field.p):     # 7.0 finds F_7: refused below
            return field
        if kind == "Q":
            if p is not None:
                raise ValueError("Q takes no characteristic")
        elif kind == "Fp":
            if type(p) is int and p > MAX_PRIME:
                raise ValueError(f"Fp supports primes up to {MAX_PRIME}, got {p}")
            if type(p) is not int or not _is_prime(p):
                raise ValueError(f"Fp needs a prime, got {p}")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        field = object.__new__(cls)
        object.__setattr__(field, "kind", kind)
        object.__setattr__(field, "p", p)
        _FIELDS[kind, p] = field
        return field

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a FieldSpec")

    def __reduce__(self):                # a copy or an unpickled field is the same object
        return FieldSpec, (self.kind, self.p)

    def __repr__(self):
        return f"FieldSpec(kind={self.kind!r}, p={self.p!r})"

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("Q")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("Fp", p)

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def element(self, value) -> "Fraction | int":
        """Coerce an int / Fraction / rational string into this field."""
        if type(value) is int:           # not a bool: parse_rational refuses those
            return Fraction(value) if self.kind == "Q" else value % self.p
        q = value if isinstance(value, Fraction) else parse_rational(value)
        if self.kind == "Q":
            return q
        if q.denominator % self.p == 0:
            raise ValueError(f"{q} has no image in F_{self.p}")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def to_json(self) -> dict:
        return {"kind": "Q"} if self.kind == "Q" else {"kind": "Fp", "p": self.p}

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        kind = obj.get("kind")
        if kind == "Q":
            return FieldSpec.rationals()
        if kind == "Fp":
            return FieldSpec.prime(parse_int(obj["p"]))
        raise ValueError(f"unknown field spec {obj!r}")
