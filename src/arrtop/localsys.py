"""Abelian local systems on arrangement complements.

A rank-r local system is encoded by one invertible r x r monodromy
matrix per hyperplane meridian; the matrices are required to commute
pairwise, so the monodromy of any loop is determined by winding numbers
alone and no fundamental-group presentation is needed.  Fields are Q
and F_p.  Each system computes once, and keeps, its hash, its partition
(the finest blocks on which all its matrices are block diagonal), its
commutation check and inverses, block by block on it as such matrices
commute and invert blockwise, its total turn over the full matrices and
whether it is trivial.  Systems derived from one (`inverse_system`,
`restrict`, `decone_system`: some of its matrices, or their inverses)
commute already and carry its inverses over, so no matrix is inverted
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce

from .exactla import identity_matrix, mat_inverse, mat_mul
from .fields import FieldSpec, parse_int
from .geometry import Arrangement


class LocalSystemError(Exception):
    pass


@dataclass(frozen=True)
class LocalSystem:
    field: FieldSpec
    rank: int
    monodromy: tuple     # one r x r matrix per hyperplane, pairwise commuting

    def __post_init__(self):
        """Refuse non-commuting monodromy however the system is made from new
        matrices: the d²=0 gate over Λ carries over to a specialization only
        then.  Block-diagonal matrices commute when their blocks do, scalars
        always."""
        blocks, field = [block for block in self.partition if len(block) > 1], self.field
        checked = []                     # (first hyperplane, its blocks) per distinct matrix
        for m, (j, *_) in self._distinct if blocks else ():
            subs = [tuple(tuple(m[a][b] for b in block) for a in block) for block in blocks]
            for i, others in checked:
                if any(mat_mul(field, x, y) != mat_mul(field, y, x) for x, y in zip(others, subs)):
                    raise LocalSystemError(
                        f"matrices {i + 1} and {j + 1} do not commute; "
                        "only abelian monodromy is supported")
            checked.append((j, subs))

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """Computed once over the content: a tuple does not cache its hash."""
        return hash((self.field, self.rank, self.monodromy))

    @property
    def d(self) -> int:
        return len(self.monodromy)

    @cached_property
    def _distinct(self) -> list:
        """(matrix, positions holding it) per distinct matrix, by first
        position, for validation, partition and inversion.  The dict keys on
        the matrices, so unequal ones of one hash stay apart."""
        groups = {}
        for j, m in enumerate(self.monodromy):
            groups.setdefault(m, []).append(j)
        return list(groups.items())

    @cached_property
    def inverse(self) -> tuple:
        """The inverse of each monodromy matrix, each distinct one inverted once
        and, being block diagonal, block by block; a singular one raises LocalSystemError."""
        out, zero, span = [None] * self.d, self.field.zero, range(self.rank)
        for m, positions in self._distinct:
            try:
                rows = {a: dict(zip(block, row)) for block in self.partition
                        for a, row in zip(block, _invert(self.field, m, block))}
            except (ValueError, ZeroDivisionError):
                raise LocalSystemError(f"monodromy matrix {positions[0] + 1} is singular")
            inverse = tuple(tuple(rows[a].get(b, zero) for b in span) for a in span)
            for j in positions:
                out[j] = inverse
        return tuple(out)

    @cached_property
    def partition(self) -> tuple:
        """The finest partition of range(r) (blocks by least index) on which
        every M_i, so every inverse, is block diagonal: the components of the
        matrices' off-diagonal supports.  Validation and inversion go by its blocks."""
        if self.rank == 1:
            return ((0,),)
        block = {a: {a} for a in range(self.rank)}
        for m, _positions in self._distinct:
            for a, b in ((a, b) for a, row in enumerate(m) for b, x in enumerate(row) if x):
                if block[a] is not block[b]:
                    block.update(dict.fromkeys(merged := block[a] | block[b], merged))
        return tuple(dict.fromkeys(tuple(sorted(part)) for part in block.values()))

    @cached_property
    def trivial(self) -> bool:
        """Every monodromy matrix is the identity, decided once."""
        ident = identity_matrix(self.field, self.rank)
        return all(m == ident for m in self.monodromy)

    @cached_property
    def turn(self) -> tuple:
        """The product of all monodromy matrices (order-free by commutativity),
        multiplied out once over the full matrices, so no wrong partition fools it."""
        return reduce(partial(mat_mul, self.field), self.monodromy,
                      identity_matrix(self.field, self.rank))

    def inverse_system(self) -> "LocalSystem":
        """Entrywise matrix-inverse system (meridians act by inverses); its
        inverse is this system's monodromy, so nothing is inverted twice."""
        return _derived(self, self.inverse, self.monodromy)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "rank": self.rank,
            "monodromy": [[str(x) for row in m for x in row] for m in self.monodromy],
        }


def _invert(field: FieldSpec, m, block):
    """m's block on `block`, inverted: a field inverse at size one, else Gauss-Jordan."""
    if len(block) > 1:
        return mat_inverse(field, [[m[a][b] for b in block] for a in block])
    x = m[block[0]][block[0]]
    return ((pow(x, -1, field.p) if field.p else field.one / x,),)


def _derived(system: LocalSystem, monodromy: tuple, inverse: tuple) -> LocalSystem:
    """A system on matrices of `system`'s checked family (some of them, or
    their inverses) with `inverse` as its inverses.  Inverses and subsets of
    a commuting family commute, so __post_init__'s check does not run."""
    derived = object.__new__(LocalSystem)
    derived.__dict__.update(field=system.field, rank=system.rank, monodromy=monodromy,
                            inverse=inverse)
    return derived


def build_local_system(fieldspec: FieldSpec, rank: int, matrices) -> LocalSystem:
    """Validate and build: every matrix invertible, all pairs commuting."""
    if rank < 1:
        raise LocalSystemError(f"rank must be >= 1, got {rank}")
    mats = []
    for idx, m in enumerate(matrices):
        try:
            rows = tuple(tuple(fieldspec.element(x) for x in row) for row in m)
        except ValueError as exc:        # a malformed entry, or one with no image in F_p
            raise LocalSystemError(str(exc)) from None
        if len(rows) != rank or any(len(row) != rank for row in rows):
            raise LocalSystemError(f"matrix {idx + 1} is not {rank}x{rank}")
        mats.append(rows)
    if not mats:                         # before anything sized by the rank is built
        raise LocalSystemError("a local system needs one matrix per hyperplane, got none")
    system = LocalSystem(fieldspec, rank, tuple(mats))
    system.inverse                       # raises on a singular matrix; kept for later use
    return system


def scalar_system(fieldspec: FieldSpec, scalars) -> LocalSystem:
    """Rank-1 system from a scalar per hyperplane."""
    return build_local_system(fieldspec, 1, [[[s]] for s in scalars])


def is_trivial(system: LocalSystem) -> bool:
    return system.trivial


def total_turn(arr: Arrangement, system: LocalSystem):
    """The turn around the center of a central arrangement: the system's
    cached product of all its monodromy matrices."""
    if not arr.is_central:
        raise LocalSystemError("total turn is defined for central arrangements only")
    if system.d != arr.d:
        raise LocalSystemError(f"system has {system.d} matrices, arrangement has {arr.d}")
    return system.turn


def restrict(system: LocalSystem, index_map) -> LocalSystem:
    """System on a sub/section arrangement: hyperplane j of the target
    carries the monodromy of original hyperplane index_map[j], with its
    inverse."""
    index_map = list(index_map)
    if len(set(index_map)) != len(index_map):
        raise LocalSystemError("index map must be injective")
    for i in index_map:
        if not 0 <= i < system.d:
            raise LocalSystemError(f"index {i} out of range 0..{system.d - 1}")
    return _derived(system, *(tuple(seq[i] for i in index_map)
                              for seq in (system.monodromy, system.inverse)))


def decone_system(arr: Arrangement, system: LocalSystem, i0: int) -> LocalSystem:
    """Descend along the deconing of a central essential arrangement: the
    system without hyperplane i0, with its inverses.

    Only systems whose total turn (cached) is the identity descend; others
    are rejected."""
    if not (arr.is_central and arr.is_essential):
        raise LocalSystemError("decone_system needs a central essential arrangement")
    if not 0 <= i0 < arr.d:
        raise LocalSystemError(f"hyperplane index {i0} out of range")
    if total_turn(arr, system) != identity_matrix(system.field, system.rank):
        raise LocalSystemError("system does not descend: total turn is not the identity")
    return _derived(system, *(seq[:i0] + seq[i0 + 1:]
                              for seq in (system.monodromy, system.inverse)))


def local_system_from_json(obj) -> LocalSystem:
    """Parse a system file; malformed input raises LocalSystemError."""
    try:
        fieldspec = FieldSpec.from_json(obj["field"])
        rank = parse_int(obj["rank"])
        if not all(isinstance(flat, list) for flat in obj["monodromy"]):
            raise TypeError("each monodromy matrix must be a list")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise LocalSystemError(f"malformed local system: {exc!r}")
    mats = []
    for flat in obj["monodromy"]:
        if len(flat) == rank and all(isinstance(row, list) for row in flat):
            rows = flat
        else:
            if len(flat) != rank * rank:
                raise LocalSystemError(
                    f"matrix needs {rank * rank} row-major entries, got {len(flat)}")
            rows = [flat[i * rank:(i + 1) * rank] for i in range(rank)]
        mats.append(rows)
    return build_local_system(fieldspec, rank, mats)
