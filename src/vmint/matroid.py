"""Independence-oracle matroids, standard constructions, and a
base-exchange checker."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import (
    GroundSet,
    InvalidInputError,
    ResourceLimitError,
    Subset,
    mask_of,
    parse_rational,
    scaled_weights,
)

DEFAULT_ENUMERATION_LIMIT = 1 << 22

# The most elements on which `check_base_exchange` builds its table of
# 2**n bits, one per subset.
CLOSURE_TABLE_SIZE = 16


class MatroidOracle:
    """A matroid given by its ground set and an independence query.

    `greedy(order)` is the set the matroid greedy algorithm keeps when it
    scans `order`, distinct elements each of which joins when it keeps the
    set independent.  A construction that knows its structure passes a
    `greedy` hook that returns that set's mask from one pass; without one,
    the scan asks one independence query per element.  `some_base`, the
    greedy base in index order, and its size, the rank, are computed once.

    A construction that knows its structure may also pass `circuits`, a
    map from the mask of a rank-sized set X to its fundamental-circuit
    table, or None when X is not a base: a tuple whose entry v, for each
    v outside X, is the mask of the u in X for which X - u + v is a base,
    that is C(X, v) - v (entries for v in X are unspecified).  The hook
    decides whether X is a base, by whatever test its structure allows:
    a graphic table pivots the last table it built when X is one
    exchange away from that table's base (see `make_graphic`), and that
    exchange alone proves X a base.  Then `circuits(mask)` answers every
    single exchange of X at once, and is None when the mask is not a
    base; `has_circuits` tells whether the table exists.
    """

    def __init__(self, ground: GroundSet, independent: Callable[[Subset], bool],
                 name: str = "matroid",
                 circuits: Optional[Callable[[int], tuple[int, ...]]] = None,
                 greedy: Optional[Callable[[Sequence[int]], int]] = None):
        self.ground = ground
        self._independent = independent
        self._circuits = circuits
        self._greedy = greedy or self._greedy_by_queries
        self.name = name
        if not independent(ground.empty()):
            raise InvalidInputError("the empty set must be independent")
        self._base = self.greedy(ground.elements())
        self._rank = self._base.cardinality()

    def is_independent(self, subset: Subset) -> bool:
        if subset.ground is not self.ground and subset.ground != self.ground:
            raise InvalidInputError("subset is on a different ground set")
        return self._independent(subset)

    @property
    def rank(self) -> int:
        return self._rank

    def rank_of(self, subset: Subset) -> int:
        """Rank of a subset: size of a maximal independent subset of it."""
        return self._greedy(subset.members()).bit_count()

    def is_base(self, subset: Subset) -> bool:
        return subset.cardinality() == self._rank and self.is_independent(subset)

    @property
    def has_circuits(self) -> bool:
        return self._circuits is not None

    def circuits(self, base_mask: int) -> Optional[tuple[int, ...]]:
        """The fundamental-circuit table of a base, or None for a non-base."""
        if self._circuits is None:
            raise InvalidInputError(f"{self.name} matroid has no circuit table")
        if base_mask.bit_count() != self._rank:
            return None
        return self._circuits(base_mask)

    def some_base(self) -> Subset:
        """The greedy base: each element in index order joins when it keeps
        the set independent."""
        return self._base

    def greedy(self, order: Sequence[int]) -> Subset:
        """The set that each element of `order` in turn joins when it keeps
        the set independent."""
        return Subset(self.ground, self._greedy(order))

    def _greedy_by_queries(self, order: Sequence[int]) -> int:
        mask = 0
        for i in order:
            grown = mask | 1 << i
            if self._independent(Subset(self.ground, grown)):
                mask = grown
        return mask

    def __repr__(self) -> str:
        return f"MatroidOracle({self.name}, |V|={self.ground.size}, rank={self._rank})"


def single_exchange(base: int, mask: int) -> Optional[tuple[int, int]]:
    """The pair (u, v) for which `mask` is base - u + v, with u in the
    base and v outside it, or None when it is no such single exchange."""
    moved = base ^ mask
    out, into = moved & base, moved & mask
    if out.bit_count() != 1 or into.bit_count() != 1:
        return None
    return out.bit_length() - 1, into.bit_length() - 1


@dataclass(frozen=True)
class ExplicitBaseFamily:
    """An explicit list of candidate bases over a common ground set."""

    ground: GroundSet
    bases: tuple[Subset, ...]

    @staticmethod
    def of(ground: GroundSet, bases: Iterable[Subset]) -> "ExplicitBaseFamily":
        return ExplicitBaseFamily(ground, tuple(bases))


def make_uniform(ground: GroundSet, r: int) -> MatroidOracle:
    """The uniform matroid U(r, |V|): independent iff cardinality <= r."""
    if not 0 <= r <= ground.size:
        raise InvalidInputError(f"uniform rank {r} out of range 0..{ground.size}")
    return MatroidOracle(ground, lambda x: x.cardinality() <= r, f"uniform(r={r})",
                         lambda base: (base,) * ground.size,
                         lambda order: mask_of(order[:r], ground.size))


def make_free(ground: GroundSet) -> MatroidOracle:
    return make_uniform(ground, ground.size)


def make_partition(ground: GroundSet,
                   blocks: Sequence[tuple[Subset, int]]) -> MatroidOracle:
    """Partition matroid: at most `capacity` members per block.

    The blocks must partition the ground set.
    """
    seen = 0
    for block, capacity in blocks:
        if block.ground != ground:
            raise InvalidInputError("block on a different ground set")
        if capacity < 0:
            raise InvalidInputError("block capacity must be nonnegative")
        if seen & block.mask:
            raise InvalidInputError("blocks overlap")
        seen |= block.mask
    if seen != ground.full().mask:
        raise InvalidInputError("blocks do not cover the ground set")
    masks = [block.mask for block, _ in blocks]
    caps = [cap for _, cap in blocks]
    block_of = [0] * ground.size
    for b, (block, _) in enumerate(blocks):
        for v in block.members():
            block_of[v] = b

    def independent(x: Subset) -> bool:
        return all((x.mask & m).bit_count() <= cap for m, cap in zip(masks, caps))

    def circuits(base: int) -> Optional[tuple[int, ...]]:
        # A base fills the block of every v outside it, so v can only
        # replace a member of its own block.
        if not independent(Subset(ground, base)):
            return None
        return tuple(base & masks[b] for b in block_of)

    def greedy(order: Sequence[int]) -> int:
        # One room counter per block, indexed by position: a mask key
        # would hash |V| bits on every lookup.
        room = caps.copy()
        kept = []
        for i in order:
            b = block_of[i]
            if room[b]:
                room[b] -= 1
                kept.append(i)
        return mask_of(kept, ground.size)

    return MatroidOracle(ground, independent, "partition", circuits, greedy)


def make_graphic(vertices: int, edges: Sequence[tuple[int, int]],
                 labels: Optional[Sequence[str]] = None) -> MatroidOracle:
    """Graphic matroid of a multigraph; the ground set is the edge list.

    A subset of edges is independent iff it is acyclic (union-find check).
    Only the vertices that edges touch are kept, renumbered in ascending
    order, so a query costs nothing per isolated vertex.

    A circuit table comes from one walk of the spanning forest, which
    also tells whether the edge set is a base, unless the base asked for
    is X - u + v for the base X of the last table and u lies on C(X, v):
    then the table is that one pivoted on (u, v) (graphic matroids are
    binary), with no walk and no test.
    """
    if vertices < 1:
        raise InvalidInputError("graph needs at least one vertex")
    for u, v in edges:
        if not (0 <= u < vertices and 0 <= v < vertices):
            raise InvalidInputError(f"edge ({u},{v}) has an endpoint out of range")
    ground = GroundSet(len(edges), tuple(labels) if labels else None)
    ends = sorted({end for edge in edges for end in edge})
    index = {end: i for i, end in enumerate(ends)}
    edge_list = tuple((index[u], index[v]) for u, v in edges)
    vertices = len(ends)

    def independent(x: Subset) -> bool:
        return all(_joins_two_trees(edge_list, vertices, x.members()))

    # The last table built, and its base: the next base asked for is
    # often one exchange away, and then its table is a pivot of this one.
    last: list = [0, None]

    def circuits(base: int) -> Optional[tuple[int, ...]]:
        mask, table = last
        if table is not None:
            if base == mask:
                return table
            step = single_exchange(mask, base)
            if step is not None and table[step[1]] >> step[0] & 1:
                table = _pivoted(table, *step)
                last[:] = base, table
                return table
        table = forest_circuits(base)
        if table is not None:
            last[:] = base, table
        return table

    def forest_circuits(base: int) -> Optional[tuple[int, ...]]:
        # Root every tree of the forest, then walk the tree path between
        # the ends of each non-forest edge.  A rank-sized edge set is a
        # base exactly when it is a forest, that is when each of its
        # edges reaches a new vertex.
        tree: list[list[tuple[int, int]]] = [[] for _ in range(vertices)]
        for i in Subset(ground, base).members():
            a, b = edge_list[i]
            tree[a].append((b, i))
            tree[b].append((a, i))
        up_vertex = list(range(vertices))
        up_edge = [-1] * vertices
        depth = [-1] * vertices
        reached = 0
        for root in range(vertices):
            if depth[root] >= 0:
                continue
            depth[root] = 0
            stack = [root]
            while stack:
                a = stack.pop()
                for b, i in tree[a]:
                    if depth[b] < 0:
                        depth[b] = depth[a] + 1
                        up_vertex[b], up_edge[b] = a, i
                        stack.append(b)
                        reached += 1
        if reached != base.bit_count():
            return None
        table = [0] * len(edge_list)
        for i, (a, b) in enumerate(edge_list):
            if base >> i & 1:
                continue
            path = 0
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                path |= 1 << up_edge[a]
                a = up_vertex[a]
            table[i] = path
        return tuple(table)

    def greedy(order: Sequence[int]) -> int:
        # Kruskal's forest: the edges of `order` that join two trees.
        joins = _joins_two_trees(edge_list, vertices, order)
        return mask_of(compress(order, joins), ground.size)

    return MatroidOracle(ground, independent, "graphic", circuits, greedy)


def _pivoted(table: Sequence[int], u: int, v: int) -> tuple[int, ...]:
    """The fundamental-circuit table of X - u + v from that of X, for a
    binary matroid and u on the circuit C(X, v): the GF(2) pivot of its
    representation [I | A] on (u, v).  Each circuit through u takes the
    symmetric difference with C(X, v), which drops u and adds v; u's own
    circuit is C(X, v); v joins the base, whose entries are 0."""
    circuit = table[v] | 1 << v
    bit = 1 << u
    pivoted = [entry ^ circuit if entry & bit else entry for entry in table]
    pivoted[u] = circuit ^ bit
    pivoted[v] = 0
    return tuple(pivoted)


def _joins_two_trees(edge_list: Sequence[tuple[int, int]], vertices: int,
                     indices: Iterable[int]) -> Iterator[bool]:
    """For each edge index in turn, whether that edge joins two trees of
    the forest of the edges before it that joined two trees (union-find)."""
    parent = list(range(vertices))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in indices:
        u, v = edge_list[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
        yield ru != rv


def make_linear(ground: GroundSet,
                columns: Sequence[Sequence[Fraction | int | str]]) -> MatroidOracle:
    """Linear matroid over the rationals; element i is column i.

    Independence is full column rank, decided by exact Gaussian elimination.
    """
    if len(columns) != ground.size:
        raise InvalidInputError("need one column per ground element")
    height = len(columns[0]) if columns else 0
    cols = []
    for col in columns:
        if len(col) != height:
            raise InvalidInputError("columns have inconsistent heights")
        cols.append(tuple(parse_rational(v) for v in col))

    def independent(x: Subset) -> bool:
        chosen = [list(cols[i]) for i in x.members()]
        if len(chosen) > height:
            return False
        # Row-reduce the selected columns; independent iff no column vanishes.
        pivots: list[tuple[int, list[Fraction]]] = []
        for vec in chosen:
            for row, pivot_vec in pivots:
                if vec[row] != 0:
                    factor = vec[row] / pivot_vec[row]
                    for j in range(height):
                        vec[j] -= factor * pivot_vec[j]
            lead = next((j for j in range(height) if vec[j] != 0), None)
            if lead is None:
                return False
            pivots.append((lead, vec))
        return True

    return MatroidOracle(ground, independent, "linear")


def from_explicit_bases(family: ExplicitBaseFamily) -> MatroidOracle:
    """Matroid whose bases are exactly the listed sets.

    The caller is responsible for the family satisfying the exchange axiom
    (`instances` checks the family with :func:`check_base_exchange`);
    independence is containment in a base.
    """
    if not family.bases:
        raise InvalidInputError("base family must be nonempty")
    sizes = {b.cardinality() for b in family.bases}
    if len(sizes) != 1:
        raise InvalidInputError("bases must be equicardinal")
    masks = tuple(b.mask for b in family.bases)

    def independent(x: Subset) -> bool:
        return any(x.mask & ~m == 0 for m in masks)

    return MatroidOracle(family.ground, independent, "explicit")


def dual_matroid(matroid: MatroidOracle) -> MatroidOracle:
    """The dual matroid: bases are the complements of the bases of `matroid`.

    When `matroid` has circuit tables, so does the dual: X* - u + v is a
    dual base exactly when V \\ X* - v + u is a base, so the table of X*
    is the transpose of the table of V \\ X* (entry v of the dual table
    holds the u whose entry in the primal table holds v).
    """
    full_rank = matroid.rank
    ground = matroid.ground

    def independent(x: Subset) -> bool:
        # X is coindependent iff some base avoids X.
        return matroid.rank_of(x.complement()) == full_rank

    circuits = None
    if matroid.has_circuits:
        full = ground.full().mask

        def circuits(mask: int) -> Optional[tuple[int, ...]]:
            table = matroid.circuits(mask ^ full)
            if table is None:
                return None
            transposed = [0] * ground.size
            for u in Subset(ground, mask).members():
                for v in Subset(ground, table[u]).members():
                    transposed[v] |= 1 << u
            return tuple(transposed)

    return MatroidOracle(ground, independent, f"dual({matroid.name})",
                         circuits)


def enumerate_bases(matroid: MatroidOracle,
                    limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[Subset]:
    """All bases of a matroid, by scanning the rank-sized subsets."""
    n, r = matroid.ground.size, matroid.rank
    if math.comb(n, r) > limit:
        raise ResourceLimitError(
            f"enumerating C({n},{r}) candidate bases exceeds limit {limit}")
    return [x for x in matroid.ground.subsets_of_size(r) if matroid.is_independent(x)]


def check_base_exchange(family: ExplicitBaseFamily,
                        limit: int = DEFAULT_ENUMERATION_LIMIT) -> bool:
    """Test the base exchange axiom on an explicit family.

    For all bases X, Y and v in X \\ Y there must be u in Y \\ X with
    X - v + u in the family.  The elements that extend X - v to a base
    are v and U(X, v), the u outside X with X - v + u a base, so the
    axiom fails exactly when some base avoids them.  One pass over the
    bases maps each X - v to its extenders.  On at most
    `CLOSURE_TABLE_SIZE` elements, one table over every subset S says
    whether some base lies inside S; on more, each base mask is ANDed
    against each set of extenders, and more than `limit` ANDs raise
    `ResourceLimitError`.
    """
    if not family.bases:
        raise InvalidInputError("base family must be nonempty")
    sizes = {b.cardinality() for b in family.bases}
    if len(sizes) != 1:
        raise InvalidInputError("bases must be equicardinal")
    masks = {b.mask for b in family.bases}
    extenders: dict[int, int] = {}
    for x in masks:
        rest = x
        while rest:
            bit = rest & -rest
            extenders[x ^ bit] = extenders.get(x ^ bit, 0) | bit
            rest ^= bit
    hitting = set(extenders.values())
    n = family.ground.size
    if n <= CLOSURE_TABLE_SIZE:
        inside = _holds_a_member(masks, n)
        full = (1 << n) - 1
        return not any(inside[(full ^ h) >> 3] >> ((full ^ h) & 7) & 1
                       for h in hitting)
    if len(hitting) * len(masks) > limit:
        raise ResourceLimitError(
            f"base exchange check over {len(masks)} bases exceeds limit "
            f"{limit}")
    return all(y & h for h in hitting for y in masks)


def _holds_a_member(masks: Iterable[int], n: int) -> bytes:
    """The bit table, little-endian, whose bit S is set when some mask
    lies inside S, for every subset S of n elements: the masks' bits,
    closed upwards one element at a time."""
    bits = bytearray(((1 << n) + 7) >> 3)
    for m in masks:
        bits[m >> 3] |= 1 << (m & 7)
    table = int.from_bytes(bits, "little")
    every = (1 << (1 << n)) - 1
    for i in range(n):
        step = 1 << i
        # The bits S without element i: runs of `step` ones, then zeros.
        without = ((1 << step) - 1) * (every // ((1 << 2 * step) - 1))
        table |= (table & without) << step
    return table.to_bytes(len(bits), "little")


def min_weight_base(matroid: MatroidOracle,
                    weights: Sequence[Fraction]) -> Subset:
    """Minimum-weight base by the classic matroid greedy algorithm: ties
    in index order."""
    if len(weights) != matroid.ground.size:
        raise InvalidInputError("need one weight per ground element")
    scaled, _ = scaled_weights(weights)
    return matroid.greedy(sorted(matroid.ground.elements(),
                                 key=scaled.__getitem__))
