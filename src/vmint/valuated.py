"""Value-oracle valuated matroids and M-natural-convex functions.

A :class:`ValuationOracle` maps subsets of a ground set to exact extended
rationals; its effective domain (the finite-valued sets) is a matroid base
family of known rank, and a witness base gives descent algorithms a finite
starting point.  An :class:`MnatFunction` is the integer-vector analogue,
with a bounding box enclosing its effective domain.

Domain membership is value finiteness; there is no separate domain oracle.
All value queries are counted, which feeds the oracle-complexity checks
in the test suite.  A composite oracle (one that asks other oracles, or
has no cheaper way to answer than its value function) memoizes its
answers; a leaf answers every query from its own tables, or from its
components' answers, and keeps no memo, so each of its calls is an
eval.  Oracles are logically immutable,
but the memo, the per-base caches and the counters mutate on query:
confine an oracle to one solver run at a time (or guard it) when sharing
across threads.

A valuation oracle has a `scale` D: its value function returns ints in
units of 1/D, +infinity as None.  The solvers compare and add those raw
values, and `value` turns them into exact `ExtValue`s for everyone else.
Every constructor here scales its oracle by the lcm of the denominators
of its weights or tables (a disjoint sum by the lcm of its parts').

The descent and the auxiliary digraph ask only single exchanges
omega(X - u + v), a block at a time, and that block is the one exchange
query: `ValuationOracle.raw_exchanges(X, outs, ins)` answers every u in
`outs` (inside X) against every v in `ins` (outside X) in one call, one
per copy of each aux build (`best_exchange`, its smallest entry, is one
per descent step).  It keeps the calls, evals and memo exactly as
`raw_value(X.exchange(u, v))` pair by pair does; only an evaluation may
be computed differently, by the oracle's `block_fn`.

The leaves are the oracles with a `block_fn`: a modular valuation on a
matroid with fundamental-circuit tables (`size_constrained_modular` is
one, on a uniform matroid), the intersection constraint, the laminar
valuations, the disjoint sum and the dual.  The first answers exchanges
from one circuit table per base (X - u + v is a base exactly when u
lies on the circuit C(X, v)) and the integer sums w(X) - w_u + w_v,
with no independence test, and carries table and sum from one base to
the next by a single exchange; it also answers `best_exchange` without
building the block.  The constraint and the laminar valuations read the
copy counts or member counts of the base, the disjoint sum asks each
component one block of the pairs inside its copy (a pair across copies
of a base is +infinity), and the dual asks its base one block of the
complement, with outs and ins swapped.  A memo would cost them more than
it saves.  The composites (`apps.modular_on_domain`, explicit tables,
modular valuations on linear or explicit matroids) memoize, and send
each miss to their value function.  Each per-base state is a
one-entry `functools.lru_cache` of the mask, except the modular leaf's,
which moves by single exchanges (see `from_matroid_and_weights`).

Laminar convex functions (convex tables of the member sums of a laminar
family) are built by :func:`laminar_valuation` on subsets (the laminar
penalty, the lifted laminar function) and :func:`laminar_convex_function`
on vectors, on a coordinate-sum hyperplane or not, with witnesses from
:func:`_laminar_point` instead of a scan.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .core import (
    INF,
    ZERO,
    EmptyDomainError,
    ExtValue,
    GroundSet,
    IntVector,
    InvalidInputError,
    ResourceLimitError,
    Subset,
    scaled_weights,
    subset_to_vector,
    vector_to_subset,
)
from .matroid import MatroidOracle, make_uniform, single_exchange

DEFAULT_DOMAIN_LIMIT = 200_000

# The most elements a tuple ground (copies times |V|) may have.  The
# reductions on copies take time that grows with about the fourth power
# of it; at this size the slowest shapes measured (16 congestion players
# on 16 resources, 2 copies of 128 elements at half rank) take 9-12 s.
MAX_TUPLE_GROUND = 256

# A raw oracle value: an int in units of 1/D, None for +infinity.
Raw = Optional[int]
_MISSING = object()


class ValuationOracle:
    """A valuated matroid given by a value query on subsets.

    `value(X)` is finite only on rank-sized subsets; `witness_base` is one
    finite-valued subset, or None when the effective domain is empty.

    `scale` is the oracle's denominator D.  Its hooks return ints in units
    of 1/D, with None for +infinity, and the memo keeps those raw values.
    The `raw_*` queries hand them out, and `value` the same answers as
    `ExtValue`s.  All of them share the counters and the memo.

    Two hooks evaluate: `value_fn(X)` a rank-sized set, and, for a leaf
    oracle, `block_fn(base, outs, ins)` a whole block of exchanges at
    once: base - u + v for u in `outs` and v in `ins`, u-major.  Without
    a `block_fn`, each exchange the memo misses goes to `value_fn`.

    A leaf (an oracle with a `block_fn`) keeps no memo: every query goes
    to the hooks and counts as one eval, so `evals == calls`.  The
    leaves are the modular valuations on matroids with circuit tables,
    the intersection constraint, the laminar valuations, the disjoint
    sum and the dual; the last two pass their queries on to the oracles
    they are built on.  Any other oracle (a modular valuation on a
    linear or explicit matroid, an explicit table, `modular_on_domain`)
    looks each query up in its memo first, and counts only its misses
    as evals.  A leaf may also be given a fourth hook,
    `best_fn(base, outs, ins)`, which answers `best_exchange` without
    building the block.
    """

    def __init__(self, ground: GroundSet, rank: int,
                 value_fn: Callable[[Subset], Raw],
                 witness_base: Optional[Subset],
                 name: str = "valuation",
                 scale: int = 1,
                 block_fn: Optional[Callable[
                     [Subset, Sequence[int], Sequence[int]],
                     list[Raw]]] = None,
                 best_fn: Optional[Callable[
                     [Subset, Sequence[int], Sequence[int]],
                     Optional[tuple[int, int]]]] = None):
        if not 0 <= rank <= ground.size:
            raise InvalidInputError(f"rank {rank} out of range 0..{ground.size}")
        self.ground = ground
        self.rank = rank
        self.scale = scale
        self._value_fn = value_fn
        self._block_fn = block_fn
        self._best_fn = best_fn
        self.witness_base = witness_base
        self.name = name
        self._memo: dict[int, Raw] = {}
        self.calls = 0
        self.evals = 0
        if witness_base is not None:
            if witness_base.cardinality() != rank:
                raise InvalidInputError("witness base has the wrong cardinality")
            raw = self.raw_value(witness_base)
            if raw is None:
                raise InvalidInputError("witness base has infinite value")
            if not isinstance(raw, int):
                raise InvalidInputError(
                    f"valuation {name!r} must return ints in units of "
                    f"1/{scale}, not {type(raw).__name__}")

    def raw_value(self, subset: Subset) -> Raw:
        """The value of `subset` in units of 1/D, None for +infinity."""
        if subset.ground is not self.ground and subset.ground != self.ground:
            raise InvalidInputError("subset is on a different ground set")
        self.calls += 1
        mask = subset.mask
        cached = self._memo.get(mask, _MISSING)
        if cached is _MISSING:
            if mask.bit_count() != self.rank:
                cached = None
            else:
                cached = self._value_fn(subset)
            if self._block_fn is None:
                self._memo[mask] = cached
            self.evals += 1
        return cached

    def raw_exchanges(self, base: Subset, outs: Sequence[int],
                      ins: Sequence[int]) -> list[Raw]:
        """`[raw_value(base.exchange(u, v)) for u in outs for v in ins]`,
        with the same values, `calls`, `evals` and memo, in that order.

        `base` must be rank-sized, `outs` inside it and `ins` outside it;
        both lists are checked in one pass.
        """
        self._check_block(base, outs, ins)
        return self._block(base, outs, ins)

    def best_exchange(self, base: Subset, outs: Sequence[int],
                      ins: Sequence[int]) -> Optional[tuple[int, int]]:
        """The smallest finite value of `raw_exchanges(base, outs, ins)`
        and the index of its first occurrence in that u-major block, or
        None when every exchange is +infinity; with the checks, `calls`,
        `evals` and memo of `raw_exchanges`.  A leaf with a `best_fn`
        answers without building the block; any other oracle scans it."""
        if self._best_fn is None:
            return _best_of(self.raw_exchanges(base, outs, ins))
        self._check_block(base, outs, ins)
        count = len(outs) * len(ins)
        self.calls += count
        self.evals += count
        return self._best_fn(base, outs, ins)

    def _check_block(self, base: Subset, outs: Sequence[int],
                     ins: Sequence[int]) -> None:
        """Check that `base` is a rank-sized set on the ground, `outs`
        are elements inside it and `ins` elements outside."""
        if base.ground is not self.ground and base.ground != self.ground:
            raise InvalidInputError("subset is on a different ground set")
        mask = base.mask
        if mask.bit_count() != self.rank:
            raise InvalidInputError("a block of exchanges needs a rank-sized base")
        size = self.ground.size
        for elements, inside in ((outs, 1), (ins, 0)):
            improper = False
            for e in elements:
                if not 0 <= e < size:
                    raise InvalidInputError(f"element index {e} out of range")
                if mask >> e & 1 != inside:
                    improper = True
            if improper:
                raise InvalidInputError(
                    "a block exchanges members of the base for non-members")

    def _block(self, base: Subset, outs: Sequence[int],
               ins: Sequence[int]) -> list[Raw]:
        """`raw_exchanges` for a block already checked.  A leaf asks its
        `block_fn` for the whole block; any other oracle looks the sets
        up in its memo, u-major, and sends each miss to `value_fn`."""
        count = len(outs) * len(ins)
        self.calls += count
        if self._block_fn is not None:
            self.evals += count
            return self._block_fn(base, outs, ins)
        mask = base.mask
        memo = self._memo
        ground = self.ground
        values = []
        for u in outs:
            row = mask ^ (1 << u)
            for v in ins:
                key = row | 1 << v
                value = memo.get(key, _MISSING)
                if value is _MISSING:
                    value = memo[key] = self._value_fn(Subset(ground, key))
                    self.evals += 1
                values.append(value)
        return values

    def as_value(self, raw: Raw) -> ExtValue:
        """A raw value of this oracle as the exact `ExtValue` it stands for."""
        if raw is None:
            return INF
        return ExtValue(Fraction(raw, self.scale))

    def value(self, subset: Subset) -> ExtValue:
        return self.as_value(self.raw_value(subset))

    def in_domain(self, subset: Subset) -> bool:
        return self.raw_value(subset) is not None

    def reset_counters(self) -> None:
        self.calls = 0
        self.evals = 0

    def require_witness(self) -> Subset:
        if self.witness_base is None:
            raise EmptyDomainError(f"valuation {self.name!r} has an empty domain")
        return self.witness_base

    def enumerate_domain(self, limit: int = DEFAULT_DOMAIN_LIMIT) -> list[Subset]:
        """All finite-valued subsets, by scanning the rank-sized ones."""
        n, r = self.ground.size, self.rank
        if math.comb(n, r) > limit:
            raise ResourceLimitError(
                f"domain scan over C({n},{r}) subsets exceeds limit {limit}")
        return [x for x in self.ground.subsets_of_size(r) if self.in_domain(x)]

    def __repr__(self) -> str:
        return f"ValuationOracle({self.name}, |V|={self.ground.size}, rank={self.rank})"


def _best_of(values: list[Raw]) -> Optional[tuple[int, int]]:
    """The smallest finite raw value and the index of its first
    occurrence, or None when every value is +infinity."""
    best = min([x for x in values if x is not None], default=None)
    return None if best is None else (best, values.index(best))


class MnatFunction:
    """An M-natural-convex function on integer vectors, with a bounding box."""

    def __init__(self, dimension: int,
                 value_fn: Callable[[IntVector], ExtValue],
                 box_lower: Sequence[int], box_upper: Sequence[int],
                 witness_point: Optional[IntVector],
                 name: str = "mnat"):
        if len(box_lower) != dimension or len(box_upper) != dimension:
            raise InvalidInputError("box bounds must match the dimension")
        if any(lo > hi for lo, hi in zip(box_lower, box_upper)):
            raise InvalidInputError("box lower bound exceeds upper bound")
        self.dimension = dimension
        self._value_fn = value_fn
        self.box_lower = tuple(int(v) for v in box_lower)
        self.box_upper = tuple(int(v) for v in box_upper)
        self.witness_point = witness_point
        self.name = name
        self._memo: dict[tuple[int, ...], ExtValue] = {}
        self.calls = 0
        self.evals = 0
        if witness_point is not None and not self.value(witness_point).is_finite:
            raise InvalidInputError("witness point has infinite value")

    def value(self, x: IntVector) -> ExtValue:
        return self.moved(x.entries, -1, -1)

    def moved(self, entries: tuple[int, ...], up: int, down: int) -> ExtValue:
        """`value(z + e_up - e_down)` for z given by its entries, where -1
        means no move; a memo hit builds no vector.  `value` and the
        exchange arcs ask through this.
        """
        if len(entries) != self.dimension:
            raise InvalidInputError("vector length mismatch")
        key = list(entries)
        if up >= 0:
            key[up] += 1
        if down >= 0:
            key[down] -= 1
        key = tuple(key)
        self.calls += 1
        cached = self._memo.get(key)
        if cached is None:
            point = IntVector(key)
            cached = self._value_fn(point) if self.in_box(point) else INF
            self._memo[key] = cached
            self.evals += 1
        return cached

    def in_box(self, x: IntVector) -> bool:
        return all(map(operator.le, self.box_lower, x.entries)) \
            and all(map(operator.le, x.entries, self.box_upper))

    def in_domain(self, x: IntVector) -> bool:
        return self.value(x).is_finite

    def box_volume(self) -> int:
        return math.prod(hi - lo + 1
                         for lo, hi in zip(self.box_lower, self.box_upper))

    def reset_counters(self) -> None:
        self.calls = 0
        self.evals = 0

    def require_witness(self) -> IntVector:
        if self.witness_point is None:
            raise EmptyDomainError(f"function {self.name!r} has an empty domain")
        return self.witness_point

    def rank_total(self) -> int:
        """Coordinate sum of the witness point (the rank, for M-convex f)."""
        return self.require_witness().total()

    def iter_box(self, limit: int = DEFAULT_DOMAIN_LIMIT) -> Iterator[IntVector]:
        if self.box_volume() > limit:
            raise ResourceLimitError(
                f"box scan in dimension {self.dimension} exceeds limit {limit}")
        ranges = [range(lo, hi + 1) for lo, hi in
                  zip(self.box_lower, self.box_upper)]
        for combo in itertools.product(*ranges):
            yield IntVector(combo)

    def enumerate_domain(self, limit: int = DEFAULT_DOMAIN_LIMIT) -> list[IntVector]:
        return [x for x in self.iter_box(limit) if self.in_domain(x)]

    def __repr__(self) -> str:
        return f"MnatFunction({self.name}, dim={self.dimension})"


class NegatedMnat:
    """The part x -> f(-x) of a direct sum, with the mirrored box.

    It asks f directly, so f's memo and counters are the only ones.
    """

    def __init__(self, fn: MnatFunction):
        self.fn = fn
        self.dimension = fn.dimension
        self.box_lower = tuple(-hi for hi in fn.box_upper)
        self.box_upper = tuple(-lo for lo in fn.box_lower)
        self.witness_point = None if fn.witness_point is None \
            else -fn.witness_point
        self._point: Optional[tuple[int, ...]] = None
        self._negated: tuple[int, ...] = ()

    def value(self, x: IntVector) -> ExtValue:
        return self.fn.value(-x)

    def moved(self, entries: tuple[int, ...], up: int, down: int) -> ExtValue:
        """f at -(z + e_up - e_down) = -z + e_down - e_up; -z is negated
        once per block point, not once per move."""
        if entries != self._point:
            self._point = entries
            self._negated = tuple(-v for v in entries)
        return self.fn.moved(self._negated, down, up)


class _FiniteIndicator:
    """0 where a part is finite, +infinity elsewhere."""

    def __init__(self, part):
        self.part = part
        self.dimension = part.dimension
        self.box_lower = part.box_lower
        self.box_upper = part.box_upper
        self.witness_point = part.witness_point

    def value(self, x: IntVector) -> ExtValue:
        return ZERO if self.part.value(x).is_finite else INF

    def moved(self, entries: tuple[int, ...], up: int, down: int) -> ExtValue:
        return ZERO if self.part.moved(entries, up, down).is_finite else INF


def interval_indicator(lower: int, upper: int, witness: int) -> MnatFunction:
    """The 1-dimensional indicator of the integer interval [lower, upper]."""
    return MnatFunction(1, lambda x: ZERO, (lower,), (upper,),
                        IntVector((witness,)), "interval")


def direct_sum(parts: Sequence, name: str,
               indicator: bool = False) -> MnatFunction:
    """The function z -> sum of part_i(z_i) over consecutive blocks z_i.

    A part is an :class:`MnatFunction` or any object with `dimension`,
    `box_lower`, `box_upper`, `witness_point`, `value(IntVector)` and
    `moved(entries, up, down)` (see `MnatFunction.moved`), which is
    +infinity outside its box.  The box and witness are the parts'
    joined end to end (no witness if a part has none).  With `indicator`
    the value is 0 wherever every part is finite.  The value asks each
    part `moved(z_B, -1, -1)`, so a memo hit builds no vector.

    The result exposes `blocks`, a tuple of `(offset, part)` pairs that
    tile the coordinates in order and satisfy, at every point z,
    value(z) == sum of part.value(z[offset:offset + part.dimension]);
    with `indicator` each part there is the 0/+infinity indicator of the
    part passed in.  Exchange arcs of a direct sum are read block by block
    from this (see :mod:`vmint.mflow`).
    """
    if indicator:
        parts = [_FiniteIndicator(part) for part in parts]
    blocks = []
    offset = 0
    for part in parts:
        blocks.append((offset, part))
        offset += part.dimension

    def value(z: IntVector) -> ExtValue:
        total = ZERO
        for start, part in blocks:
            term = part.moved(z.entries[start:start + part.dimension], -1, -1)
            if not term.is_finite:
                return INF
            total = total + term
        return total

    witnesses = [part.witness_point for part in parts]
    witness = None if any(w is None for w in witnesses) \
        else IntVector(tuple(v for w in witnesses for v in w.entries))
    fn = MnatFunction(offset, value,
                      tuple(v for part in parts for v in part.box_lower),
                      tuple(v for part in parts for v in part.box_upper),
                      witness, name)
    fn.blocks = tuple(blocks)
    return fn


@dataclass(frozen=True)
class LaminarSpec:
    """A laminar family with one univariate convex table per member.

    Each table maps an integer interval [start, start+len-1] to exact
    rationals and is +infinity outside it.  Tables must satisfy
    g(k+1) + g(k-1) >= 2 g(k) on their interval.
    """

    ground: GroundSet
    members: tuple[Subset, ...]
    tables: tuple["ConvexTable", ...]

    def __post_init__(self):
        if len(self.members) != len(self.tables):
            raise InvalidInputError("need one table per laminar member")
        for member in self.members:
            if member.ground != self.ground:
                raise InvalidInputError("laminar member on a different ground set")
            if member.mask == 0:
                raise InvalidInputError("laminar members must be nonempty")
        _laminar_forest([m.mask for m in self.members], self.ground.size)


@dataclass(frozen=True)
class ConvexTable:
    """A univariate discrete convex function on a finite integer interval."""

    start: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values:
            raise InvalidInputError("convex table must be nonempty")
        # On the values times their common denominator: ints, same verdict.
        scaled, _ = scaled_weights(self.values)
        for i in range(len(scaled) - 2):
            if scaled[i + 2] + scaled[i] < 2 * scaled[i + 1]:
                raise InvalidInputError("table is not discrete convex")

    @property
    def end(self) -> int:
        return self.start + len(self.values) - 1

    def at(self, k: int) -> ExtValue:
        if self.start <= k <= self.end:
            return ExtValue(self.values[k - self.start])
        return INF


def scaled_sum(scaled: Sequence[int], mask: int) -> int:
    """The sum of the scaled weights of the members of a mask: w(X) times
    the denominator D of :func:`scaled_weights`."""
    acc = 0
    while mask:
        low = mask & -mask
        acc += scaled[low.bit_length() - 1]
        mask ^= low
    return acc


def from_matroid_and_weights(matroid: MatroidOracle,
                             weights: Sequence[Fraction],
                             name: str = "modular") -> ValuationOracle:
    """Modular weights restricted to a base family: w(X) on bases, else +inf.

    The oracle is scaled by the lcm D of the weights' denominators.  When
    the matroid has circuit tables, the oracle is a leaf and keeps no
    memo.  Its state is the last base X whose exchanges it was asked,
    with X's fundamental-circuit table and scaled sum w(X): X - u + v is
    a base exactly when u is in the table's entry for v, and then its
    value is w(X) - w_u + w_v.  Blocks of exchanges of X (see
    `ValuationOracle.raw_exchanges`) are read off that state, and
    so is `best_exchange`: per column v, the heaviest u on C(X, v).  A
    step to a base X - u + v moves the state by one exchange (the matroid
    pivots its table, and the sum moves by w_v - w_u); a base farther
    away gets a new table and sum.

    The value of X, or of any X - u + v, is read off the state too, with
    no independence test and without moving it; the value of any other
    set is tested and kept in a one-entry cache of its own.  So an
    oracle asked about two bases in turn (one valuation on both sides,
    or on several copies) keeps its table and rebuilds none.
    """
    if len(weights) != matroid.ground.size:
        raise InvalidInputError("need one weight per ground element")
    scaled, scale = scaled_weights(weights)
    ground = matroid.ground

    @functools.lru_cache(maxsize=1)
    def tested(mask: int) -> Optional[int]:
        if not matroid.is_independent(Subset(ground, mask)):
            return None
        return scaled_sum(scaled, mask)

    if not matroid.has_circuits:
        return ValuationOracle(ground, matroid.rank,
                               lambda subset: tested(subset.mask),
                               matroid.some_base(), name, scale=scale)

    # The last base asked about, its circuit table and its scaled sum.
    state: list = [0, None, 0]

    def table_of(mask: int) -> tuple:
        """The table and sum of a base (the table is None for a set that
        is not a base), which becomes the state."""
        last, table, total = state
        if table is not None and mask == last:
            return table, total
        step = single_exchange(last, mask) if table is not None else None
        table = matroid.circuits(mask)
        if table is None:
            return None, None
        total = total + scaled[step[1]] - scaled[step[0]] \
            if step is not None else scaled_sum(scaled, mask)
        state[:] = mask, table, total
        return table, total

    def value_of(mask: int) -> Optional[int]:
        last, table, total = state
        if table is not None:
            if mask == last:
                return total
            step = single_exchange(last, mask)
            if step is not None:
                u, v = step
                return total - scaled[u] + scaled[v] \
                    if table[v] >> u & 1 else None
        return tested(mask)

    def block(base: Subset, outs: Sequence[int],
              ins: Sequence[int]) -> list[Raw]:
        mask = base.mask
        table, total = table_of(mask)
        if table is None:
            return [value_of(mask ^ (1 << u) | 1 << v)
                    for u in outs for v in ins]
        columns = [(table[v], scaled[v]) for v in ins]
        return [left + w if entry & bit else None
                for left, bit in [(total - scaled[u], 1 << u)
                                  for u in outs]
                for entry, w in columns]

    def best(base: Subset, outs: Sequence[int],
             ins: Sequence[int]) -> Optional[tuple[int, int]]:
        table, total = table_of(base.mask)
        if table is None:
            return _best_of(block(base, outs, ins))
        # The rows heaviest first, ties by row: the first row of a column
        # whose u lies on its circuit gives that column's best exchange.
        heavy = sorted(range(len(outs)), key=lambda i: (-scaled[outs[i]], i))
        heavy = [(i, 1 << outs[i], scaled[outs[i]]) for i in heavy]
        found = None
        for j, v in enumerate(ins):
            entry = table[v]
            for i, bit, weight in heavy:
                if entry & bit:
                    key = (scaled[v] - weight, i, j)
                    if found is None or key < found:
                        found = key
                    break
        if found is None:
            return None
        change, i, j = found
        return total + change, i * len(ins) + j

    return ValuationOracle(ground, matroid.rank,
                           lambda subset: value_of(subset.mask),
                           matroid.some_base(), name, scale, block, best)


def indicator_of_matroid(matroid: MatroidOracle) -> ValuationOracle:
    """The 0/+infinity indicator of a base family."""
    zeros = (Fraction(0),) * matroid.ground.size
    return from_matroid_and_weights(matroid, zeros, f"delta({matroid.name})")


def size_constrained_modular(ground: GroundSet, weights: Sequence[Fraction],
                             r: int) -> ValuationOracle:
    """Modular weights on all r-subsets: `from_matroid_and_weights` on
    the uniform matroid of rank r, whose circuit tables answer blocks of
    exchanges from the sum w(X) alone."""
    return from_matroid_and_weights(make_uniform(ground, r), weights,
                                    f"size={r}")


def dual_valuation(omega: ValuationOracle) -> ValuationOracle:
    """The dual valuated matroid: value(X) = omega(V \\ X).

    It has omega's scale, and passes its queries on to omega, exchanges
    as exchanges of the complement: X - u + v is (V \\ X) - v + u.  The
    dual is a leaf: it keeps no memo, and each row u of a block of X
    reaches omega as the block of V \\ X with outs `ins` and ins (u,),
    so omega's `calls`, `evals` and memo move exactly, in order, as
    under one `raw_value` per pair.  A leaf omega, which has no memo to
    keep in order, gets the whole block in one call, outs and ins
    swapped, and the dual reads its rows off the columns of the answer:
    one call per row costs the dualized ladder about a tenth of its
    time.  Those blocks skip omega's
    checks: the dual has checked the same elements, which are proper on
    the complement when they are proper on X.  The complement of the
    last base is kept.
    """
    witness = None
    if omega.witness_base is not None:
        witness = omega.witness_base.complement()
    ground = omega.ground

    @functools.lru_cache(maxsize=1)
    def complement(mask: int) -> Subset:
        return Subset(ground, mask ^ (1 << ground.size) - 1)

    def block(x: Subset, outs: Sequence[int],
              ins: Sequence[int]) -> list[Raw]:
        comp = complement(x.mask)
        if omega._block_fn is None:
            return [value for u in outs
                    for value in omega._block(comp, ins, (u,))]
        values = omega._block(comp, ins, outs)
        width = len(outs)
        return [value for i in range(width) for value in values[i::width]]

    return ValuationOracle(ground, ground.size - omega.rank,
                           lambda x: omega.raw_value(x.complement()), witness,
                           f"dual({omega.name})", omega.scale, block)


class TupleGround:
    """n disjoint copies of a ground set V, with tuple/subset conversions.

    Copy i of element v sits at index i*|V| + v of the combined ground set,
    which may have at most `MAX_TUPLE_GROUND` elements.
    """

    def __init__(self, base: GroundSet, n: int):
        if n < 1:
            raise InvalidInputError("need at least one copy")
        if n * base.size > MAX_TUPLE_GROUND:
            raise ResourceLimitError(
                f"{n} copies of {base.size} elements exceed the limit of "
                f"{MAX_TUPLE_GROUND} tuple elements")
        self.base = base
        self.n = n
        labels = None
        if base.labels is not None:
            labels = tuple(f"{lbl}@{i + 1}" for i in range(n) for lbl in base.labels)
        self.combined = GroundSet(base.size * n, labels)

    def to_subset(self, parts: Sequence[Subset]) -> Subset:
        if len(parts) != self.n:
            raise InvalidInputError(f"expected {self.n} parts")
        mask = 0
        for i, part in enumerate(parts):
            if part.ground != self.base:
                raise InvalidInputError("part on a different ground set")
            mask |= part.mask << (i * self.base.size)
        return Subset(self.combined, mask)

    def to_parts(self, subset: Subset) -> tuple[Subset, ...]:
        if subset.ground != self.combined:
            raise InvalidInputError("subset not on the combined ground set")
        size = self.base.size
        window = (1 << size) - 1
        return tuple(Subset(self.base, subset.mask >> (i * size) & window)
                     for i in range(self.n))

    def common_intersection(self, subset: Subset) -> Subset:
        return Subset(self.base, functools.reduce(
            operator.and_, (part.mask for part in self.to_parts(subset)),
            (1 << self.base.size) - 1))

    def lift(self, mask: int) -> int:
        """The combined mask of every copy of a mask of the base set."""
        return sum(mask << (i * self.base.size) for i in range(self.n))


def disjoint_sum(omegas: Sequence[ValuationOracle]) -> tuple[ValuationOracle, TupleGround]:
    """Disjoint sum of valuations over n disjoint copies of their ground set.

    value(X_1, ..., X_n) = sum_i omega_i(X_i); the rank is the sum of the
    component ranks and the witness concatenates the component witnesses.
    The sum is scaled by the lcm S of the components' denominators and
    adds their raw values times S / D_i.

    The sum is a leaf: it keeps no memo and answers a block of exchanges
    of a rank-sized X copy by copy.  When every part X_i has its
    component's rank, as every base does, an exchange across two copies
    is +infinity and asks no component, and the pairs inside copy i are
    one `raw_exchanges(X_i, outs_i, ins_i)` of component i, each finite
    answer plus the other parts' values.  Those values are asked once per
    X, with the first block that has a pair inside a copy; copy i is not
    asked when a part other than X_i is +infinity.  At any other X, each
    pair is valued in turn by the value function at X - u + v, where a
    pair across copies can be finite.
    """
    if not omegas:
        raise InvalidInputError("need at least one valuation")
    base = omegas[0].ground
    for om in omegas:
        if om.ground != base:
            raise InvalidInputError("valuations live on different ground sets")
    tg = TupleGround(base, len(omegas))
    scale = math.lcm(*(om.scale for om in omegas))
    factors = [scale // om.scale for om in omegas]

    def value(subset: Subset) -> Raw:
        total = 0
        for om, factor, part in zip(omegas, factors, tg.to_parts(subset)):
            term = om.raw_value(part)
            if term is None:
                return None
            total += term * factor
        return total

    size = base.size

    @functools.lru_cache(maxsize=1)
    def parts_of(mask: int) -> tuple[tuple[Subset, ...], bool]:
        """The parts of X, and whether each has its component's rank."""
        parts = tg.to_parts(Subset(tg.combined, mask))
        return parts, all(part.mask.bit_count() == om.rank
                          for part, om in zip(parts, omegas))

    @functools.lru_cache(maxsize=1)
    def terms_of(mask: int) -> tuple[list[Raw], int, int]:
        """Each part's scaled value (None for +infinity), the sum of the
        finite ones and the number of infinite ones."""
        terms = [om.raw_value(part) for om, part in
                 zip(omegas, parts_of(mask)[0])]
        terms = [None if term is None else term * factor
                 for term, factor in zip(terms, factors)]
        return (terms, sum(term for term in terms if term is not None),
                terms.count(None))

    def block(subset: Subset, outs: Sequence[int],
              ins: Sequence[int]) -> list[Raw]:
        mask = subset.mask
        parts, balanced = parts_of(mask)
        if not balanced:
            return [value(Subset(tg.combined, mask ^ (1 << u) | 1 << v))
                    for u in outs for v in ins]
        width = len(ins)
        values: list[Raw] = [None] * (len(outs) * width)
        # Rows and columns by copy, each with its place in the block.
        rows: list[list[tuple[int, int]]] = [[] for _ in omegas]
        columns: list[list[tuple[int, int]]] = [[] for _ in omegas]
        for i, u in enumerate(outs):
            copy, a = divmod(u, size)
            rows[copy].append((i * width, a))
        for j, v in enumerate(ins):
            copy, b = divmod(v, size)
            columns[copy].append((j, b))
        copies = [i for i in range(len(omegas)) if rows[i] and columns[i]]
        if not copies:
            return values
        terms, total, infinite = terms_of(mask)
        for i in copies:
            own = terms[i]
            if infinite - (own is None):
                continue
            rest = total - (own or 0)
            factor = factors[i]
            answers = iter(omegas[i].raw_exchanges(
                parts[i], [a for _, a in rows[i]],
                [b for _, b in columns[i]]))
            places = [j for j, _ in columns[i]]
            for start, _ in rows[i]:
                for j, answer in zip(places, answers):
                    if answer is not None:
                        values[start + j] = rest + answer * factor
        return values

    witness = None
    if all(om.witness_base is not None for om in omegas):
        witness = tg.to_subset([om.witness_base for om in omegas])
    rank = sum(om.rank for om in omegas)
    return (ValuationOracle(tg.combined, rank, value, witness, "disjoint-sum",
                            scale=scale, block_fn=block), tg)


def scaled_tables(tables: Sequence[ConvexTable],
                  ) -> tuple[Callable[[int, int], Optional[int]], int]:
    """Convex tables as ints over the lcm D of all their values'
    denominators: `term(m, count)` is table m at count times D, None
    outside its interval; returns `term` and D."""
    scaled, scale = scaled_weights([g for t in tables for g in t.values])
    offsets = list(itertools.accumulate((len(t.values) for t in tables),
                                        initial=0))
    bounds = [(offsets[m] - t.start, t.start, t.end)
              for m, t in enumerate(tables)]

    def term(m: int, count: int) -> Optional[int]:
        first, start, end = bounds[m]
        return scaled[first + count] if start <= count <= end else None

    return term, scale


def _laminar_forest(masks: Sequence[int], n: int,
                    ) -> tuple[list[int], list[Optional[int]],
                               list[Optional[int]]]:
    """The forest of a laminar family of masks on n coordinates.

    Returns the members in order of size (stable, so children come
    first), each member's parent (None for a root), and each
    coordinate's owner: the innermost member holding it, or None.  One
    pass over the members, largest first, builds it: a member is laminar
    with the earlier ones exactly when its elements have one innermost
    member so far, and that member is its parent.  Of equal masks, the
    earlier is the child.  Raises :class:`InvalidInputError` when the
    family is not laminar.
    """
    order = sorted(range(len(masks)), key=lambda m: masks[m].bit_count())
    parent: list[Optional[int]] = [None] * len(masks)
    owner: list[Optional[int]] = [None] * n
    ground = GroundSet(n)
    for m in reversed(order):
        elements = Subset(ground, masks[m]).members()
        held = {owner[e] for e in elements}
        if len(held) > 1:
            raise InvalidInputError("family is not laminar")
        parent[m] = held.pop() if held else None
        for e in elements:
            owner[e] = m
    return order, parent, owner


def _laminar_point(masks: Sequence[int], tables: Sequence[ConvexTable],
                   lower: Sequence[int], upper: Sequence[int],
                   total: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """The first point x of the box [lower, upper] at which every member
    sum of the laminar family `masks` lies in its table's interval (and
    the coordinate sum is `total`, if given), or None when there is none.

    "First" is lexicographic with coordinate 0 most significant (the
    order of `MnatFunction.iter_box`), except with a `total` on a box
    inside {0,1}^V: there coordinate n - 1 is most significant, so the
    point is the smallest finite mask.  The sums a member can reach form
    an integer interval, its reach: the sum of the reaches of its
    children in the family's forest (see :func:`_laminar_forest`) and of
    the box bounds of its own elements (those in no child), cut by its
    table's interval.  The sum `total` is a root member.  Each coordinate
    in turn is fixed at the smallest upper bound that leaves every reach
    nonempty.  Each member keeps its sums and its reach, so a probe
    updates only the owner of its coordinate and the owner's ancestors,
    and a count of empty reaches tells feasibility.
    """
    n = len(lower)
    members = [(mask, t.start, t.end) for mask, t in zip(masks, tables)]
    if total is not None:
        members.append(((1 << n) - 1, total, total))
    order, parent, owner = _laminar_forest([m[0] for m in members], n)
    lower, upper = list(lower), list(upper)
    sum_low = [0] * len(members)
    sum_high = [0] * len(members)
    for e, m in enumerate(owner):
        if m is not None:
            sum_low[m] += lower[e]
            sum_high[m] += upper[e]
    reach_low = [0] * len(members)
    reach_high = [0] * len(members)
    for m in order:
        reach_low[m] = max(sum_low[m], members[m][1])
        reach_high[m] = min(sum_high[m], members[m][2])
        if parent[m] is not None:
            sum_low[parent[m]] += reach_low[m]
            sum_high[parent[m]] += reach_high[m]
    empty = sum(1 for lo, hi in zip(reach_low, reach_high) if lo > hi)

    def bound(i: int, low: int, high: int) -> None:
        nonlocal empty
        m = owner[i]
        shift_low, shift_high = low - lower[i], high - upper[i]
        lower[i], upper[i] = low, high
        while m is not None and (shift_low or shift_high):
            sum_low[m] += shift_low
            sum_high[m] += shift_high
            old_low, old_high = reach_low[m], reach_high[m]
            reach_low[m] = max(sum_low[m], members[m][1])
            reach_high[m] = min(sum_high[m], members[m][2])
            empty += (reach_low[m] > reach_high[m]) - (old_low > old_high)
            shift_low = reach_low[m] - old_low
            shift_high = reach_high[m] - old_high
            m = parent[m]

    if empty:
        return None
    by_mask = total is not None and min(lower, default=0) >= 0 \
        and max(upper, default=0) <= 1
    for i in reversed(range(n)) if by_mask else range(n):
        lo, hi = lower[i], upper[i]
        while lo < hi:
            mid = (lo + hi) // 2
            bound(i, lower[i], mid)
            if not empty:
                hi = mid
            else:
                lo = mid + 1
        bound(i, lo, lo)
    return tuple(lower)


def laminar_valuation(ground: GroundSet, member_masks: Sequence[int],
                      tables: Sequence[ConvexTable], rank: int,
                      name: str) -> ValuationOracle:
    """The valuation X -> sum over members M of g_M(|X & M|) on rank-sized X.

    The masks form a laminar family on `ground`, with one convex table
    g_M each; the oracle is scaled by the tables' common denominator.
    Blocks of exchanges are answered from the member counts of the last
    base (see `ValuationOracle.raw_exchanges`): only the members holding
    exactly one of u and v move, each by one, so the change of each
    member's term going down or up one is kept per base, with the
    infinite terms counted apart from the finite sum.  The witness is the
    smallest finite mask.  Raises :class:`EmptyDomainError` when no
    rank-sized set is finite.  On vectors, `laminar_convex_function` with
    the box {0,1}^V and total `rank` is the same function, with the same
    witness.
    """
    term, scale = scaled_tables(tables)
    masks = tuple(member_masks)
    point = _laminar_point(masks, tables, (0,) * ground.size,
                           (1,) * ground.size, rank)
    if point is None:
        raise EmptyDomainError(f"valuation {name!r} has an empty domain")

    def value(subset: Subset) -> Raw:
        total = 0
        for m, mask in enumerate(masks):
            finite = term(m, (subset.mask & mask).bit_count())
            if finite is None:
                return None
            total += finite
        return total

    holding = [sum(1 << m for m, mask in enumerate(masks) if mask >> e & 1)
               for e in ground.elements()]

    @functools.lru_cache(maxsize=1)
    def shifts(mask: int) -> tuple:
        """The sum of the finite terms of a base, the number of its
        infinite ones, and per member the change of both when its count
        moves down, up, and down and then up again."""
        counts = [(mask & member).bit_count() for member in masks]
        terms = [term(m, count) for m, count in enumerate(counts)]
        down = [_term_change(t, term(m, count - 1))
                for m, (count, t) in enumerate(zip(counts, terms))]
        up = [_term_change(t, term(m, count + 1))
              for m, (count, t) in enumerate(zip(counts, terms))]
        return (sum(t for t in terms if t is not None), terms.count(None),
                down, up, [(a + b, c + d) for (a, c), (b, d) in zip(down, up)])

    def block(base: Subset, outs: Sequence[int],
              ins: Sequence[int]) -> list[Raw]:
        # A member holding u and not v loses one; one holding v and not u
        # gains one; one holding both keeps its count.
        acc, infinite, down, up, both = shifts(base.mask)
        columns = [(holding[v], *_summed(holding[v], up)) for v in ins]
        values: list[Raw] = []
        for u in outs:
            held = holding[u]
            finite, infinite_u = _summed(held, down)
            finite += acc
            infinite_u += infinite
            for other, gain, infinite_v in columns:
                common = held & other
                if common:
                    kept, kept_infinite = _summed(common, both)
                    values.append(
                        None if infinite_u + infinite_v - kept_infinite
                        else finite + gain - kept)
                else:
                    values.append(None if infinite_u + infinite_v
                                  else finite + gain)
        return values

    witness = Subset(ground, sum(bit << e for e, bit in enumerate(point)))
    return ValuationOracle(ground, rank, value, witness, name, scale=scale,
                           block_fn=block)


def _term_change(old: Optional[int], new: Optional[int]) -> tuple[int, int]:
    """How a term moving from `old` to `new` changes the sum of the finite
    terms and the number of infinite ones (None is +infinity)."""
    return ((0 if new is None else new) - (0 if old is None else old),
            (new is None) - (old is None))


def _summed(bits: int, changes: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the changes of the members in `bits`."""
    finite = infinite = 0
    while bits:
        low = bits & -bits
        change = changes[low.bit_length() - 1]
        finite += change[0]
        infinite += change[1]
        bits ^= low
    return finite, infinite


def intersection_constraint_valuation(n: int, constraint: MatroidOracle,
                                      r: int) -> tuple[ValuationOracle, TupleGround]:
    """The 0/+infinity valuation of tuples with intersection in a matroid.

    value(X_1, ..., X_n) = 0 when the common intersection of the parts is
    independent in `constraint` and the part sizes sum to r, else +infinity.
    The witness is found by a greedy fill; matroid augmentation guarantees
    the greedy reaches r whenever any tuple of total size r exists, so an
    unfinished fill means the domain is empty (witness None).

    An exchange moves one pick from element a = u mod |V| to b = v mod |V|,
    so at most one element out of and one into the common intersection
    (those with all n copies picked).  Blocks of exchanges (see
    `ValuationOracle.raw_exchanges`) are answered from the copy counts and
    the intersection of the last base, which are kept, and the verdict of
    each distinct intersection is asked of `constraint` once.
    """
    base = constraint.ground
    if not 0 <= r <= n * base.size:
        raise InvalidInputError(f"total rank {r} out of range 0..{n * base.size}")
    tg = TupleGround(base, n)
    size = base.size

    def value(subset: Subset) -> Raw:
        inter = tg.common_intersection(subset)
        return 0 if constraint.is_independent(inter) else None

    verdicts: dict[int, bool] = {}
    copies = [tg.lift(1 << e) for e in base.elements()]

    @functools.lru_cache(maxsize=1)
    def picks(mask: int) -> tuple[list[int], int]:
        """How many copies of a tuple pick each element, and the mask of
        the elements all n copies pick."""
        counts = [(mask & lifted).bit_count() for lifted in copies]
        return counts, sum(1 << e for e, count in enumerate(counts)
                           if count == n)

    def block(subset: Subset, outs: Sequence[int],
              ins: Sequence[int]) -> list[Raw]:
        counts, inter = picks(subset.mask)
        # Moving a pick from a to b != a drops a from the intersection and
        # adds b when b was picked by all other copies.
        columns = [(v % size, 1 << v % size if counts[v % size] == n - 1
                    else 0) for v in ins]
        keys = []
        for u in outs:
            a = u % size
            dropped = inter & ~(1 << a)
            keys += [inter if b == a else dropped | gain
                     for b, gain in columns]
        for key in keys:
            if key not in verdicts:
                verdicts[key] = constraint.is_independent(Subset(base, key))
        return [0 if verdicts[key] else None for key in keys]

    witness: Optional[Subset] = _greedy_tuple_fill(tg, constraint, r)
    return (ValuationOracle(tg.combined, r, value, witness,
                            "intersection-constraint", block_fn=block), tg)


def _greedy_tuple_fill(tg: TupleGround, constraint: MatroidOracle,
                       r: int) -> Optional[Subset]:
    """The tuple of r picks made one at a time, each the first (copy i,
    element v) that keeps the common intersection independent; None when
    no pick does."""
    full = (1 << tg.base.size) - 1
    parts = [0] * tg.n
    for _ in range(r):
        for i, v in itertools.product(range(tg.n), tg.base.elements()):
            if parts[i] >> v & 1:
                continue
            others = functools.reduce(operator.and_,
                                      parts[:i] + parts[i + 1:], full)
            if constraint.is_independent(
                    Subset(tg.base, (parts[i] | 1 << v) & others)):
                parts[i] |= 1 << v
                break
        else:
            return None
    return tg.to_subset([Subset(tg.base, part) for part in parts])


def laminar_penalty(weights: Sequence[Fraction], n: int, r: int,
                    ground: GroundSet) -> tuple[ValuationOracle, TupleGround]:
    """The valuation of tuples charging w(v) when all n copies pick v.

    On the hyperplane (part sizes summing to r) the value is
    sum over v of g_v(count of copies containing v), where g_v is w(v) at
    count n and 0 below; off the hyperplane the value is +infinity.
    Nonnegative w makes each g_v convex, which is what turns this into a
    valuated matroid; negative entries are rejected.  It is the
    :func:`laminar_valuation` of the lifted singletons with the tables g_v.
    """
    ws = tuple(Fraction(w) for w in weights)
    if len(ws) != ground.size:
        raise InvalidInputError("need one weight per ground element")
    if any(w < 0 for w in ws):
        raise InvalidInputError("laminar penalty requires nonnegative weights")
    if not 0 <= r <= n * ground.size:
        raise InvalidInputError(f"total rank {r} out of range 0..{n * ground.size}")
    tg = TupleGround(ground, n)
    return (laminar_valuation(
        tg.combined, [tg.lift(1 << v) for v in ground.elements()],
        [ConvexTable(0, (Fraction(0),) * n + (w,)) for w in ws], r,
        "laminar-penalty"), tg)


def laminar_convex_function(spec: LaminarSpec,
                            box_lower: Optional[Sequence[int]] = None,
                            box_upper: Optional[Sequence[int]] = None,
                            total: Optional[int] = None) -> MnatFunction:
    """The M-natural-convex function f(x) = sum over members X of g_X(sum x(v)).

    A bounding box may be passed explicitly; otherwise it is derived from
    the tables of singleton members, which must then cover every element.
    With `total`, f is restricted to the hyperplane of coordinate sum
    `total` (+infinity off it), which makes it M-convex.  The witness is
    the first finite point of the box in `iter_box` order; with a `total`
    on a box inside {0,1}^V it is the smallest finite mask, the witness of
    :func:`laminar_valuation` (see :func:`_laminar_point`).  Raises
    :class:`EmptyDomainError` when no point of the box is finite.
    """
    ground = spec.ground
    if box_lower is None or box_upper is None:
        lower = [None] * ground.size
        upper = [None] * ground.size
        for member, table in zip(spec.members, spec.tables):
            if member.cardinality() == 1:
                (v,) = member.members()
                lower[v] = table.start
                upper[v] = table.end
        if any(v is None for v in lower):
            raise InvalidInputError(
                "cannot derive a box: pass box bounds or add singleton members")
        box_lower, box_upper = lower, upper  # type: ignore[assignment]

    term, scale = scaled_tables(spec.tables)
    elements = tuple(member.members() for member in spec.members)

    def value(x: IntVector) -> ExtValue:
        if total is not None and x.total() != total:
            return INF
        acc = 0
        for m, members in enumerate(elements):
            finite = term(m, sum(x[v] for v in members))
            if finite is None:
                return INF
            acc += finite
        return ExtValue(Fraction(acc, scale))

    name = "laminar" if total is None else f"laminar|sum={total}"
    fn = MnatFunction(ground.size, value, box_lower, box_upper, None, name)
    point = _laminar_point([m.mask for m in spec.members], spec.tables,
                           fn.box_lower, fn.box_upper, total)
    if point is None:
        raise EmptyDomainError(f"function {name!r} has an empty domain")
    fn.witness_point = IntVector(point)
    return fn


def mnat_from_valuation(omega: ValuationOracle) -> MnatFunction:
    """View a valuated matroid as an M-convex function on {0,1}^V.

    `MnatFunction` answers +inf outside the 0/1 box without asking the
    value function, so it sees only 0/1 vectors."""

    def value(x: IntVector) -> ExtValue:
        return omega.value(vector_to_subset(omega.ground, x))

    witness = None
    if omega.witness_base is not None:
        witness = subset_to_vector(omega.witness_base)
    return MnatFunction(omega.ground.size, value,
                        (0,) * omega.ground.size, (1,) * omega.ground.size,
                        witness, f"mnat({omega.name})")


def check_valuated_exchange(omega: ValuationOracle,
                            limit: int = DEFAULT_DOMAIN_LIMIT) -> bool:
    """Exhaustively test the valuated exchange axiom over the domain.

    For all X, Y in dom and v in X \\ Y there must be u in Y \\ X with
    omega(X) + omega(Y) >= omega(X - v + u) + omega(Y + v - u).
    Both exchanges are rank-sized, so the values of the domain answer
    them, and the loop asks omega nothing, even a leaf with no memo.  The
    values are omega's raw ints, which share one scale, so they compare
    as the values do.
    """
    domain = omega.enumerate_domain(limit)
    values = {x.mask: omega.raw_value(x) for x in domain}
    for x in domain:
        vx = values[x.mask]
        for y in domain:
            lhs = vx + values[y.mask]
            diff = x.mask & ~y.mask
            candidates_mask = y.mask & ~x.mask
            v = diff
            while v:
                vbit = v & -v
                ok = False
                u = candidates_mask
                while u:
                    ubit = u & -u
                    first = values.get(x.mask ^ vbit | ubit)
                    if first is not None:
                        second = values.get(y.mask ^ ubit | vbit)
                        if second is not None and lhs >= first + second:
                            ok = True
                            break
                    u ^= ubit
                if not ok:
                    return False
                v ^= vbit
    return True


def check_mnat_exchange(fn: MnatFunction,
                        limit: int = DEFAULT_DOMAIN_LIMIT) -> bool:
    """Exhaustively test the M-natural exchange axiom within the box.

    For all x, y in dom and v with x(v) > y(v), either the single-coordinate
    inequality or some paired exchange inequality must hold.
    """
    domain = fn.enumerate_domain(limit)
    values = {x.entries: fn.value(x) for x in domain}
    for x in domain:
        for y in domain:
            lhs = values[x.entries] + values[y.entries]
            for v in range(fn.dimension):
                if x[v] <= y[v]:
                    continue
                down = fn.value(x.add_unit(v, -1))
                if down.is_finite:
                    up = fn.value(y.add_unit(v, +1))
                    if up.is_finite and lhs >= down + up:
                        continue
                ok = False
                for u in range(fn.dimension):
                    if x[u] >= y[u]:
                        continue
                    first = fn.value(x.add_unit(v, -1).add_unit(u, +1))
                    if not first.is_finite:
                        continue
                    second = fn.value(y.add_unit(v, +1).add_unit(u, -1))
                    if second.is_finite and lhs >= first + second:
                        ok = True
                        break
                if not ok:
                    return False
    return True
