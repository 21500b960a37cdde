"""Exact arithmetic, ground sets, subsets, and integer vectors.

Every cost, weight, and potential that this package takes or hands out
is an exact rational (`fractions.Fraction`), extended with a single
+infinity element through :class:`ExtValue`; inside, the oracles and the
augmenting solver keep them as integers over a common denominator (see
:mod:`vmint.valuated` and :mod:`vmint.viap`).  Minus infinity is
deliberately not representable; arithmetic that would produce it raises
instead of silently wrapping.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, Optional, Sequence, Union

RationalLike = Union[int, Fraction, str]


class InvalidInputError(ValueError):
    """A caller violated a documented precondition."""


class ResourceLimitError(RuntimeError):
    """An exhaustive operation would exceed its configured limit."""


class EmptyDomainError(RuntimeError):
    """An oracle has no finite-valued point, so there is nothing to optimize."""


class InternalInvariantError(RuntimeError):
    """An algorithm invariant failed; indicates a bug, not bad input."""


# The largest decimal exponent |e| that a rational string may carry:
# "1e999999999" would otherwise make Fraction compute 10**999999999.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?0*([0-9_]*)$")


def parse_rational(text: RationalLike) -> Fraction:
    """Parse an exact rational from an int, Fraction, or "p/q" string.

    A decimal string may carry an exponent of at most
    `MAX_DECIMAL_EXPONENT` in absolute value."""
    if isinstance(text, bool):
        raise InvalidInputError("booleans are not rationals")
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    if isinstance(text, str):
        text = text.strip()
        exponent = _EXPONENT.search(text)
        if exponent is not None:
            digits = exponent.group(1).replace("_", "")
            if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                    or int(digits or 0) > MAX_DECIMAL_EXPONENT):
                raise InvalidInputError(
                    f"exponent of {text[:40]!r} exceeds "
                    f"{MAX_DECIMAL_EXPONENT} in absolute value")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"not a rational: {text!r}") from exc
    raise InvalidInputError(f"not a rational: {text!r}")


class ExtValue:
    """An exact rational extended with +infinity.

    +infinity absorbs under addition and compares greater than every
    rational.  Subtracting infinity (or anything that would yield
    -infinity) raises :class:`ArithmeticError`.
    """

    __slots__ = ("_num",)

    def __init__(self, value: Optional[RationalLike]):
        if value is None or type(value) is Fraction:
            self._num: Optional[Fraction] = value
        else:
            self._num = parse_rational(value)

    @staticmethod
    def infinity() -> "ExtValue":
        return ExtValue(None)

    @staticmethod
    def parse(text: str) -> "ExtValue":
        if text.strip() in ("inf", "+inf", "infinity"):
            return ExtValue(None)
        return ExtValue(parse_rational(text))

    @property
    def is_finite(self) -> bool:
        return self._num is not None

    @property
    def finite(self) -> Fraction:
        if self._num is None:
            raise ArithmeticError("value is +infinity")
        return self._num

    def _coerce(self, other: object) -> "ExtValue":
        if isinstance(other, ExtValue):
            return other
        if isinstance(other, (int, Fraction)):
            return ExtValue(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> "ExtValue":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        if self._num is None or rhs._num is None:
            return INF
        return ExtValue(self._num + rhs._num)

    __radd__ = __add__

    def __sub__(self, other: object) -> "ExtValue":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        if rhs._num is None:
            raise ArithmeticError("cannot subtract +infinity")
        if self._num is None:
            return INF
        return ExtValue(self._num - rhs._num)

    def __neg__(self) -> "ExtValue":
        if self._num is None:
            raise ArithmeticError("-infinity is not representable")
        return ExtValue(-self._num)

    def __mul__(self, other: object) -> "ExtValue":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        if self._num is None or rhs._num is None:
            raise ArithmeticError("multiplication with +infinity is undefined")
        return ExtValue(self._num * rhs._num)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self._num == rhs._num

    def __hash__(self) -> int:
        return hash(self._num)

    def __lt__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        if self._num is None:
            return False
        if rhs._num is None:
            return True
        return self._num < rhs._num

    def __le__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self == rhs or self < rhs

    def __gt__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return rhs < self

    def __ge__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return rhs <= self

    def __repr__(self) -> str:
        return f"ExtValue({str(self)})"

    def __str__(self) -> str:
        return "inf" if self._num is None else str(self._num)


INF = ExtValue.infinity()
ZERO = ExtValue(0)


def mask_of(indices: Iterable[int], size: int) -> int:
    """The mask of indices below `size`, in time linear in `size` and the
    number of indices (an OR per index copies the growing mask); a
    `range` is one shift."""
    if isinstance(indices, range) and indices.step == 1:
        return ((1 << len(indices)) - 1) << indices.start if indices else 0
    data = bytearray((size + 7) // 8)
    for i in indices:
        data[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(data, "little")


_DIGIT_TO_BIT = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class GroundSet:
    """A finite ground set of `size` elements, optionally labelled."""

    size: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.size < 1:
            raise InvalidInputError("ground set must have at least one element")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise InvalidInputError("label count must equal ground set size")
            if len(self.label_index) != self.size:
                raise InvalidInputError("labels must be unique")

    @functools.cached_property
    def label_index(self) -> dict[str, int]:
        """Each element's label, as `label` writes it, mapped to the element;
        built once per ground set."""
        labels = self.labels
        if labels is None:
            labels = (f"e{i}" for i in range(self.size))
        return dict(zip(labels, range(self.size)))

    def elements(self) -> range:
        return range(self.size)

    def label(self, index: int) -> str:
        if self.labels is not None:
            return self.labels[index]
        return f"e{index}"

    def index_of(self, label: str) -> int:
        if self.labels is None:
            raise InvalidInputError("ground set has no labels")
        try:
            return self.label_index[label]
        except KeyError as exc:
            raise InvalidInputError(f"unknown element label: {label!r}") from exc

    def empty(self) -> "Subset":
        return Subset(self, 0)

    def full(self) -> "Subset":
        return Subset(self, (1 << self.size) - 1)

    def subset(self, indices: Iterable[int]) -> "Subset":
        indices = list(indices)
        for i in indices:
            if not 0 <= i < self.size:
                raise InvalidInputError(f"element index {i} out of range")
        return Subset(self, mask_of(indices, self.size))

    def subset_of_labels(self, labels: Iterable[str]) -> "Subset":
        return self.subset(self.index_of(lbl) for lbl in labels)

    def all_subsets(self) -> Iterator["Subset"]:
        for mask in range(1 << self.size):
            yield Subset(self, mask)

    def subsets_of_size(self, r: int) -> Iterator["Subset"]:
        # Gosper's hack enumerates r-bit masks in increasing mask order.
        if r < 0 or r > self.size:
            return
        if r == 0:
            yield Subset(self, 0)
            return
        mask = (1 << r) - 1
        limit = 1 << self.size
        while mask < limit:
            yield Subset(self, mask)
            low = mask & -mask
            ripple = mask + low
            mask = ripple | (((mask ^ ripple) >> 2) // low)


@dataclass(frozen=True)
class Subset:
    """A subset of a ground set stored as a bit mask (bit i <=> element i)."""

    ground: GroundSet
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask.bit_length() > self.ground.size:
            raise InvalidInputError("subset mask out of range for ground set")

    def cardinality(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.cardinality()

    def contains(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def __contains__(self, index: int) -> bool:
        return self.contains(index)

    def members(self) -> tuple[int, ...]:
        # Clearing one member's bit at a time copies the mask per member;
        # one scan of the binary digits visits every bit.  A mask of at
        # most 64 members takes the first, any other the second, so
        # either costs time linear in |V|.
        mask = self.mask
        if mask.bit_count() <= 64:
            found = []
            while mask:
                low = mask & -mask
                found.append(low.bit_length() - 1)
                mask ^= low
            return tuple(found)
        digits = bin(mask)[:1:-1].encode().translate(_DIGIT_TO_BIT)
        return tuple(compress(range(len(digits)), digits))

    def member_labels(self) -> tuple[str, ...]:
        return tuple(self.ground.label(i) for i in self.members())

    def add(self, index: int) -> "Subset":
        return Subset(self.ground, self.mask | (1 << index))

    def remove(self, index: int) -> "Subset":
        return Subset(self.ground, self.mask & ~(1 << index))

    def intersection(self, other: "Subset") -> "Subset":
        self._check_ground(other)
        return Subset(self.ground, self.mask & other.mask)

    def minus(self, other: "Subset") -> "Subset":
        self._check_ground(other)
        return Subset(self.ground, self.mask & ~other.mask)

    def complement(self) -> "Subset":
        return Subset(self.ground, ~self.mask & ((1 << self.ground.size) - 1))

    def is_subset_of(self, other: "Subset") -> bool:
        self._check_ground(other)
        return self.mask & ~other.mask == 0

    def exchange(self, out_index: int, in_index: int) -> "Subset":
        return Subset(self.ground, self.mask & ~(1 << out_index) | (1 << in_index))

    def sort_key(self) -> tuple[int, ...]:
        """Key realizing 'lexicographically smallest member tuple' order."""
        return self.members()

    def _check_ground(self, other: "Subset") -> None:
        if other.ground is not self.ground and other.ground != self.ground:
            raise InvalidInputError("subsets live on different ground sets")

    def __str__(self) -> str:
        return "{" + ",".join(self.member_labels()) + "}"


@dataclass(frozen=True)
class IntVector:
    """An integer vector with one entry per element of a ground set."""

    entries: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def total(self) -> int:
        return sum(self.entries)

    def add_unit(self, i: int, delta: int = 1) -> "IntVector":
        lst = list(self.entries)
        lst[i] += delta
        return IntVector(tuple(lst))

    def __add__(self, other: "IntVector") -> "IntVector":
        self._check_len(other)
        return IntVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntVector") -> "IntVector":
        self._check_len(other)
        return IntVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntVector":
        return IntVector(tuple(-a for a in self.entries))

    def _check_len(self, other: "IntVector") -> None:
        if len(other.entries) != len(self.entries):
            raise InvalidInputError("vector length mismatch")

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.entries) + ")"


def componentwise_min(x: IntVector, y: IntVector) -> IntVector:
    """Entrywise minimum of two vectors over the same ground set."""
    if len(x) != len(y):
        raise InvalidInputError("vector length mismatch")
    return IntVector(tuple(min(a, b) for a, b in zip(x, y)))


def subset_to_vector(subset: Subset) -> IntVector:
    """The 0/1 incidence vector of a subset."""
    return IntVector(tuple(1 if subset.mask >> i & 1 else 0
                           for i in subset.ground.elements()))


def vector_to_subset(ground: GroundSet, x: IntVector) -> Subset:
    """Inverse of :func:`subset_to_vector`; entries must be 0 or 1."""
    if len(x) != ground.size:
        raise InvalidInputError("vector length mismatch")
    mask = 0
    for i, v in enumerate(x):
        if v not in (0, 1):
            raise InvalidInputError("vector is not 0/1")
        mask |= v << i
    return Subset(ground, mask)


def intersection_cardinality(x: Subset, y: Subset) -> int:
    """|X intersect Y| for two subsets of the same ground set."""
    return x.intersection(y).mask.bit_count()


def scaled_weights(weights: Sequence[RationalLike]
                   ) -> tuple[tuple[int, ...], int]:
    """The weights times the lcm D of their denominators, and D."""
    ws = [w if isinstance(w, (int, Fraction)) else Fraction(w) for w in weights]
    scale = math.lcm(*(w.denominator for w in ws))
    return tuple(w.numerator * (scale // w.denominator) for w in ws), scale


def dot(weights: Sequence[Fraction], subset: Subset) -> Fraction:
    """Sum of weights over the members of a subset."""
    total = Fraction(0)
    mask = subset.mask
    i = 0
    while mask:
        if mask & 1:
            total += weights[i]
        mask >>= 1
        i += 1
    return total
