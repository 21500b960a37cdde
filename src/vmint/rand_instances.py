"""Seeded random instances: one source for the suites' oracles and for the
documents of `vmint generate`, drawn from the same helpers.

All randomness flows through an explicit `random.Random`, so identical
seeds reproduce identical instances.  A matroid is drawn once, as the YAML
spec of :func:`random_matroid_spec`: the suites build it into an oracle
with :func:`instances.build_matroid`, the parser of `vmint solve`, and
:func:`random_instance_document` writes it into a document.  Weights are
exact rationals with small denominators inside [-10, 10].
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional, Sequence

from .core import GroundSet, InvalidInputError
from .instances import build_matroid
from .matroid import MatroidOracle, make_uniform
from .valuated import (
    ConvexTable,
    LaminarSpec,
    MnatFunction,
    ValuationOracle,
    from_matroid_and_weights,
    laminar_convex_function,
)

MATROID_KINDS = ("uniform", "partition", "graphic", "linear")


def random_rational(rng: random.Random, low: int = -10, high: int = 10,
                    denominators: Sequence[int] = (1, 1, 2, 4)) -> Fraction:
    d = rng.choice(denominators)
    return Fraction(rng.randint(low * d, high * d), d)


def random_weights(rng: random.Random, size: int, low: int = -10,
                   high: int = 10) -> tuple[Fraction, ...]:
    return tuple(random_rational(rng, low, high) for _ in range(size))


def random_matroid_spec(rng: random.Random, n: int, max_rank: int = 4,
                        kinds: Sequence[str] = MATROID_KINDS,
                        labels: Optional[Sequence[str]] = None) -> dict:
    """The `matroids` spec of a random matroid on n elements.

    Its rank is at most min(max_rank, n), except that a partition matroid
    may exceed it.  When that cap is 0, a graphic spec is a graph of
    self-loops and a linear spec has zero columns.  Partition members are
    written as `labels[i]`, or as the indices i when `labels` is None.
    """
    kind = rng.choice(list(kinds))
    cap = min(max_rank, n)
    if kind == "uniform":
        return {"kind": "uniform", "rank": rng.randint(0, cap)}
    if kind == "partition":
        remaining = list(range(n))
        rng.shuffle(remaining)
        blocks = []
        while remaining:
            take = rng.randint(1, len(remaining))
            chosen, remaining = remaining[:take], remaining[take:]
            blocks.append({"members": [i if labels is None else labels[i]
                                       for i in sorted(chosen)],
                           "capacity": rng.randint(0, 2)})
        return {"kind": "partition", "blocks": blocks}
    if kind == "graphic":
        if cap == 0:
            return {"kind": "graphic", "vertices": 1,
                    "edges": [[0, 0] for _ in range(n)]}
        vertices = rng.randint(2, min(cap + 1, 5))
        edges = []
        for _ in range(n):
            u = rng.randrange(vertices)
            v = rng.randrange(vertices)
            edges.append([u, v if v != u else (u + 1) % vertices])
        return {"kind": "graphic", "vertices": vertices, "edges": edges}
    # Linear matroid over the rationals with a short random matrix.
    if cap == 0:
        return {"kind": "linear", "columns": [[0] for _ in range(n)]}
    height = rng.randint(1, cap)
    return {"kind": "linear",
            "columns": [[rng.randint(-2, 2) for _ in range(height)]
                        for _ in range(n)]}


def random_matroid(rng: random.Random, ground: GroundSet,
                   max_rank: int = 4,
                   kinds: Sequence[str] = MATROID_KINDS) -> MatroidOracle:
    """The oracle of a :func:`random_matroid_spec`, built as `vmint solve`
    builds it; a rank above min(max_rank, |V|) is redrawn as uniform."""
    spec = random_matroid_spec(rng, ground.size, max_rank, kinds)
    matroid = build_matroid(ground, spec, "matroid")
    cap = min(max_rank, ground.size)
    if matroid.rank > cap:
        return make_uniform(ground, rng.randint(0, cap))
    return matroid


def random_modular_valuation(rng: random.Random, ground: GroundSet,
                             max_rank: int = 4,
                             kinds: Sequence[str] = MATROID_KINDS,
                             ) -> tuple[ValuationOracle, MatroidOracle,
                                        tuple[Fraction, ...]]:
    matroid = random_matroid(rng, ground, max_rank, kinds)
    weights = random_weights(rng, ground.size)
    return from_matroid_and_weights(matroid, weights), matroid, weights


def random_ground(rng: random.Random, min_n: int = 2, max_n: int = 8,
                  labelled: bool = True) -> GroundSet:
    n = rng.randint(min_n, max_n)
    labels = tuple(f"e{i}" for i in range(n)) if labelled else None
    return GroundSet(n, labels)


def random_delay_table(rng: random.Random, players: int) -> list[Fraction]:
    """A congestion delay on loads 0..players, nondecreasing and weakly
    convex: sorted nonnegative steps summed from 0."""
    steps = sorted(abs(random_rational(rng, 0, 3)) for _ in range(players))
    return list(itertools.accumulate(steps, initial=Fraction(0)))


def random_interval(rng: random.Random, n: int, low: int, high: int,
                    width: int) -> tuple[tuple[Fraction, ...],
                                         tuple[Fraction, ...]]:
    """Lower bounds in [low, high], then upper bounds at most `width`
    above them."""
    lower = random_weights(rng, n, low, high)
    return lower, tuple(lo + abs(random_rational(rng, 0, width))
                        for lo in lower)


def random_convex_table(rng: random.Random, start: int, length: int,
                        slope_low: int = -4, slope_high: int = 4,
                        ) -> ConvexTable:
    """A convex table built from sorted increments."""
    increments = sorted(random_rational(rng, slope_low, slope_high)
                        for _ in range(length - 1))
    values = [random_rational(rng, -5, 5)]
    for inc in increments:
        values.append(values[-1] + inc)
    return ConvexTable(start, tuple(values))


def random_mconvex_function(rng: random.Random, dimension: int,
                            max_entry: int = 3,
                            rank: Optional[int] = None) -> MnatFunction:
    """A random M-convex function: a laminar (singleton) convex sum
    restricted to a random achievable coordinate-sum hyperplane."""
    ground = GroundSet(dimension)
    tables = tuple(random_convex_table(rng, 0, rng.randint(1, max_entry) + 1)
                   for _ in range(dimension))
    spec = LaminarSpec(ground, tuple(ground.subset([v])
                                     for v in range(dimension)), tables)
    if rank is None:
        rank = rng.randint(0, sum(t.end for t in tables))
    return laminar_convex_function(spec, total=rank)


def random_mconvex_pair(rng: random.Random, dimension: int,
                        max_entry: int = 3,
                        ) -> tuple[MnatFunction, MnatFunction]:
    """Two M-convex functions on a common ground set whose boxes keep the
    brute-force pair enumeration at desk scale."""
    while True:
        f1 = random_mconvex_function(rng, dimension, max_entry)
        f2 = random_mconvex_function(rng, dimension, max_entry)
        if f1.box_volume() * f2.box_volume() <= 10_000:
            return f1, f2


def _strings(values) -> list[str]:
    return [str(v) for v in values]


def random_instance_document(problem: str, rng: random.Random) -> dict:
    """A YAML-serializable instance of the given problem type on the
    labels e0, e1, ...; its matroids are uniform, partition or graphic."""
    n = rng.randint(2, 6)
    labels = [f"e{i}" for i in range(n)]
    doc: dict = {"ground": {"size": n, "labels": labels}}

    def matroid(max_rank: int = 4) -> dict:
        return random_matroid_spec(rng, n, max_rank,
                                   ("uniform", "partition", "graphic"), labels)

    def weights(low: int = -10, high: int = 10) -> list[str]:
        return _strings(random_weights(rng, n, low, high))

    def modular(indices, max_rank: int = 4, low: int = -10,
                high: int = 10) -> list[str]:
        """Matroids M<i> and modular valuations v<i> on them."""
        doc["matroids"] = {f"M{i}": matroid(max_rank) for i in indices}
        doc["valuations"] = {
            f"v{i}": {"kind": "modular_on_matroid", "matroid": f"M{i}",
                      "weights": weights(low, high)} for i in indices}
        return [f"v{i}" for i in indices]

    if problem in ("v_geq_k", "v_eq_k", "v_leq_k", "v_c"):
        names = modular((1, 2))
        if problem == "v_c":
            table = [str(random_rational(rng, 0, 10)) for _ in range(n + 1)]
            for i in range(n + 1):
                if rng.random() < 0.2:
                    table[i] = "inf"
            doc["problem"] = {"type": "v_c", "oracles": names, "c": table}
        else:
            doc["problem"] = {"type": problem, "oracles": names,
                              "k": rng.randint(0, 3)}
    elif problem in ("v_in", "v_n_w"):
        names = modular(range(rng.randint(1, 3)), max_rank=3)
        if problem == "v_in":
            doc["matroids"]["MI"] = matroid(3)
            doc["problem"] = {"type": "v_in", "oracles": names,
                              "constraint": "MI"}
        else:
            doc["problem"] = {"type": "v_n_w", "oracles": names,
                              "w": weights(0, 10)}
    elif problem == "m_geq_k_w":
        n = rng.randint(1, 3)
        doc["ground"] = {"size": n, "labels": [f"e{i}" for i in range(n)]}
        functions = {}
        ranks = []
        for name in ("f1", "f2"):
            uppers = [rng.randint(1, 3) for _ in range(n)]
            terms = [{"members": [f"e{v}"], "start": 0,
                      "values": _strings(random_convex_table(
                          rng, 0, uppers[v] + 1).values)}
                     for v in range(n)]
            rank = rng.randint(0, sum(uppers))
            ranks.append(rank)
            functions[name] = {"kind": "laminar_hyperplane", "rank": rank,
                               "terms": terms}
        doc["mconvex"] = functions
        doc["problem"] = {
            "type": "m_geq_k_w", "functions": ["f1", "f2"],
            "k": rng.randint(0, max(0, min(ranks))),
            "w": [str(-abs(random_rational(rng, 0, 5))) for _ in range(n)],
        }
    elif problem == "w_eq_k_lpt":
        doc["matroids"] = {"M1": matroid(), "M2": matroid()}
        doc["problem"] = {"type": "w_eq_k_lpt", "matroids": ["M1", "M2"],
                          "w1": weights(), "w2": weights(),
                          "k": rng.randint(0, 3)}
    elif problem == "copic":
        sign = rng.choice([1, -1])
        doc["matroids"] = {"M1": matroid(), "M2": matroid()}
        doc["problem"] = {
            "type": "copic", "matroids": ["M1", "M2"],
            "w1": weights(), "w2": weights(),
            "q": [str(sign * abs(random_rational(rng, 0, 8)))
                  for _ in range(n)],
        }
    elif problem == "recoverable_robust":
        modular((1,))
        lower, upper = random_interval(rng, n, -5, 5, 5)
        doc["problem"] = {"type": "recoverable_robust", "oracle": "v1",
                          "lower": _strings(lower), "upper": _strings(upper),
                          "k": rng.randint(0, 2)}
    elif problem == "congestion":
        players = modular(range(rng.randint(1, 3)), max_rank=2, low=0,
                          high=10)
        doc["problem"] = {
            "type": "congestion", "players": players,
            "delays": [_strings(random_delay_table(rng, len(players)))
                       for _ in range(n)]}
    else:
        raise InvalidInputError(f"cannot generate problem type {problem!r}")
    return doc
