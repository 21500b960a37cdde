"""Seeded inputs for the benchmark workloads.

Every input is a plain spec (dicts in the YAML instance schema of
`vmint.instances`, tuples of exact rationals) made from one
`random.Random(seed)`, so the same seed always gives the same inputs.
The solver only ever sees what the builders here make from a spec, and
every op builds its oracles afresh, because each user instance pays for
its own memo.

The size mix of each pool is fixed; the seed only draws the contents.
That keeps a run's median comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import yaml

import vmint.core as core
import vmint.matroid as matroid_mod
import vmint.valuated as valuated

# Pools are large enough that a run's figures average over many instances.
LADDER_SIZES = (16, 20, 24, 28, 32)
# Each size is paired with every (M1, M2) kind pair below, on the deep
# >= rank ladder and on the dualized = k route, LADDER_COPIES times.
LADDER_KIND_PAIRS = (("uniform", "partition"), ("partition", "graphic"),
                     ("graphic", "uniform"))
LADDER_COPIES = 2
WEIGHT_DRAWS = 1000
FLOW_DIMS = (6, 7, 8, 9)
FLOW_CASES = 48
CLI_TYPES = ("v_leq_k", "v_in", "v_n_w", "congestion", "copic_pos",
             "copic_neg", "recoverable_robust", "v_c", "m_geq_k_w")
CLI_DOCS_PER_TYPE = 6


def quarters(rng: random.Random, count: int, low: int, high: int,
             distinct: bool = False) -> tuple[Fraction, ...]:
    """`count` rationals in [low, high] with denominators 1, 2 or 4.

    Distinct weights make every unconstrained minimizer unique, so the
    intersection that routes an equality solve is known in advance.
    """
    span = range(low * 4, high * 4 + 1)
    raw = rng.sample(span, count) if distinct else \
        [rng.choice(span) for _ in range(count)]
    return tuple(Fraction(v, 4) for v in raw)


def labels(n: int) -> list[str]:
    return [f"e{i}" for i in range(n)]


# -- matroid specs (the `matroids:` entries of the instance schema) ---------

def partition_spec(rng: random.Random, n: int, block: int,
                   capacity: int) -> dict:
    order = list(range(n))
    rng.shuffle(order)
    blocks = [{"members": [f"e{v}" for v in sorted(order[i:i + block])],
               "capacity": capacity} for i in range(0, n, block)]
    return {"kind": "partition", "blocks": blocks}


def graphic_spec(rng: random.Random, n: int, vertices: int) -> dict:
    """A connected multigraph with n edges, so its rank is vertices - 1."""
    names = list(range(vertices))
    rng.shuffle(names)
    edges = [[names[i], names[rng.randrange(i)]] for i in range(1, vertices)]
    while len(edges) < n:
        u, v = rng.sample(range(vertices), 2)
        edges.append([u, v])
    rng.shuffle(edges)
    return {"kind": "graphic", "vertices": vertices, "edges": edges}


def matroid_spec(rng: random.Random, kind: str, n: int, rank: int) -> dict:
    """A spec of the given kind and rank; partitions use capacity-1 blocks."""
    if kind == "uniform":
        return {"kind": "uniform", "rank": rank}
    if kind == "partition":
        return partition_spec(rng, n, -(-n // rank), 1)
    return graphic_spec(rng, n, rank + 1)


def build_ground(n: int) -> core.GroundSet:
    return core.GroundSet(n, tuple(labels(n)))


def build_matroid(spec: dict, ground: core.GroundSet):
    kind = spec["kind"]
    if kind == "uniform":
        return matroid_mod.make_uniform(ground, spec["rank"])
    if kind == "partition":
        blocks = [(ground.subset_of_labels(b["members"]), b["capacity"])
                  for b in spec["blocks"]]
        return matroid_mod.make_partition(ground, blocks)
    if kind == "graphic":
        return matroid_mod.make_graphic(
            spec["vertices"], [tuple(e) for e in spec["edges"]],
            ground.labels)
    raise ValueError(f"unknown matroid kind {kind!r}")


# -- ladder_modular ----------------------------------------------------------

@dataclass(frozen=True)
class LadderCase:
    n: int
    m1: dict
    m2: dict
    w1: tuple[Fraction, ...]
    w2: tuple[Fraction, ...]
    mode: str            # "geq" (k = rank) or "eq" (k below the start)
    k: int


def ladder_pool(seed: int) -> list[LadderCase]:
    rng = random.Random(seed)
    return [_ladder_case(rng, n, kinds, mode)
            for _ in range(LADDER_COPIES) for mode in ("geq", "eq")
            for kinds in LADDER_KIND_PAIRS for n in LADDER_SIZES]


def _ladder_case(rng: random.Random, n: int, kinds: tuple[str, str],
                 mode: str) -> LadderCase:
    """A case whose work is fixed by its size; the seed draws the rest.

    A solve's work is set by how far greedy descends from the witness
    base to the (unique) minimizer and by how many augmentations follow.
    Weights are redrawn until both distances sit at their typical value,
    half the rank, so that instances of one size cost about the same.
    Matroids on which that is out of reach (a graph with many bridges,
    say) are drawn again.
    """
    rank = n // 2
    half = rank // 2
    while True:
        specs = [partition_spec(rng, n, 4, 2) if kind == "partition"
                 else matroid_spec(rng, kind, n, rank) for kind in kinds]
        ground = build_ground(n)
        m1, m2 = (build_matroid(spec, ground) for spec in specs)
        weights = _weights_at_half(rng, m1, m2, half)
        if weights is not None:
            break
    # k = rank climbs rank - half steps; k = half // 2 lies below the
    # minimizers' intersection, so solve_v_eq_k takes its dualized route.
    k = rank if mode == "geq" else half // 2
    return LadderCase(n, specs[0], specs[1], *weights, mode, k)


def _weights_at_half(rng: random.Random, m1, m2, half: int):
    """Distinct weights (w1, w2) whose minimum bases B1, B2 each differ
    from their matroid's first greedy base (the oracle's witness) in
    `half` elements and meet in `half` elements; None after
    WEIGHT_DRAWS failed draws of either."""
    def draw(matroid):
        weights = quarters(rng, matroid.ground.size, -40, 40, distinct=True)
        return weights, matroid_mod.min_weight_base(matroid, weights)

    start1, start2 = m1.some_base(), m2.some_base()
    for _ in range(WEIGHT_DRAWS):
        w1, b1 = draw(m1)
        if start1.minus(b1).cardinality() == half:
            break
    else:
        return None
    for _ in range(WEIGHT_DRAWS):
        w2, b2 = draw(m2)
        if (start2.minus(b2).cardinality() == half
                and b1.intersection(b2).cardinality() == half):
            return w1, w2
    return None


def ladder_oracles(case: LadderCase):
    ground = build_ground(case.n)
    m1 = build_matroid(case.m1, ground)
    m2 = build_matroid(case.m2, ground)
    return (m1, m2, valuated.from_matroid_and_weights(m1, case.w1),
            valuated.from_matroid_and_weights(m2, case.w2))


# -- coupled_flow ------------------------------------------------------------

@dataclass(frozen=True)
class SeparableFunction:
    """f(x) = sum_v table_v[x_v] on {0 <= x <= upper, sum x = rank}.

    A separable convex function on a hyperplane is M-convex; `witness`
    is an explicit point of its domain, so nothing scans the box.
    """

    upper: tuple[int, ...]
    tables: tuple[tuple[Fraction, ...], ...]
    rank: int

    @property
    def witness(self) -> tuple[int, ...]:
        point, left = [], self.rank
        for u in self.upper:
            point.append(min(u, left))
            left -= point[-1]
        return tuple(point)


@dataclass(frozen=True)
class FlowCase:
    f1: SeparableFunction
    f2: SeparableFunction
    k: int
    weights: tuple[Fraction, ...]


def convex_table(rng: random.Random, length: int) -> tuple[Fraction, ...]:
    steps = sorted(quarters(rng, length - 1, -4, 4))
    values = [quarters(rng, 1, -4, 4)[0]]
    for step in steps:
        values.append(values[-1] + step)
    return tuple(values)


def separable_function(rng: random.Random, dim: int,
                       max_entry: int) -> SeparableFunction:
    """Box bounds cycle through 1..max_entry in a seeded order and the rank
    is half the box, so only the values and the layout vary by seed."""
    upper = [1 + v % max_entry for v in range(dim)]
    rng.shuffle(upper)
    tables = tuple(convex_table(rng, u + 1) for u in upper)
    return SeparableFunction(tuple(upper), tables, sum(upper) // 2)


def flow_pool(seed: int) -> list[FlowCase]:
    rng = random.Random(seed)
    pool = []
    for i in range(FLOW_CASES):
        dim = FLOW_DIMS[i % len(FLOW_DIMS)]
        f1 = separable_function(rng, dim, 3)
        f2 = separable_function(rng, dim, 3)
        k = 4 * min(f1.rank, f2.rank) // 5
        weights = tuple(-w for w in quarters(rng, dim, 0, 4))
        pool.append(FlowCase(f1, f2, k, weights))
    return pool


def build_mnat(fn: SeparableFunction):
    tables, rank, dim = fn.tables, fn.rank, len(fn.upper)

    def value(x: core.IntVector) -> core.ExtValue:
        if x.total() != rank:
            return core.INF
        return core.ExtValue(sum(tables[v][x[v]] for v in range(dim)))

    return valuated.MnatFunction(dim, value, (0,) * dim, fn.upper,
                                 core.IntVector(fn.witness))


# -- cli_reductions ----------------------------------------------------------

@dataclass(frozen=True)
class CliCase:
    kind: str            # an entry of CLI_TYPES
    doc: dict            # the instance document
    path: str            # where set-up wrote it


def modular(name: str, weights) -> dict:
    return {"kind": "modular_on_matroid", "matroid": name,
            "weights": [str(w) for w in weights]}


def _players(rng: random.Random, n: int, count: int, kinds: list[str],
             rank: int, low: int = -10, high: int = 10) -> dict:
    doc = {"ground": {"size": n, "labels": labels(n)},
           "matroids": {}, "valuations": {}}
    for i in range(count):
        kind = kinds[i % len(kinds)]
        doc["matroids"][f"M{i}"] = matroid_spec(rng, kind, n, rank)
        doc["valuations"][f"v{i}"] = modular(
            f"M{i}", quarters(rng, n, low, high, distinct=True))
    return doc


def cli_document(rng: random.Random, kind: str, j: int) -> dict:
    """A document of a CLI problem type in size class j (0, 1 or 2).

    Sizes keep the product of the players' domains small enough for the
    brute-force gate and each request well under a second.
    """
    mixed = ["uniform", "partition", "graphic"][j:] + \
        ["uniform", "partition", "graphic"][:j]
    if kind == "v_leq_k":
        n = (8, 10, 12)[j]
        doc = _players(rng, n, 2, mixed, 3)
        doc["problem"] = {"type": "v_leq_k", "oracles": ["v0", "v1"],
                          "k": rng.randint(0, 2)}
        return doc
    if kind == "v_in":
        count, n, rank = ((2, 12, 3), (3, 8, 2), (2, 10, 3))[j]
        doc = _players(rng, n, count, mixed, rank)
        doc["matroids"]["MI"] = matroid_spec(rng, mixed[1], n, 1 + j % 2)
        doc["problem"] = {"type": "v_in",
                          "oracles": [f"v{i}" for i in range(count)],
                          "constraint": "MI"}
        return doc
    if kind == "v_n_w":
        count, n, rank = ((2, 12, 3), (3, 10, 2), (4, 6, 2))[j]
        doc = _players(rng, n, count, ["partition"], rank)
        doc["problem"] = {"type": "v_n_w",
                          "oracles": [f"v{i}" for i in range(count)],
                          "w": [str(w) for w in quarters(rng, n, 0, 10)]}
        return doc
    if kind == "congestion":
        count, n = ((2, 12), (3, 8), (2, 10))[j]
        doc = _players(rng, n, count, mixed[:2], 2, 0, 10)
        delays = []
        for _ in range(n):
            steps = sorted(quarters(rng, count, 0, 3))
            table = [Fraction(0)]
            for step in steps:
                table.append(table[-1] + step)
            delays.append([str(v) for v in table])
        doc["problem"] = {"type": "congestion",
                          "players": [f"v{i}" for i in range(count)],
                          "delays": delays}
        return doc
    if kind in ("copic_pos", "copic_neg"):
        n = (8, 10, 12)[j] if kind == "copic_pos" else (8, 8, 10)[j]
        sign = 1 if kind == "copic_pos" else -1
        doc = {"ground": {"size": n, "labels": labels(n)},
               "matroids": {"M1": matroid_spec(rng, mixed[0], n, 3),
                            "M2": matroid_spec(rng, mixed[1], n, 3)}}
        doc["problem"] = {
            "type": "copic", "matroids": ["M1", "M2"],
            "w1": [str(w) for w in quarters(rng, n, -10, 10)],
            "w2": [str(w) for w in quarters(rng, n, -10, 10)],
            "q": [str(sign * q) for q in quarters(rng, n, 0, 8)]}
        return doc
    if kind == "recoverable_robust":
        n = (8, 10, 12)[j]
        doc = _players(rng, n, 1, mixed, 3)
        lower = quarters(rng, n, -5, 5)
        upper = [lo + extra for lo, extra in zip(lower, quarters(rng, n, 0, 5))]
        doc["problem"] = {"type": "recoverable_robust", "oracle": "v0",
                          "lower": [str(v) for v in lower],
                          "upper": [str(v) for v in upper],
                          "k": rng.randint(1, 3)}
        return doc
    if kind == "v_c":
        n = (8, 10, 12)[j]
        doc = _players(rng, n, 2, mixed, 3)
        table = [str(c) for c in quarters(rng, n + 1, 0, 10)]
        for i in range(n + 1):
            if rng.random() < 0.2:
                table[i] = "inf"
        doc["problem"] = {"type": "v_c", "oracles": ["v0", "v1"], "c": table}
        return doc
    if kind == "m_geq_k_w":
        dim = (4, 5, 6)[j]
        doc = {"ground": {"size": dim, "labels": labels(dim)}, "mconvex": {}}
        ranks = []
        for name in ("f1", "f2"):
            fn = separable_function(rng, dim, 3)
            ranks.append(fn.rank)
            doc["mconvex"][name] = {
                "kind": "laminar_hyperplane", "rank": fn.rank,
                "box": {"lower": [0] * dim, "upper": list(fn.upper)},
                "terms": [{"members": [f"e{v}"], "start": 0,
                           "values": [str(x) for x in table]}
                          for v, table in enumerate(fn.tables)]}
        doc["problem"] = {"type": "m_geq_k_w", "functions": ["f1", "f2"],
                          "k": rng.randint(0, min(ranks)),
                          "w": [str(-w) for w in quarters(rng, dim, 0, 4)]}
        return doc
    raise ValueError(f"unknown CLI workload type {kind!r}")


def cli_pool(seed: int, workdir: Path) -> list[CliCase]:
    """Write every document of the pool under `workdir`."""
    rng = random.Random(seed)
    pool = []
    for j in range(CLI_DOCS_PER_TYPE):
        for kind in CLI_TYPES:
            doc = cli_document(rng, kind, j % 3)
            path = workdir / f"doc{len(pool):02d}-{kind}.yaml"
            path.write_text(yaml.safe_dump(doc, sort_keys=False),
                            encoding="utf-8")
            pool.append(CliCase(kind, doc, str(path)))
    return pool


def doc_separable(doc: dict, name: str) -> SeparableFunction:
    """The separable function behind a laminar_hyperplane document entry."""
    spec = doc["mconvex"][name]
    tables = tuple(tuple(Fraction(v) for v in term["values"])
                   for term in spec["terms"])
    return SeparableFunction(tuple(spec["box"]["upper"]), tables,
                             spec["rank"])
