"""Random instance documents for the CLI `generate` subcommand.

Only serializable matroid kinds are emitted (uniform, partition, graphic);
weights come out as exact-rational strings.  The test suites draw their
instances from `rand_instances` directly, not from these documents.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import InvalidInputError
from .instances import PROBLEM_TYPES
from .rand_instances import random_convex_table, random_rational


def _labels(n: int) -> list[str]:
    return [f"e{i}" for i in range(n)]


def _weights(rng: random.Random, n: int, low: int = -10,
             high: int = 10) -> list[str]:
    return [str(random_rational(rng, low, high)) for _ in range(n)]


def _matroid_spec(rng: random.Random, n: int, max_rank: int = 4) -> dict:
    kind = rng.choice(["uniform", "partition", "graphic"])
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
            blocks.append({"members": [f"e{i}" for i in sorted(chosen)],
                           "capacity": rng.randint(0, 2)})
        return {"kind": "partition", "blocks": blocks}
    vertices = rng.randint(2, min(cap + 1, 5))
    edges = []
    for _ in range(n):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices)
        if v == u:
            v = (u + 1) % vertices
        edges.append([u, v])
    return {"kind": "graphic", "vertices": vertices, "edges": edges}


def random_instance_document(problem: str, rng: random.Random) -> dict:
    """A full YAML-serializable instance for the given problem type."""
    if problem not in PROBLEM_TYPES:
        raise InvalidInputError(f"cannot generate problem type {problem!r}")
    n = rng.randint(2, 6)
    doc: dict = {"ground": {"size": n, "labels": _labels(n)}}

    if problem in ("v_geq_k", "v_eq_k", "v_leq_k", "v_c"):
        doc["matroids"] = {"M1": _matroid_spec(rng, n),
                           "M2": _matroid_spec(rng, n)}
        doc["valuations"] = {
            "v1": {"kind": "modular_on_matroid", "matroid": "M1",
                   "weights": _weights(rng, n)},
            "v2": {"kind": "modular_on_matroid", "matroid": "M2",
                   "weights": _weights(rng, n)},
        }
        if problem == "v_c":
            table = [str(random_rational(rng, 0, 10)) for _ in range(n + 1)]
            for i in range(n + 1):
                if rng.random() < 0.2:
                    table[i] = "inf"
            doc["problem"] = {"type": "v_c", "oracles": ["v1", "v2"],
                              "c": table}
        else:
            doc["problem"] = {"type": problem, "oracles": ["v1", "v2"],
                              "k": rng.randint(0, 3)}
        return doc

    if problem in ("v_in", "v_n_w"):
        players = rng.randint(1, 3)
        doc["matroids"] = {f"M{i}": _matroid_spec(rng, n, max_rank=3)
                           for i in range(players)}
        doc["valuations"] = {
            f"v{i}": {"kind": "modular_on_matroid", "matroid": f"M{i}",
                      "weights": _weights(rng, n)}
            for i in range(players)}
        names = [f"v{i}" for i in range(players)]
        if problem == "v_in":
            doc["matroids"]["MI"] = _matroid_spec(rng, n, max_rank=3)
            doc["problem"] = {"type": "v_in", "oracles": names,
                              "constraint": "MI"}
        else:
            doc["problem"] = {"type": "v_n_w", "oracles": names,
                              "w": _weights(rng, n, 0, 10)}
        return doc

    if problem == "m_geq_k_w":
        n = rng.randint(1, 3)
        doc["ground"] = {"size": n, "labels": _labels(n)}
        functions = {}
        ranks = []
        for name in ("f1", "f2"):
            uppers = [rng.randint(1, 3) for _ in range(n)]
            terms = [{"members": [f"e{v}"], "start": 0,
                      "values": [str(value) for value in random_convex_table(
                          rng, 0, uppers[v] + 1).values]}
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
        return doc

    if problem == "w_eq_k_lpt":
        doc["matroids"] = {"M1": _matroid_spec(rng, n),
                           "M2": _matroid_spec(rng, n)}
        doc["problem"] = {"type": "w_eq_k_lpt", "matroids": ["M1", "M2"],
                          "w1": _weights(rng, n), "w2": _weights(rng, n),
                          "k": rng.randint(0, 3)}
        return doc

    if problem == "copic":
        sign = rng.choice([1, -1])
        doc["matroids"] = {"M1": _matroid_spec(rng, n),
                           "M2": _matroid_spec(rng, n)}
        doc["problem"] = {
            "type": "copic", "matroids": ["M1", "M2"],
            "w1": _weights(rng, n), "w2": _weights(rng, n),
            "q": [str(sign * abs(random_rational(rng, 0, 8)))
                  for _ in range(n)],
        }
        return doc

    if problem == "recoverable_robust":
        doc["matroids"] = {"M1": _matroid_spec(rng, n)}
        doc["valuations"] = {"v1": {"kind": "modular_on_matroid",
                                    "matroid": "M1",
                                    "weights": _weights(rng, n)}}
        lower = [random_rational(rng, -5, 5) for _ in range(n)]
        upper = [lo + abs(random_rational(rng, 0, 5)) for lo in lower]
        doc["problem"] = {"type": "recoverable_robust", "oracle": "v1",
                          "lower": [str(v) for v in lower],
                          "upper": [str(v) for v in upper],
                          "k": rng.randint(0, 2)}
        return doc

    # congestion
    players = rng.randint(1, 3)
    doc["matroids"] = {f"M{i}": _matroid_spec(rng, n, max_rank=2)
                       for i in range(players)}
    doc["valuations"] = {
        f"v{i}": {"kind": "modular_on_matroid", "matroid": f"M{i}",
                  "weights": _weights(rng, n, 0, 10)}
        for i in range(players)}
    delays = []
    for _ in range(n):
        # Nondecreasing and weakly convex: d(x) = convex increments >= 0.
        increments = sorted(abs(random_rational(rng, 0, 3))
                            for _ in range(players))
        table = [Fraction(0)]
        for inc in increments:
            table.append(table[-1] + inc)
        delays.append([str(v) for v in table])
    doc["problem"] = {"type": "congestion",
                      "players": [f"v{i}" for i in range(players)],
                      "delays": delays}
    return doc
