"""Exact correctness gates for the benchmark's outputs.

Each gate raises `GateError` when an output is wrong.  The gates rebuild
their oracles from the input spec, so no memo or state is shared with
the op they judge, and compare exact rationals only.

- ladder_modular: the witness must verify, the pair must be feasible and
  carry its value, and that value must match the primal-dual LPT solver
  (`reference.lpt_solve_w_eq_k`); >= k at k = rank is the same problem as
  = k there, since no intersection exceeds the rank.  On the smaller
  sizes the >= k value is also matched against the dual route
  `vmi.solve_v_geq_k_via_dual`, which works on the 2|V| tuple ground and
  costs many solves.
- cli_reductions: status and value must match the `vmint.bruteforce`
  oracle of the problem type (or the separable DP below for
  `m_geq_k_w`), and the reported sets must be feasible with the reported
  value.
- coupled_flow: status and value must match an exact DP over the
  separable structure, and the reported pair must be feasible with the
  reported value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import yaml

import vmint.bruteforce as bruteforce
import vmint.core as core
import vmint.reference as reference
import vmint.valuated as valuated
import vmint.viap as viap
import vmint.vmi as vmi

import inputs

DUAL_CHECK_MAX_N = 20


class GateError(Exception):
    """An output failed its exactness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


# -- ladder_modular ----------------------------------------------------------

def check_ladder(case: inputs.LadderCase, solution) -> None:
    m1, m2, omega1, omega2 = inputs.ladder_oracles(case)
    lpt = reference.lpt_solve_w_eq_k(m1, m2, case.w1, case.w2, case.k)
    require(solution.status == lpt.status,
            f"status {solution.status}, LPT says {lpt.status}")
    if case.mode == "geq" and case.n <= DUAL_CHECK_MAX_N:
        _, _, dual1, dual2 = inputs.ladder_oracles(case)
        dual = vmi.solve_v_geq_k_via_dual(dual1, dual2, case.k)
        require(dual.status == solution.status,
                f"status {solution.status}, dual route says {dual.status}")
        require(not dual.optimal or dual.value == solution.value,
                f"value {solution.value}, dual route says {dual.value}")
    if not solution.optimal:
        return
    require(viap.verify_solution(solution, omega1, omega2),
            "witness does not verify")
    require(m1.is_base(solution.x1) and m2.is_base(solution.x2),
            "reported sets are not bases")
    inter = core.intersection_cardinality(solution.x1, solution.x2)
    require(inter >= case.k if case.mode == "geq" else inter == case.k,
            f"intersection {inter} violates k={case.k} ({case.mode})")
    value = core.dot(case.w1, solution.x1) + core.dot(case.w2, solution.x2)
    require(solution.value == core.ExtValue(value),
            f"reported value {solution.value}, sets are worth {value}")
    require(solution.value == lpt.value,
            f"value {solution.value}, LPT says {lpt.value}")


# -- separable coupled problems (coupled_flow and m_geq_k_w documents) -------

def coupled_optimum(f1: inputs.SeparableFunction,
                    f2: inputs.SeparableFunction, k: int,
                    weights: Sequence[Fraction]) -> Optional[Fraction]:
    """min f1(x1) + f2(x2) + w(min(x1, x2)) s.t. sum min(x1, x2) >= k.

    Dynamic programming over the coordinates; a state is (sum x1, sum x2,
    coupled mass capped at k).  None when infeasible.
    """
    dim = len(f1.upper)
    rest1 = [sum(f1.upper[v:]) for v in range(dim + 1)]
    rest2 = [sum(f2.upper[v:]) for v in range(dim + 1)]
    states = {(0, 0, 0): Fraction(0)}
    for v in range(dim):
        following = {}
        for (s1, s2, mass), cost in states.items():
            for a in range(f1.upper[v] + 1):
                t1 = s1 + a
                if t1 > f1.rank or t1 + rest1[v + 1] < f1.rank:
                    continue
                for b in range(f2.upper[v] + 1):
                    t2 = s2 + b
                    if t2 > f2.rank or t2 + rest2[v + 1] < f2.rank:
                        continue
                    low = min(a, b)
                    key = (t1, t2, min(k, mass + low))
                    total = (cost + f1.tables[v][a] + f2.tables[v][b]
                             + weights[v] * low)
                    if key not in following or total < following[key]:
                        following[key] = total
        states = following
    return states.get((f1.rank, f2.rank, k))


def coupled_value(f1: inputs.SeparableFunction, f2: inputs.SeparableFunction,
                  k: int, weights: Sequence[Fraction],
                  x1: Sequence[int], x2: Sequence[int]) -> Fraction:
    """The objective of a reported pair, after checking it is feasible."""
    for fn, x in ((f1, x1), (f2, x2)):
        require(len(x) == len(fn.upper)
                and all(0 <= xv <= u for xv, u in zip(x, fn.upper))
                and sum(x) == fn.rank, f"point {list(x)} is not in the domain")
    low = [min(a, b) for a, b in zip(x1, x2)]
    require(sum(low) >= k, f"coupled mass {sum(low)} below k={k}")
    return (sum(t[a] for t, a in zip(f1.tables, x1))
            + sum(t[b] for t, b in zip(f2.tables, x2))
            + sum(w * m for w, m in zip(weights, low)))


def check_flow(case: inputs.FlowCase, solution) -> None:
    best = coupled_optimum(case.f1, case.f2, case.k, case.weights)
    if best is None:
        require(solution.status == "infeasible",
                f"status {solution.status}, DP says infeasible")
        return
    require(solution.optimal, f"status {solution.status}, DP says optimal")
    value = coupled_value(case.f1, case.f2, case.k, case.weights,
                          solution.x1.entries, solution.x2.entries)
    require(solution.value == core.ExtValue(value),
            f"reported value {solution.value}, pair is worth {value}")
    require(value == best, f"value {value}, DP says {best}")


# -- cli_reductions ----------------------------------------------------------

class DocOracles:
    """Fresh matroids and modular valuations built from a document."""

    def __init__(self, doc: dict):
        self.ground = inputs.build_ground(doc["ground"]["size"])
        self.matroids = {name: inputs.build_matroid(spec, self.ground)
                         for name, spec in (doc.get("matroids") or {}).items()}
        self.weights = {name: self.rationals(spec["weights"])
                        for name, spec in (doc.get("valuations") or {}).items()}
        self.matroid_of = {name: spec["matroid"] for name, spec
                           in (doc.get("valuations") or {}).items()}

    @staticmethod
    def rationals(values) -> tuple[Fraction, ...]:
        return tuple(Fraction(str(v)) for v in values)

    def valuation(self, name: str):
        return valuated.from_matroid_and_weights(
            self.matroids[self.matroid_of[name]], self.weights[name])

    def based(self, matroid_name: str, labels_) -> core.Subset:
        require(isinstance(labels_, list), "reported set is missing")
        subset = self.ground.subset_of_labels(labels_)
        require(self.matroids[matroid_name].is_base(subset),
                f"{labels_} is not a base of {matroid_name}")
        return subset


def _common(parts: Sequence[core.Subset]) -> core.Subset:
    mask = parts[0].mask
    for part in parts[1:]:
        mask &= part.mask
    return core.Subset(parts[0].ground, mask)


def expected_report(doc: dict) -> tuple[str, Optional[Fraction]]:
    """Status and optimal value of a document, by exhaustive search."""
    problem = doc["problem"]
    ptype = problem["type"]
    if ptype == "m_geq_k_w":
        best = coupled_optimum(
            inputs.doc_separable(doc, "f1"), inputs.doc_separable(doc, "f2"),
            problem["k"], DocOracles.rationals(problem["w"]))
        return ("infeasible", None) if best is None else ("optimal", best)
    oracles = DocOracles(doc)
    if ptype == "v_c":
        omega1, omega2 = (oracles.valuation(n) for n in problem["oracles"])
        costs = [core.ExtValue.parse(str(c)) for c in problem["c"]]
        best = None
        for level, entry in enumerate(
                bruteforce.best_value_per_intersection(omega1, omega2)):
            if entry is not None and costs[level].is_finite:
                total = entry[0] + costs[level].finite
                best = total if best is None else min(best, total)
        return ("infeasible", None) if best is None else ("optimal", best)
    if ptype == "v_leq_k":
        omega1, omega2 = (oracles.valuation(n) for n in problem["oracles"])
        result = bruteforce.brute_v_leq_k(omega1, omega2, problem["k"])
    elif ptype == "v_in":
        result = bruteforce.brute_v_In(
            [oracles.valuation(n) for n in problem["oracles"]],
            oracles.matroids[problem["constraint"]])
    elif ptype == "v_n_w":
        result = bruteforce.brute_v_n_w(
            [oracles.valuation(n) for n in problem["oracles"]],
            oracles.rationals(problem["w"]))
    elif ptype == "congestion":
        result = bruteforce.brute_congestion(
            [oracles.valuation(n) for n in problem["players"]],
            [oracles.rationals(t) for t in problem["delays"]])
    elif ptype == "copic":
        m1, m2 = problem["matroids"]
        result = bruteforce.brute_copic(
            oracles.matroids[m1], oracles.matroids[m2],
            oracles.rationals(problem["w1"]), oracles.rationals(problem["w2"]),
            oracles.rationals(problem["q"]))
    elif ptype == "recoverable_robust":
        matroid = oracles.matroids[oracles.matroid_of[problem["oracle"]]]
        # The adversary always picks the upper weights on the same bases.
        result = bruteforce.brute_v_geq_k(
            oracles.valuation(problem["oracle"]),
            valuated.from_matroid_and_weights(
                matroid, oracles.rationals(problem["upper"])),
            problem["k"])
    else:
        raise GateError(f"no brute-force oracle for {ptype!r}")
    if not result.optimal:
        return "infeasible", None
    return "optimal", result.value.finite


def reported_value(doc: dict, report: dict) -> Fraction:
    """The objective of the reported solution, after checking feasibility."""
    problem = doc["problem"]
    ptype = problem["type"]
    if ptype == "m_geq_k_w":
        return coupled_value(
            inputs.doc_separable(doc, "f1"), inputs.doc_separable(doc, "f2"),
            problem["k"], DocOracles.rationals(problem["w"]),
            report["x1"], report["x2"])
    oracles = DocOracles(doc)

    def worth(name: str, subset: core.Subset) -> Fraction:
        return core.dot(oracles.weights[name], subset)

    if ptype in ("v_leq_k", "v_c"):
        n1, n2 = problem["oracles"]
        x1 = oracles.based(oracles.matroid_of[n1], report["x1"])
        x2 = oracles.based(oracles.matroid_of[n2], report["x2"])
        inter = core.intersection_cardinality(x1, x2)
        total = worth(n1, x1) + worth(n2, x2)
        if ptype == "v_leq_k":
            require(inter <= problem["k"], f"intersection {inter} > k")
            return total
        require(inter == report["k"], "reported level is not |X1 & X2|")
        cost = core.ExtValue.parse(str(problem["c"][inter]))
        require(cost.is_finite, "reported level has infinite cost")
        return total + cost.finite
    if ptype in ("v_in", "v_n_w", "congestion"):
        names = problem["players" if ptype == "congestion" else "oracles"]
        sets = report["state" if ptype == "congestion" else "parts"]
        require(isinstance(sets, list) and len(sets) == len(names),
                "reported tuple has the wrong length")
        parts = [oracles.based(oracles.matroid_of[name], labels_)
                 for name, labels_ in zip(names, sets)]
        total = sum((worth(n, p) for n, p in zip(names, parts)), Fraction(0))
        if ptype == "v_in":
            require(oracles.matroids[problem["constraint"]].is_independent(
                _common(parts)), "common intersection is dependent")
            return total
        if ptype == "v_n_w":
            return total + core.dot(oracles.rationals(problem["w"]),
                                    _common(parts))
        delays = [oracles.rationals(t) for t in problem["delays"]]
        for v in oracles.ground.elements():
            load = sum(1 for p in parts if p.contains(v))
            total += load * delays[v][load]
        return total
    if ptype == "copic":
        m1, m2 = problem["matroids"]
        x1 = oracles.based(m1, report["x1"])
        x2 = oracles.based(m2, report["x2"])
        return (core.dot(oracles.rationals(problem["w1"]), x1)
                + core.dot(oracles.rationals(problem["w2"]), x2)
                + core.dot(oracles.rationals(problem["q"]),
                           x1.intersection(x2)))
    if ptype == "recoverable_robust":
        name = problem["oracle"]
        x1 = oracles.based(oracles.matroid_of[name], report["x1"])
        x2 = oracles.based(oracles.matroid_of[name], report["x2"])
        inter = core.intersection_cardinality(x1, x2)
        require(inter >= problem["k"], f"intersection {inter} < k")
        return worth(name, x1) + core.dot(
            oracles.rationals(problem["upper"]), x2)
    raise GateError(f"no objective for {ptype!r}")


def check_report(doc: dict, code: int, text: str) -> None:
    report = yaml.safe_load(text)
    require(isinstance(report, dict), "report is not a mapping")
    status, value = expected_report(doc)
    require(report.get("status") == status,
            f"status {report.get('status')}, brute force says {status}")
    require(code == (0 if status == "optimal" else 2),
            f"exit code {code} for status {status}")
    if status != "optimal":
        return
    require(Fraction(str(report["value"])) == value,
            f"value {report['value']}, brute force says {value}")
    reported = reported_value(doc, report)
    require(reported == value,
            f"reported solution is worth {reported}, not {value}")
