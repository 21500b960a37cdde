"""Acceptance suite: one test per criterion, one pass/fail line each.

Every comparison is exact rational equality; no tolerances anywhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

import vmint as vm
from vmint import bruteforce as bf
from vmint import rand_instances as ri
from vmint.apps import modular_on_domain
from vmint.core import ExtValue, GroundSet, InvalidInputError, Subset
from vmint.matroid import ExplicitBaseFamily, check_base_exchange
from vmint.mflow import coupled_objective, flow_objective
from vmint.valuated import TupleGround, ValuationOracle
from vmint.viap import Witness

from references import alt_solve_v_eq_k


def _report(name: str, detail: str) -> None:
    print(f"\n{name}: PASS  ({detail})")


# ---------------------------------------------------------------------------
# Shared run of the criterion-1 instance suite (also feeds criteria 2 and 8)
# ---------------------------------------------------------------------------

@dataclass
class SuiteRecord:
    n: int
    rank: int
    k: int
    calls: int
    checks: int


@dataclass
class SuiteResult:
    solves: int = 0
    optimal_checked: int = 0
    records: list = field(default_factory=list)
    witnessed: list = field(default_factory=list)   # (solution, omega1, omega2)
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def criterion1_suite() -> SuiteResult:
    rng = random.Random(987654321)
    result = SuiteResult()
    started = time.monotonic()
    for _ in range(1000):
        ground = ri.random_ground(rng, 2, 8)
        omega1, _, _ = ri.random_modular_valuation(rng, ground)
        omega2, _, _ = ri.random_modular_valuation(rng, ground)
        best = bf.best_value_per_intersection(omega1, omega2)
        levels = [j for j, entry in enumerate(best) if entry is not None]
        rank = max(omega1.rank, omega2.rank)
        for k in range(0, min(omega1.rank, omega2.rank) + 2):
            omega1.reset_counters()
            omega2.reset_counters()
            geq = vm.solve_v_geq_k(omega1, omega2, k)
            calls = omega1.calls + omega2.calls
            result.records.append(SuiteRecord(ground.size, rank, k, calls, 1))
            expected = min((best[j][0] for j in levels if j >= k),
                           default=None)
            assert (geq.status == "optimal") == (expected is not None)
            if expected is not None:
                assert geq.value == ExtValue(expected)
                assert vm.verify_solution(geq, omega1, omega2)
                result.optimal_checked += 1
                if len(result.witnessed) < 150:
                    result.witnessed.append((geq, omega1, omega2))

            eq = vm.solve_v_eq_k(omega1, omega2, k)
            expected_eq = best[k][0] if k < len(best) and best[k] else None
            assert (eq.status == "optimal") == (expected_eq is not None)
            if expected_eq is not None:
                assert eq.value == ExtValue(expected_eq)
                assert vm.verify_solution(eq, omega1, omega2)
                result.optimal_checked += 1
                if len(result.witnessed) < 150:
                    result.witnessed.append((eq, omega1, omega2))

            leq = vm.solve_v_leq_k(omega1, omega2, k)
            expected_le = min((best[j][0] for j in levels if j <= k),
                              default=None)
            assert (leq.status == "optimal") == (expected_le is not None)
            if expected_le is not None:
                assert leq.value == ExtValue(expected_le)
            result.solves += 3
    result.elapsed = time.monotonic() - started
    return result


def test_criterion_1_oracle_equivalence(criterion1_suite):
    """1000 random instances: viap and vmi agree exactly with brute force."""
    suite = criterion1_suite
    assert suite.solves == 3 * len(suite.records)
    assert suite.elapsed < 120, f"suite took {suite.elapsed:.0f}s"
    _report("CRITERION 1",
            f"{suite.solves} solves on 1000 instances match brute force "
            f"exactly in {suite.elapsed:.1f}s")


def test_criterion_2_witness_soundness(criterion1_suite):
    """Witnesses verify on all optima; any single perturbation breaks them."""
    suite = criterion1_suite
    assert suite.optimal_checked > 0
    rng = random.Random(24)
    perturbed = 0
    while perturbed < 100:
        solution, omega1, omega2 = suite.witnessed[
            rng.randrange(len(suite.witnessed))]
        witness = solution.witness
        n = len(witness.p1)
        index = rng.randrange(2 * n)
        delta = Fraction(rng.randint(1, 12), rng.randint(1, 5))
        if rng.random() < 0.5:
            delta = -delta
        p1, p2 = list(witness.p1), list(witness.p2)
        if index < n:
            p1[index] += delta
        else:
            p2[index - n] += delta
        broken = Witness(tuple(p1), tuple(p2), witness.matched, witness.k)
        tampered = vm.IntersectionSolution(
            "optimal", solution.x1, solution.x2, solution.value, broken,
            solution.k, solution.mode)
        assert not vm.verify_solution(tampered, omega1, omega2)
        perturbed += 1
    _report("CRITERION 2",
            f"{suite.optimal_checked} witnesses verified; "
            f"{perturbed} perturbations all rejected")


def test_criterion_3_constraint_family_is_matroid():
    """The constraint valuation's finite support satisfies base exchange."""
    rng = random.Random(1001)
    started = time.monotonic()
    families = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        size = rng.randint(1, 4)
        ground = GroundSet(size)
        constraint = ri.random_matroid(rng, ground, max_rank=size,
                                       kinds=("uniform", "partition"))
        for r in range(0, n * size + 1):
            delta, tg = vm.intersection_constraint_valuation(n, constraint, r)
            if delta.witness_base is None:
                # Unachievable level: the family really must be empty.
                assert not delta.enumerate_domain()
                continue
            domain = delta.enumerate_domain()
            assert domain
            assert check_base_exchange(
                ExplicitBaseFamily.of(tg.combined, domain))
            families += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"criterion 3 took {elapsed:.0f}s"
    _report("CRITERION 3",
            f"{families} constraint families over 200 instances pass "
            f"base exchange in {elapsed:.1f}s")


def test_criterion_4_penalty_valuation_exchange():
    """Nonnegative penalties give valuated matroids; mixed signs do not."""
    rng = random.Random(4004)
    passed = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        size = rng.randint(1, 4)
        ground = GroundSet(size)
        weights = [abs(ri.random_rational(rng, 0, 10)) for _ in range(size)]
        r = rng.randint(0, n * size)
        omega, _ = vm.laminar_penalty(weights, n, r, ground)
        assert vm.check_valuated_exchange(omega)
        passed += 1
    rejected = 0
    for _ in range(20):
        n = rng.randint(1, 3)
        size = rng.randint(1, 4)
        ground = GroundSet(size)
        weights = [ri.random_rational(rng, -10, 10) for _ in range(size)]
        flip = rng.randrange(size)
        weights[flip] = -abs(weights[flip]) - 1
        with pytest.raises(InvalidInputError):
            vm.laminar_penalty(weights, n, rng.randint(0, n * size), ground)
        rejected += 1
    # And the raw formula with a negative weight genuinely breaks exchange.
    g2 = GroundSet(2, ("a", "b"))
    tg = TupleGround(g2, 2)
    ws = (-4, 0)

    def raw_value(subset):
        inter = tg.common_intersection(subset)
        return sum(ws[v] for v in inter.members())

    raw = ValuationOracle(tg.combined, 2, raw_value, Subset(tg.combined, 0b0011))
    assert not vm.check_valuated_exchange(raw)
    _report("CRITERION 4",
            f"{passed} nonnegative penalties pass exchange; "
            f"{rejected} sign-mixed rejected; raw negative case fails")


def test_criterion_5_reduction_equivalence():
    """Multi-valuation reductions match brute force on 500 instances."""
    rng = random.Random(5005)
    started = time.monotonic()
    checked = 0
    for trial in range(500):
        size = rng.randint(2, 6)
        ground = GroundSet(size)
        n = rng.randint(1, 3)
        omegas = [ri.random_modular_valuation(rng, ground, max_rank=3)[0]
                  for _ in range(n)]
        if trial % 2 == 0:
            constraint = ri.random_matroid(rng, ground, max_rank=3)
            fast = vm.solve_v_In(omegas, constraint)
            slow = bf.brute_v_In(omegas, constraint)
        else:
            weights = [abs(w) for w in ri.random_weights(rng, size)]
            fast = vm.solve_v_n_w(omegas, weights)
            slow = bf.brute_v_n_w(omegas, weights)
        assert fast.status == slow.status
        if fast.optimal:
            assert fast.value == slow.value
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 180, f"criterion 5 took {elapsed:.0f}s"
    _report("CRITERION 5",
            f"{checked} reduction solves match brute force in {elapsed:.1f}s")


def test_criterion_6_coupled_flow_equivalence():
    """The flow route solves the coupled problem exactly, flows round-trip."""
    rng = random.Random(6006)
    started = time.monotonic()
    solved = 0
    for _ in range(300):
        dim = rng.randint(1, 3)
        f1, f2 = ri.random_mconvex_pair(rng, dim, max_entry=3)
        r1, r2 = f1.rank_total(), f2.rank_total()
        k = rng.randint(0, min(r1, r2) + 1)
        weights = [-abs(ri.random_rational(rng, 0, 8)) for _ in range(dim)]
        fast = vm.solve_m_geq_k_w(f1, f2, k, weights)
        slow = bf.brute_m_geq_k_w(f1, f2, k, weights)
        assert fast.status == slow.status
        if fast.optimal:
            assert fast.value == slow.value
        solved += 1
        # Objective preservation and reroute monotonicity on this instance.
        if k <= min(r1, r2):
            inst = vm.build_mgeqk_instance(f1, f2, k, weights)
            x1, x2 = f1.require_witness(), f2.require_witness()
            flow = vm.solution_to_flow(x1, x2, inst)
            from vmint.core import componentwise_min
            if componentwise_min(x1, x2).total() >= k:
                # Feasible pair: its canonical flow has the same objective.
                assert flow_objective(inst.h, inst.network, flow) == \
                    coupled_objective(inst, x1, x2)
            # Spill the identity flow onto both side arcs, then reroute back.
            # The boundary is unchanged, so only the nonpositive identity
            # weights move the objective, and never upward.
            spoiled = list(flow)
            for v in range(dim):
                m = spoiled[inst.identity_arc(v)]
                spoiled[inst.identity_arc(v)] = 0
                spoiled[inst.to_sink_arc(v)] += m
                spoiled[inst.from_source_arc(v)] += m
            x1b, x2b, rerouted = vm.flow_to_solution(spoiled, inst)
            assert (x1b, x2b) == (x1, x2)
            assert rerouted == flow
            # Rerouting keeps the boundary on both element copies (only the
            # terminal surpluses shrink, where the indicator part is zero),
            # and with nonpositive weights the objective cannot increase.
            before_bnd = vm.boundary(spoiled, inst.network)
            after_bnd = vm.boundary(rerouted, inst.network)
            n = inst.n
            copies = list(range(n)) + list(range(n + 1, 2 * n + 1))
            assert all(before_bnd[v] == after_bnd[v] for v in copies)
            before_obj = flow_objective(inst.h_feasibility,
                                        inst.network, spoiled)
            after_obj = flow_objective(inst.h_feasibility,
                                       inst.network, rerouted)
            assert not after_obj > before_obj
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"criterion 6 took {elapsed:.0f}s"
    _report("CRITERION 6",
            f"{solved} coupled solves match brute force in {elapsed:.1f}s")


def test_criterion_7_cross_algorithm_agreement():
    """Three independent equality solvers agree; witnesses interconvert."""
    rng = random.Random(7007)
    agreed = 0
    round_trips = 0
    for _ in range(300):
        ground = ri.random_ground(rng, 2, 7)
        m1 = ri.random_matroid(rng, ground)
        m2 = ri.random_matroid(rng, ground)
        w1 = ri.random_weights(rng, ground.size)
        w2 = ri.random_weights(rng, ground.size)
        omega1 = vm.from_matroid_and_weights(m1, w1)
        omega2 = vm.from_matroid_and_weights(m2, w2)
        k = rng.randint(0, max(0, min(m1.rank, m2.rank) + 1))
        lpt = vm.lpt_solve_w_eq_k(m1, m2, w1, w2, k)
        via = vm.solve_v_eq_k(omega1, omega2, k)
        alt = alt_solve_v_eq_k(omega1, omega2, k)
        brute = bf.brute_v_eq_k(omega1, omega2, k)
        assert lpt.status == via.status == alt.status == brute.status
        if lpt.optimal:
            assert lpt.value == via.value == alt.value == brute.value
            agreed += 1
        geq = vm.solve_v_geq_k(omega1, omega2, k)
        if geq.optimal:
            q1, q2, gap = vm.convert_witness(geq.witness.p1, geq.witness.p2)
            assert vm.lpt_witness_check(geq.x1, geq.x2, q1, q2, gap,
                                        m1, m2, w1, w2)
            p1, p2 = vm.witness_from_lpt(q1, q2)
            back = Witness(p1, p2, geq.witness.matched, geq.witness.k)
            assert vm.verify_witness(geq.x1, geq.x2, back, geq.witness.k,
                                     omega1, omega2)
            round_trips += 1
    assert agreed > 0 and round_trips > 0
    _report("CRITERION 7",
            f"{agreed} optimal values identical across three algorithms; "
            f"{round_trips} witness round-trips passed both checkers")


def test_criterion_8_complexity_soft_bound(criterion1_suite):
    """Oracle calls stay within 50 |V| r (k+1); zero invariant violations."""
    suite = criterion1_suite
    worst = 0.0
    for record in suite.records:
        budget = 50 * record.n * max(record.rank, 1) * (record.k + 1)
        assert record.calls <= budget, \
            f"|V|={record.n} r={record.rank} k={record.k}: " \
            f"{record.calls} calls > {budget}"
        worst = max(worst, record.calls / budget)
    # Invariant checks run inside every augmentation (a violation raises,
    # so reaching this point means zero violations across the suite).
    assert all(record.checks > 0 for record in suite.records)
    _report("CRITERION 8",
            f"{len(suite.records)} runs within budget "
            f"(worst ratio {worst:.2f}); zero invariant violations")


def test_criterion_9_applications():
    """Each application driver matches its oracle on 200 random instances."""
    rng = random.Random(9009)

    # Fixed worked examples first.
    g2 = GroundSet(2, ("a", "b"))
    u12 = vm.make_uniform(g2, 1)
    zeros = [0, 0]
    omegas = [vm.from_matroid_and_weights(u12, zeros) for _ in range(2)]
    inst = vm.CongestionInstance.of(omegas, [[0, 1, 2], [0, 1, 2]])
    _, total = vm.solve_congestion_social_optimum(inst)
    assert total == ExtValue(2)
    assert vm.solve_copic_diagonal(u12, u12, zeros, zeros, [5, 5]).value \
        == ExtValue(0)
    assert vm.solve_copic_diagonal(u12, u12, zeros, zeros, [-5, -5]).value \
        == ExtValue(-5)
    omega_rr = vm.from_matroid_and_weights(u12, [1, 3])
    unc = vm.IntervalUncertainty.of([0, 0], [2, 2])
    assert vm.solve_recoverable_robust_interval(omega_rr, unc, 1).value \
        == ExtValue(3)

    # COPIC, both sign regimes.
    for _ in range(200):
        ground = ri.random_ground(rng, 2, 5)
        m1 = ri.random_matroid(rng, ground, max_rank=3)
        m2 = ri.random_matroid(rng, ground, max_rank=3)
        w1 = ri.random_weights(rng, ground.size)
        w2 = ri.random_weights(rng, ground.size)
        sign = rng.choice([1, -1])
        q = [sign * abs(ri.random_rational(rng, 0, 6))
             for _ in range(ground.size)]
        fast = vm.solve_copic_diagonal(m1, m2, w1, w2, q)
        slow = bf.brute_copic(m1, m2, w1, w2, q)
        assert fast.status == slow.status
        if fast.optimal:
            assert fast.value == slow.value

    # Congestion games.
    for _ in range(200):
        ground = ri.random_ground(rng, 2, 5)
        players = rng.randint(1, 3)
        omegas = []
        for _ in range(players):
            matroid = ri.random_matroid(rng, ground, max_rank=2)
            weights = [abs(w) for w in ri.random_weights(rng, ground.size)]
            omegas.append(vm.from_matroid_and_weights(matroid, weights))
        delays = [ri.random_delay_table(rng, players)
                  for _ in range(ground.size)]
        congestion = vm.CongestionInstance.of(omegas, delays)
        state, total = vm.solve_congestion_social_optimum(congestion)
        ref = bf.brute_congestion(omegas, delays)
        assert total == ref.value

    # Flexible intersection sweep.
    for _ in range(200):
        ground = ri.random_ground(rng, 2, 6)
        omega1, _, _ = ri.random_modular_valuation(rng, ground)
        omega2, _, _ = ri.random_modular_valuation(rng, ground)
        table = []
        for _ in range(ground.size + 1):
            if rng.random() < 0.25:
                table.append(vm.INF)
            else:
                table.append(ExtValue(abs(ri.random_rational(rng, 0, 8))))
        out = vm.solve_v_c(omega1, omega2, table)
        best = bf.best_value_per_intersection(omega1, omega2)
        expected = None
        for level, entry in enumerate(best):
            if entry is None or not table[level].is_finite:
                continue
            candidate = entry[0] + table[level].finite
            if expected is None or candidate < expected:
                expected = candidate
        assert (out.status == "optimal") == (expected is not None)
        if expected is not None:
            assert out.value == ExtValue(expected)

    # Recoverable robustness under interval uncertainty.
    for _ in range(200):
        ground = ri.random_ground(rng, 2, 6)
        matroid = ri.random_matroid(rng, ground)
        omega1 = vm.from_matroid_and_weights(
            matroid, ri.random_weights(rng, ground.size))
        lower, upper = ri.random_interval(rng, ground.size, -10, 10, 4)
        unc = vm.IntervalUncertainty.of(lower, upper)
        k = rng.randint(0, matroid.rank)
        fast = vm.solve_recoverable_robust_interval(omega1, unc, k)
        omega2 = modular_on_domain(omega1, upper)
        slow = bf.brute_v_geq_k(omega1, omega2, k)
        assert fast.status == slow.status
        if fast.optimal:
            assert fast.value == slow.value

    _report("CRITERION 9",
            "copic, congestion, flexible-intersection, and recoverable-"
            "robust drivers match their oracles on 200 instances each")
