"""Application drivers against their oracles and worked examples."""

import random
from fractions import Fraction

import pytest

from vmint.core import ExtValue, GroundSet, INF, InvalidInputError
from vmint.apps import (
    CongestionInstance,
    IntervalUncertainty,
    check_weak_convexity,
    congestion_total_cost,
    modular_on_domain,
    solve_congestion_social_optimum,
    solve_copic_diagonal,
    solve_recoverable_robust_interval,
    solve_recoverable_robust_interval_mconvex,
    solve_v_c,
    standard_congestion_instance,
)
from vmint.bruteforce import (
    best_value_per_intersection,
    brute_congestion,
    brute_copic,
)
from vmint.matroid import make_uniform
from vmint.rand_instances import (
    random_delay_table,
    random_ground,
    random_interval,
    random_matroid,
    random_rational,
    random_weights,
)
from vmint.valuated import from_matroid_and_weights


@pytest.fixture
def g2():
    return GroundSet(2, ("a", "b"))


@pytest.fixture
def g3():
    return GroundSet(3, ("a", "b", "c"))


class TestRecoverableRobust:
    def test_worked_example(self, g2):
        omega1 = from_matroid_and_weights(make_uniform(g2, 1), [1, 3])
        unc = IntervalUncertainty.of([0, 0], [2, 2])
        out = solve_recoverable_robust_interval(omega1, unc, 1)
        assert out.optimal and out.value == ExtValue(3)
        assert out.x1 == out.x2 == g2.subset([0])

    def test_k_zero_decouples(self, g2):
        omega1 = from_matroid_and_weights(make_uniform(g2, 1), [1, 3])
        unc = IntervalUncertainty.of([0, 0], [2, 5])
        out = solve_recoverable_robust_interval(omega1, unc, 0)
        assert out.value == ExtValue(3)  # 1 + 2, chosen independently

    def test_degenerate_interval(self, g2):
        omega1 = from_matroid_and_weights(make_uniform(g2, 1), [1, 3])
        unc = IntervalUncertainty.of([4, 2], [4, 2])
        out = solve_recoverable_robust_interval(omega1, unc, 0)
        assert out.value == ExtValue(3)

    def test_invalid_interval_rejected(self):
        with pytest.raises(InvalidInputError):
            IntervalUncertainty.of([1], [0])

    def test_upper_bound_attains_adversarial_max(self):
        # Sampled saddle check: for any w inside the box, the inner min is
        # at most the inner min at the upper bound.
        rng = random.Random(97)
        for _ in range(10):
            ground = random_ground(rng, 2, 5)
            matroid = random_matroid(rng, ground)
            omega1 = from_matroid_and_weights(
                matroid, random_weights(rng, ground.size))
            lower, upper = random_interval(rng, ground.size, -10, 10, 4)
            unc = IntervalUncertainty.of(lower, upper)
            k = rng.randint(0, matroid.rank)
            out = solve_recoverable_robust_interval(omega1, unc, k)
            if not out.optimal:
                continue
            at_upper = _inner_min(omega1, upper, out.x1, k)
            assert out.value == omega1.value(out.x1) + at_upper
            for _ in range(20):
                sample = tuple(
                    lo + (up - lo) * Fraction(rng.randint(0, 4), 4)
                    for lo, up in zip(lower, upper))
                assert not _inner_min(omega1, sample, out.x1, k) > at_upper

    def test_mconvex_variant_agrees_on_unit_boxes(self, g2):
        from vmint.apps import mnat_from_valuation
        omega1 = from_matroid_and_weights(make_uniform(g2, 1), [1, 3])
        f1 = mnat_from_valuation(omega1)
        base = mnat_from_valuation(
            from_matroid_and_weights(make_uniform(g2, 1), [0, 0]))
        unc = IntervalUncertainty.of([0, 0], [2, 2])
        out = solve_recoverable_robust_interval_mconvex(f1, base, unc, 1)
        assert out.optimal and out.value == ExtValue(3)


def _inner_min(omega1, weights, x1, k):
    omega2 = modular_on_domain(omega1, weights)
    best = None
    for x2 in omega2.enumerate_domain():
        if x1.intersection(x2).cardinality() < k:
            continue
        value = omega2.value(x2)
        if best is None or value < best:
            best = value
    return best


class TestSweepSolver:
    def test_worked_example(self, g3):
        u23 = make_uniform(g3, 2)
        omega1 = from_matroid_and_weights(u23, [1, 2, 4])
        omega2 = from_matroid_and_weights(u23, [1, 2, 4])
        out = solve_v_c(omega1, omega2,
                        [INF, ExtValue(2), ExtValue(0), INF])
        assert out.optimal and out.value == ExtValue(6) and out.k == 2

    def test_zero_table_gives_unconstrained_min(self, g3):
        u23 = make_uniform(g3, 2)
        omega1 = from_matroid_and_weights(u23, [1, 2, 4])
        omega2 = from_matroid_and_weights(u23, [4, 2, 1])
        out = solve_v_c(omega1, omega2, [ExtValue(0)] * 4)
        assert out.value == ExtValue(6)

    def test_single_finite_entry_pins_k(self, g3):
        u23 = make_uniform(g3, 2)
        omega1 = from_matroid_and_weights(u23, [1, 2, 4])
        omega2 = from_matroid_and_weights(u23, [1, 2, 4])
        out = solve_v_c(omega1, omega2, [INF, ExtValue(0), INF, INF])
        assert out.k == 1 and out.value == ExtValue(8)

    def test_all_infinite_infeasible(self, g3):
        u23 = make_uniform(g3, 2)
        omega1 = from_matroid_and_weights(u23, [1, 2, 4])
        omega2 = from_matroid_and_weights(u23, [1, 2, 4])
        assert solve_v_c(omega1, omega2, [INF] * 4).status == "infeasible"

    def test_matches_per_level_brute(self):
        rng = random.Random(555)
        for _ in range(20):
            ground = random_ground(rng, 2, 6)
            omega1 = from_matroid_and_weights(
                random_matroid(rng, ground), random_weights(rng, ground.size))
            omega2 = from_matroid_and_weights(
                random_matroid(rng, ground), random_weights(rng, ground.size))
            table = []
            for _ in range(ground.size + 1):
                if rng.random() < 0.25:
                    table.append(INF)
                else:
                    table.append(ExtValue(abs(random_rational(rng, 0, 8))))
            out = solve_v_c(omega1, omega2, table)
            best = best_value_per_intersection(omega1, omega2)
            expected = None
            for level, entry in enumerate(best):
                if entry is None or not table[level].is_finite:
                    continue
                candidate = entry[0] + table[level].finite
                if expected is None or candidate < expected:
                    expected = candidate
            if expected is None:
                assert out.status == "infeasible"
            else:
                assert out.optimal and out.value == ExtValue(expected)


class TestCopic:
    def test_worked_examples(self, g2):
        u12 = make_uniform(g2, 1)
        zero = [0, 0]
        plus = solve_copic_diagonal(u12, u12, zero, zero, [5, 5])
        assert plus.value == ExtValue(0)
        minus = solve_copic_diagonal(u12, u12, zero, zero, [-5, -5])
        assert minus.value == ExtValue(-5)
        assert minus.x1 == minus.x2
        trivial = solve_copic_diagonal(u12, u12, [1, 2], [2, 1], [0, 0])
        assert trivial.value == ExtValue(2)

    def test_mixed_signs_rejected(self, g2):
        u12 = make_uniform(g2, 1)
        with pytest.raises(InvalidInputError):
            solve_copic_diagonal(u12, u12, [0, 0], [0, 0], [1, -1])

    def test_matches_brute_both_regimes(self):
        rng = random.Random(808)
        for _ in range(20):
            ground = random_ground(rng, 2, 5)
            m1 = random_matroid(rng, ground, max_rank=3)
            m2 = random_matroid(rng, ground, max_rank=3)
            w1 = random_weights(rng, ground.size)
            w2 = random_weights(rng, ground.size)
            sign = rng.choice([1, -1])
            q = [sign * abs(random_rational(rng, 0, 6))
                 for _ in range(ground.size)]
            fast = solve_copic_diagonal(m1, m2, w1, w2, q)
            slow = brute_copic(m1, m2, w1, w2, q)
            assert fast.status == slow.status
            if fast.optimal:
                assert fast.value == slow.value


class TestWeakConvexity:
    def test_linear_delay(self):
        assert check_weak_convexity([Fraction(0), Fraction(1), Fraction(2)])

    def test_constant_delay(self):
        assert check_weak_convexity([Fraction(3), Fraction(3), Fraction(3)])

    def test_derived_cases(self):
        assert check_weak_convexity(
            [Fraction(0), Fraction(10), Fraction(21, 2)])
        assert not check_weak_convexity(
            [Fraction(0), Fraction(10), Fraction(5)])

    def test_equivalence_with_discrete_convexity(self):
        rng = random.Random(31)
        for _ in range(50):
            table = [abs(random_rational(rng, 0, 6)) for _ in range(4)]
            table.sort()  # delays are nondecreasing
            loads = [x * table[x] for x in range(4)]
            convex = all(loads[x + 1] + loads[x - 1] >= 2 * loads[x]
                         for x in range(1, 3))
            assert check_weak_convexity(table) == convex


class TestCongestion:
    def test_worked_example(self, g2):
        omegas = [from_matroid_and_weights(make_uniform(g2, 1), [0, 0])
                  for _ in range(2)]
        inst = CongestionInstance.of(omegas, [[0, 1, 2], [0, 1, 2]])
        state, total = solve_congestion_social_optimum(inst)
        assert total == ExtValue(2)
        assert state[0] != state[1]

    def test_single_player(self, g2):
        omegas = [from_matroid_and_weights(make_uniform(g2, 1), [4, 9])]
        inst = CongestionInstance.of(omegas, [[0, 1], [0, 1]])
        state, total = solve_congestion_social_optimum(inst)
        assert total == ExtValue(5)

    def test_zero_delays_decouple(self, g2):
        omegas = [from_matroid_and_weights(make_uniform(g2, 1), [4, 9]),
                  from_matroid_and_weights(make_uniform(g2, 1), [1, 2])]
        inst = CongestionInstance.of(omegas, [[0, 0, 0], [0, 0, 0]])
        _, total = solve_congestion_social_optimum(inst)
        assert total == ExtValue(5)

    def test_non_weakly_convex_rejected(self, g2):
        # d = (0, 1, 4, 4) is nondecreasing but x*d(x) = (0, 1, 8, 12)
        # has increments 1, 7, 4, so the load cost is not convex.
        omegas3 = [from_matroid_and_weights(make_uniform(g2, 1), [0, 0])
                   for _ in range(3)]
        failing = CongestionInstance.of(
            omegas3, [[Fraction(0), Fraction(1), Fraction(4), Fraction(4)],
                      [Fraction(0)] * 4])
        with pytest.raises(InvalidInputError):
            solve_congestion_social_optimum(failing)

    def test_matches_brute(self):
        rng = random.Random(115)
        for _ in range(15):
            ground = random_ground(rng, 2, 4)
            players = rng.randint(1, 3)
            omegas = []
            for _ in range(players):
                matroid = random_matroid(rng, ground, max_rank=2)
                weights = [abs(w) for w in random_weights(rng, ground.size)]
                omegas.append(from_matroid_and_weights(matroid, weights))
            delays = [random_delay_table(rng, players)
                      for _ in range(ground.size)]
            inst = CongestionInstance.of(omegas, delays)
            state, total = solve_congestion_social_optimum(inst)
            ref = brute_congestion(omegas, delays)
            assert total == ref.value
            assert congestion_total_cost(inst, state) == total

    def test_standard_model_embedding_totals(self):
        rng = random.Random(116)
        for _ in range(10):
            ground = random_ground(rng, 2, 4)
            players = rng.randint(1, 3)
            matroids = [random_matroid(rng, ground, max_rank=2)
                        for _ in range(players)]
            costs = [random_delay_table(rng, players)
                     for _ in range(ground.size)]
            inst = standard_congestion_instance(matroids, costs)
            # Direct evaluation of the standard model on a random state.
            state = []
            for m in matroids:
                from vmint.matroid import enumerate_bases
                bases = enumerate_bases(m)
                state.append(bases[rng.randrange(len(bases))])
            direct = Fraction(0)
            for i, x in enumerate(state):
                for v in x.members():
                    load = sum(1 for y in state if y.contains(v))
                    direct += costs[v][load]
            assert congestion_total_cost(inst, state) == ExtValue(direct)
