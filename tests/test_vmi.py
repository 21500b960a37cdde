"""Valuated matroid intersection and the multi-valuation reductions."""

import random
from fractions import Fraction

import pytest

from vmint.core import ExtValue, GroundSet, InvalidInputError
from vmint.bruteforce import brute_v_In, brute_v_n_w
from vmint.matroid import make_free, make_graphic, make_uniform
from vmint.rand_instances import (
    random_ground,
    random_matroid,
    random_modular_valuation,
    random_weights,
)
from vmint.valuated import (
    ConvexTable,
    LaminarSpec,
    disjoint_sum,
    from_matroid_and_weights,
    intersection_constraint_valuation,
)
from vmint.vmi import (
    solve_sum_valuated_plus_laminar,
    solve_v_In,
    solve_v_geq_k_via_dual,
    solve_v_leq_k,
    solve_v_n_w,
    solve_vmi,
)
from vmint.viap import Witness, solve_v_geq_k, verify_solution

from references import valuation_from_explicit, verify_solution_exhaustive


@pytest.fixture
def g3():
    return GroundSet(3, ("a", "b", "c"))


class TestSolveVmi:
    def test_uniform_vs_graphic(self, g3):
        omega1 = from_matroid_and_weights(make_uniform(g3, 2), [1, 2, 4])
        tri = make_graphic(3, [(0, 1), (1, 2), (0, 2)], ("a", "b", "c"))
        omega2 = from_matroid_and_weights(tri, [4, 2, 1])
        out = solve_vmi(omega1, omega2)
        assert out.optimal and out.value == ExtValue(9)
        assert out.x1 == out.x2

    def test_zero_second_oracle(self, g3):
        omega1 = from_matroid_and_weights(make_uniform(g3, 2), [1, 2, 4])
        omega2 = from_matroid_and_weights(make_uniform(g3, 2), [0, 0, 0])
        out = solve_vmi(omega1, omega2)
        assert out.value == ExtValue(3)

    def test_disjoint_domains_infeasible(self, g3):
        omega1 = valuation_from_explicit(g3, 1, {0b001: 0})
        omega2 = valuation_from_explicit(g3, 1, {0b010: 0})
        assert solve_vmi(omega1, omega2).status == "infeasible"

    def test_rank_mismatch_infeasible(self, g3):
        omega1 = from_matroid_and_weights(make_uniform(g3, 2), [1, 2, 4])
        omega2 = from_matroid_and_weights(make_uniform(g3, 1), [1, 2, 4])
        assert solve_vmi(omega1, omega2).status == "infeasible"


class TestSolveVIn:
    def test_free_constraint_decouples(self, g3):
        omegas = [from_matroid_and_weights(make_uniform(g3, 1), [3, 1, 2])
                  for _ in range(3)]
        out = solve_v_In(omegas, make_free(g3))
        assert out.optimal and out.value == ExtValue(3)

    def test_derived_example(self, g3):
        u23 = make_uniform(g3, 2)
        omegas = [from_matroid_and_weights(u23, [1, 2, 4]),
                  from_matroid_and_weights(u23, [1, 2, 4])]
        out = solve_v_In(omegas, make_uniform(g3, 1))
        assert out.optimal and out.value == ExtValue(8)

    def test_pigeonhole_infeasible(self, g3):
        u23 = make_uniform(g3, 2)
        omegas = [from_matroid_and_weights(u23, [1, 2, 4]),
                  from_matroid_and_weights(u23, [4, 2, 1])]
        out = solve_v_In(omegas, make_uniform(g3, 0))
        assert out.status == "infeasible"

    def test_constraint_ranks_match(self, g3):
        omegas = [from_matroid_and_weights(make_uniform(g3, 2), [1, 2, 4]),
                  from_matroid_and_weights(make_uniform(g3, 1), [1, 2, 4])]
        total, _ = disjoint_sum(omegas)
        delta, _ = intersection_constraint_valuation(
            2, make_uniform(g3, 1), total.rank)
        assert delta.rank == total.rank

    def test_random_vs_brute(self):
        rng = random.Random(9090)
        for _ in range(25):
            ground = random_ground(rng, 2, 5)
            n = rng.randint(1, 3)
            omegas = [random_modular_valuation(rng, ground, max_rank=3)[0]
                      for _ in range(n)]
            constraint = random_matroid(rng, ground, max_rank=3)
            fast = solve_v_In(omegas, constraint)
            slow = brute_v_In(omegas, constraint)
            assert fast.status == slow.status
            if fast.optimal:
                assert fast.value == slow.value


class TestSolveVLeqK:
    def test_vacuous_when_k_large(self, g3):
        u23 = make_uniform(g3, 2)
        omega1 = from_matroid_and_weights(u23, [1, 2, 4])
        omega2 = from_matroid_and_weights(u23, [4, 2, 1])
        out = solve_v_leq_k(omega1, omega2, 2)
        assert out.value == ExtValue(6)

    def test_derived_example(self, g3):
        u23 = make_uniform(g3, 2)
        omega1 = from_matroid_and_weights(u23, [1, 2, 4])
        omega2 = from_matroid_and_weights(u23, [1, 2, 4])
        assert solve_v_leq_k(omega1, omega2, 1).value == ExtValue(8)

    def test_pigeonhole_infeasible(self, g3):
        u23 = make_uniform(g3, 2)
        omega1 = from_matroid_and_weights(u23, [1, 2, 4])
        omega2 = from_matroid_and_weights(u23, [1, 2, 4])
        assert solve_v_leq_k(omega1, omega2, 0).status == "infeasible"

    def test_verify_solution_on_the_lifted_pair(self):
        g6 = GroundSet(6)
        u36 = make_uniform(g6, 3)
        omega1 = from_matroid_and_weights(u36, [1, 2, 3, 4, 5, 6])
        omega2 = from_matroid_and_weights(u36, [1, 3, 2, 6, 5, 4])
        out = solve_v_leq_k(omega1, omega2, 1)
        assert out.optimal and out.mode == "leq"
        assert verify_solution(out, omega1, omega2)
        assert verify_solution_exhaustive(out, omega1, omega2)
        witness = out.witness
        p1 = (witness.p1[0] + 1,) + witness.p1[1:]
        out.witness = Witness(p1, witness.p2, witness.matched, witness.k)
        assert not verify_solution(out, omega1, omega2)

    def test_verify_solution_on_random_optima(self):
        rng = random.Random(53)
        verified = 0
        for _ in range(20):
            ground = random_ground(rng, 2, 6)
            omega1, _, _ = random_modular_valuation(rng, ground)
            omega2, _, _ = random_modular_valuation(rng, ground)
            k = rng.randint(0, ground.size)
            out = solve_v_leq_k(omega1, omega2, k)
            if out.optimal:
                assert verify_solution(out, omega1, omega2)
                verified += 1
        assert verified > 0

    def test_dual_route_agrees(self):
        rng = random.Random(111)
        for _ in range(20):
            ground = random_ground(rng, 2, 6)
            omega1, _, _ = random_modular_valuation(rng, ground)
            omega2, _, _ = random_modular_valuation(rng, ground)
            for k in range(0, min(omega1.rank, omega2.rank) + 1):
                direct = solve_v_geq_k(omega1, omega2, k)
                dualized = solve_v_geq_k_via_dual(omega1, omega2, k)
                assert direct.status == dualized.status
                if direct.optimal:
                    assert direct.value == dualized.value


class TestSolveVnW:
    def test_zero_weights_decouple(self, g3):
        omegas = [from_matroid_and_weights(make_uniform(g3, 1), [5, 1, 3]),
                  from_matroid_and_weights(make_uniform(g3, 1), [2, 8, 3])]
        out = solve_v_n_w(omegas, [0, 0, 0])
        assert out.value == ExtValue(3)

    def test_split_beats_penalty(self):
        g2 = GroundSet(2, ("a", "b"))
        omegas = [from_matroid_and_weights(make_uniform(g2, 1), [0, 0]),
                  from_matroid_and_weights(make_uniform(g2, 1), [0, 0])]
        out = solve_v_n_w(omegas, [5, 5])
        assert out.value == ExtValue(0)
        assert out.parts[0] != out.parts[1]

    def test_forced_overlap_pays(self):
        g1 = GroundSet(1, ("a",))
        omegas = [valuation_from_explicit(g1, 1, {0b1: Fraction(2)}),
                  valuation_from_explicit(g1, 1, {0b1: Fraction(3)})]
        out = solve_v_n_w(omegas, [7])
        assert out.value == ExtValue(12)

    def test_negative_weight_rejected(self, g3):
        omegas = [from_matroid_and_weights(make_uniform(g3, 1), [0, 0, 0])]
        with pytest.raises(InvalidInputError):
            solve_v_n_w(omegas, [-1, 0, 0])

    def test_random_vs_brute(self):
        rng = random.Random(2024)
        for _ in range(25):
            ground = random_ground(rng, 2, 5)
            n = rng.randint(1, 3)
            omegas = [random_modular_valuation(rng, ground, max_rank=3)[0]
                      for _ in range(n)]
            weights = [abs(w) for w in random_weights(rng, ground.size)]
            fast = solve_v_n_w(omegas, weights)
            slow = brute_v_n_w(omegas, weights)
            assert fast.status == slow.status == "optimal"
            assert fast.value == slow.value


class TestSumPlusLaminar:
    def test_quadratic_load_split(self):
        g2 = GroundSet(2, ("a", "b"))
        omegas = [from_matroid_and_weights(make_uniform(g2, 1), [0, 0]),
                  from_matroid_and_weights(make_uniform(g2, 1), [0, 0])]
        spec = LaminarSpec(
            g2, (g2.subset([0]), g2.subset([1])),
            (ConvexTable(0, (Fraction(0), Fraction(1), Fraction(4))),
             ConvexTable(0, (Fraction(0), Fraction(1), Fraction(4)))))
        out = solve_sum_valuated_plus_laminar(omegas, spec)
        assert out.value == ExtValue(2)

    def test_empty_spec_decouples(self, g3):
        omegas = [from_matroid_and_weights(make_uniform(g3, 1), [4, 1, 9])]
        spec = LaminarSpec(g3, (), ())
        out = solve_sum_valuated_plus_laminar(omegas, spec)
        assert out.value == ExtValue(1)

    def test_single_player_modular_shift(self):
        g2 = GroundSet(2, ("a", "b"))
        omegas = [from_matroid_and_weights(make_uniform(g2, 1), [5, 5])]
        spec = LaminarSpec(
            g2, (g2.subset([0]), g2.subset([1])),
            (ConvexTable(0, (Fraction(0), Fraction(2))),
             ConvexTable(0, (Fraction(0), Fraction(1)))))
        out = solve_sum_valuated_plus_laminar(omegas, spec)
        assert out.value == ExtValue(6)
