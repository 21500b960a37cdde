"""Cross-validation algorithms: primal-dual, witness formats, walks."""

import hashlib
import random
from fractions import Fraction

import pytest

from vmint.core import ExtValue, GroundSet, InvalidInputError
from vmint.bruteforce import brute_v_eq_k
from vmint.matroid import make_uniform
from vmint.rand_instances import random_ground, random_matroid, random_weights
from vmint.reference import (
    convert_witness,
    lpt_solve_w_eq_k,
    lpt_solve_with_witness,
    lpt_witness_check,
    witness_from_lpt,
)
from vmint.valuated import from_matroid_and_weights
from vmint.viap import Witness, solve_v_eq_k, solve_v_geq_k, verify_witness

from references import alt_solve_v_eq_k


@pytest.fixture
def g3():
    return GroundSet(3, ("a", "b", "c"))


class TestLptSolver:
    def test_examples(self, g3):
        u23 = make_uniform(g3, 2)
        w = [Fraction(1), Fraction(2), Fraction(4)]
        mid = lpt_solve_w_eq_k(u23, u23, w, w, 1)
        assert mid.optimal and mid.value == ExtValue(8)
        full = lpt_solve_w_eq_k(u23, u23, w, w, 2)
        assert full.optimal and full.value == ExtValue(6)
        assert full.x1 == full.x2 == g3.subset([0, 1])

    def test_infeasible_disjoint_supports(self):
        g4 = GroundSet(4, ("a", "b", "c", "d"))
        m1 = make_uniform(g4, 2)
        # Huge weights steer nothing: disjointness is structural here.
        from vmint.matroid import make_partition
        m2 = make_partition(g4, [(g4.subset([0, 1]), 0),
                                 (g4.subset([2, 3]), 2)])
        out = lpt_solve_w_eq_k(m1, m2, [0] * 4, [0] * 4, 3)
        assert out.status == "infeasible"

    def test_matches_viap_and_brute(self):
        # 32 of these solves take the dualized route, 26 of them on a dual
        # matroid with circuit tables; the digest pins each solution's
        # status, sets and value.
        rng = random.Random(314)
        lines = []
        for _ in range(30):
            ground = random_ground(rng, 2, 7)
            m1 = random_matroid(rng, ground)
            m2 = random_matroid(rng, ground)
            w1 = random_weights(rng, ground.size)
            w2 = random_weights(rng, ground.size)
            omega1 = from_matroid_and_weights(m1, w1)
            omega2 = from_matroid_and_weights(m2, w2)
            for k in range(0, min(m1.rank, m2.rank) + 2):
                lpt = lpt_solve_w_eq_k(m1, m2, w1, w2, k)
                via = solve_v_eq_k(omega1, omega2, k)
                brute = brute_v_eq_k(omega1, omega2, k)
                assert lpt.status == via.status == brute.status
                if lpt.optimal:
                    assert lpt.value == via.value == brute.value
                lines.append(f"{lpt.status} {lpt.x1} {lpt.x2} {lpt.value}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        assert (len(lines), digest) == (97, "7d151ce6e7a7eb34")

    def test_own_witness_passes_checker(self, g3):
        u23 = make_uniform(g3, 2)
        w = [Fraction(1), Fraction(2), Fraction(4)]
        run = lpt_solve_with_witness(u23, u23, w, w, 1)
        assert run.solution.optimal and run.witness is not None
        assert lpt_witness_check(
            run.cert_x1, run.cert_x2, run.witness.q1, run.witness.q2,
            run.witness.gap, run.cert_matroid1, run.cert_matroid2,
            run.cert_w1, run.cert_w2)


class TestLptWitnessCheck:
    def test_zero_potentials_accept(self, g3):
        u23 = make_uniform(g3, 2)
        w1 = [Fraction(1), Fraction(2), Fraction(4)]
        w2 = [Fraction(4), Fraction(2), Fraction(1)]
        zeros = (Fraction(0),) * 3
        # Unconstrained minimizers {a,b} and {b,c}: all zero conditions hold.
        assert lpt_witness_check(g3.subset([0, 1]), g3.subset([1, 2]),
                                 zeros, zeros, Fraction(0),
                                 u23, u23, w1, w2)

    def test_gap_mismatch_rejected(self, g3):
        u23 = make_uniform(g3, 2)
        w = [Fraction(0)] * 3
        q1 = (Fraction(1), Fraction(0), Fraction(0))
        zeros = (Fraction(0),) * 3
        assert not lpt_witness_check(g3.subset([0, 1]), g3.subset([0, 1]),
                                     q1, zeros, Fraction(0), u23, u23, w, w)

    def test_sign_violation_is_false_not_error(self, g3):
        u23 = make_uniform(g3, 2)
        w = [Fraction(0)] * 3
        neg = (Fraction(-1), Fraction(-1), Fraction(-1))
        assert not lpt_witness_check(g3.subset([0, 1]), g3.subset([0, 1]),
                                     neg, neg, Fraction(0), u23, u23, w, w)


class TestWitnessConversion:
    def test_zero_round_trip(self):
        zeros = (Fraction(0),) * 3
        q1, q2, gap = convert_witness(zeros, zeros)
        assert q1 == zeros and q2 == zeros and gap == 0
        p1, p2 = witness_from_lpt(q1, q2)
        assert p1 == zeros and p2 == zeros

    def test_solver_witness_round_trips(self):
        rng = random.Random(2718)
        checked = 0
        for _ in range(40):
            ground = random_ground(rng, 2, 6)
            m1 = random_matroid(rng, ground)
            m2 = random_matroid(rng, ground)
            w1 = random_weights(rng, ground.size)
            w2 = random_weights(rng, ground.size)
            omega1 = from_matroid_and_weights(m1, w1)
            omega2 = from_matroid_and_weights(m2, w2)
            k = rng.randint(0, max(0, min(m1.rank, m2.rank)))
            out = solve_v_geq_k(omega1, omega2, k)
            if not out.optimal:
                continue
            witness = out.witness
            q1, q2, gap = convert_witness(witness.p1, witness.p2)
            assert lpt_witness_check(out.x1, out.x2, q1, q2, gap,
                                     m1, m2, w1, w2)
            p1, p2 = witness_from_lpt(q1, q2)
            back = Witness(p1, p2, witness.matched, witness.k)
            assert verify_witness(out.x1, out.x2, back, witness.k,
                                  omega1, omega2)
            checked += 1
        assert checked >= 20

    def test_precondition_enforced(self):
        with pytest.raises(InvalidInputError):
            convert_witness((Fraction(1),), (Fraction(1),))  # min != 0
        with pytest.raises(InvalidInputError):
            convert_witness((Fraction(0),), (Fraction(1),))  # copies differ


class TestAltSolver:
    def test_boundary_hit_returned_directly(self, g3):
        u23 = make_uniform(g3, 2)
        omega1 = from_matroid_and_weights(u23, [1, 2, 4])
        omega2 = from_matroid_and_weights(u23, [4, 2, 1])
        out = alt_solve_v_eq_k(omega1, omega2, 1)
        assert out.optimal and out.value == ExtValue(6)

    def test_walk_through_flat_family(self, g3):
        u23 = make_uniform(g3, 2)
        omega1 = from_matroid_and_weights(u23, [0, 0, 0])
        omega2 = from_matroid_and_weights(u23, [0, 0, 0])
        out = alt_solve_v_eq_k(omega1, omega2, 1)
        assert out.optimal and out.value == ExtValue(0)
        from vmint.core import intersection_cardinality
        assert intersection_cardinality(out.x1, out.x2) == 1

    def test_pigeonhole_infeasible(self, g3):
        u23 = make_uniform(g3, 2)
        omega1 = from_matroid_and_weights(u23, [0, 0, 0])
        omega2 = from_matroid_and_weights(u23, [0, 0, 0])
        assert alt_solve_v_eq_k(omega1, omega2, 0).status == "infeasible"

    def test_matches_primary_solver(self):
        rng = random.Random(1618)
        for _ in range(25):
            ground = random_ground(rng, 2, 6)
            omega1 = from_matroid_and_weights(
                random_matroid(rng, ground), random_weights(rng, ground.size))
            omega2 = from_matroid_and_weights(
                random_matroid(rng, ground), random_weights(rng, ground.size))
            for k in range(0, min(omega1.rank, omega2.rank) + 2):
                alt = alt_solve_v_eq_k(omega1, omega2, k)
                via = solve_v_eq_k(omega1, omega2, k)
                assert alt.status == via.status
                if alt.optimal:
                    assert alt.value == via.value
