"""The exhaustive oracles themselves: determinism and trivial cases."""

import hashlib
import random

import pytest

from vmint.core import ExtValue, GroundSet, ResourceLimitError
from vmint.bruteforce import (
    best_value_per_intersection,
    brute_congestion,
    brute_copic,
    brute_m_geq_k_w,
    brute_v_In,
    brute_v_eq_k,
    brute_v_geq_k,
    brute_v_leq_k,
    brute_v_n_w,
)
from vmint.matroid import make_free, make_partition, make_uniform
from vmint import rand_instances as ri
from vmint.rand_instances import random_mconvex_pair
from vmint.valuated import from_matroid_and_weights
from vmint.apps import mnat_from_valuation

from references import brute_three_matroid_intersection


@pytest.fixture
def g3():
    return GroundSet(3, ("a", "b", "c"))


def test_geq_derived_example(g3):
    u23 = make_uniform(g3, 2)
    omega1 = from_matroid_and_weights(u23, [1, 2, 4])
    omega2 = from_matroid_and_weights(u23, [4, 2, 1])
    assert brute_v_geq_k(omega1, omega2, 2).value == ExtValue(9)


def test_vacuous_k_zero_decouples(g3):
    omega1 = from_matroid_and_weights(make_uniform(g3, 1), [1, 2, 4])
    omega2 = from_matroid_and_weights(make_uniform(g3, 1), [4, 2, 1])
    out = brute_v_geq_k(omega1, omega2, 0)
    assert out.value == ExtValue(2)


def test_unreachable_k_infeasible(g3):
    omega1 = from_matroid_and_weights(make_uniform(g3, 1), [0, 0, 0])
    omega2 = from_matroid_and_weights(make_uniform(g3, 1), [0, 0, 0])
    assert brute_v_geq_k(omega1, omega2, 2).status == "infeasible"


def test_deterministic_tie_break(g3):
    omega1 = from_matroid_and_weights(make_uniform(g3, 1), [0, 0, 0])
    omega2 = from_matroid_and_weights(make_uniform(g3, 1), [0, 0, 0])
    out = brute_v_geq_k(omega1, omega2, 1)
    # All nine pairs tie at 0; the lexicographically first pair wins.
    assert out.sets[0].mask == 0b001 and out.sets[1].mask == 0b001


def test_eq_leq_consistency(g3):
    u23 = make_uniform(g3, 2)
    omega1 = from_matroid_and_weights(u23, [1, 2, 4])
    omega2 = from_matroid_and_weights(u23, [1, 2, 4])
    eme = brute_v_eq_k(omega1, omega2, 1)
    leq = brute_v_leq_k(omega1, omega2, 1)
    assert eme.value == leq.value == ExtValue(8)


def test_m_geq_k_on_unit_boxes_matches_subset_brute(g3):
    u23 = make_uniform(g3, 2)
    omega1 = from_matroid_and_weights(u23, [1, 2, 4])
    omega2 = from_matroid_and_weights(u23, [4, 2, 1])
    f1 = mnat_from_valuation(omega1)
    f2 = mnat_from_valuation(omega2)
    for k in range(0, 4):
        vector_out = brute_m_geq_k_w(f1, f2, k, [0, 0, 0])
        subset_out = brute_v_geq_k(omega1, omega2, k)
        assert vector_out.status == subset_out.status
        if vector_out.optimal:
            assert vector_out.value == subset_out.value


def test_v_in_and_v_n_w_trivial_cases(g3):
    omegas = [from_matroid_and_weights(make_uniform(g3, 1), [2, 1, 3])
              for _ in range(2)]
    free = brute_v_In(omegas, make_free(g3))
    assert free.value == ExtValue(2)
    nw = brute_v_n_w(omegas, [0, 0, 0])
    assert nw.value == ExtValue(2)


def test_three_matroid_intersection(g3):
    free = make_free(g3)
    assert brute_three_matroid_intersection(free, free, free) == g3.full()
    zero = make_uniform(g3, 0)
    assert brute_three_matroid_intersection(free, free, zero) == g3.empty()


def test_three_partition_matroids():
    g4 = GroundSet(4, ("a", "b", "c", "d"))
    # The three pairings block every 2-subset: {a,b} by m1, {a,c} by m2,
    # {a,d} by m3, {b,c} by m3, {b,d} by m2, {c,d} by m1.  Maximum is 1.
    m1 = make_partition(g4, [(g4.subset([0, 1]), 1), (g4.subset([2, 3]), 1)])
    m2 = make_partition(g4, [(g4.subset([0, 2]), 1), (g4.subset([1, 3]), 1)])
    m3 = make_partition(g4, [(g4.subset([0, 3]), 1), (g4.subset([1, 2]), 1)])
    best = brute_three_matroid_intersection(m1, m2, m3)
    assert best.cardinality() == 1
    # Relaxing the third to capacity 2 frees a pair, e.g. {a, d}.
    m3_loose = make_partition(g4, [(g4.full(), 2)])
    best2 = brute_three_matroid_intersection(m1, m2, m3_loose)
    assert best2.cardinality() == 2


def test_limit_enforced(g3):
    omega1 = from_matroid_and_weights(make_uniform(g3, 1), [0, 0, 0])
    omega2 = from_matroid_and_weights(make_uniform(g3, 1), [0, 0, 0])
    with pytest.raises(ResourceLimitError):
        brute_v_geq_k(omega1, omega2, 0, limit=2)


def test_m_geq_k_brute_respects_constraint():
    rng = random.Random(55)
    f1, f2 = random_mconvex_pair(rng, 2)
    k = min(f1.rank_total(), f2.rank_total())
    out = brute_m_geq_k_w(f1, f2, k, [0, 0])
    if out.optimal:
        from vmint.core import componentwise_min
        assert componentwise_min(*out.vectors).total() >= k


def _line(name, out):
    if out.sets is not None:
        points = " ".join(str(x.mask) for x in out.sets)
    elif out.vectors is not None:
        points = " ".join(str(x.entries) for x in out.vectors)
    else:
        points = "-"
    return f"{name} {out.status} {out.value} {points}"


def test_brute_force_outputs_pinned():
    """Every brute force's status, value and sets or vectors over seeded
    draws, pinned by one digest: the oracles' results and tie-breaks."""
    rng = random.Random(20261020)
    lines = []
    for draw in range(40):
        ground = ri.random_ground(rng, 2, 6)
        n = ground.size

        def valuation(max_rank=4):
            # Odd draws take 0/1 weights, so that ties are common.
            matroid = ri.random_matroid(rng, ground, max_rank)
            weights = ([rng.randint(0, 1) for _ in range(n)] if draw % 2
                       else ri.random_weights(rng, n))
            return from_matroid_and_weights(matroid, weights)

        omega1, omega2 = valuation(), valuation()
        k = rng.randint(0, 3)
        for level, entry in enumerate(
                best_value_per_intersection(omega1, omega2)):
            lines.append(f"levels {level} -" if entry is None else
                         f"levels {level} {entry[0]} {entry[1].mask} "
                         f"{entry[2].mask}")
        lines.append(_line("geq", brute_v_geq_k(omega1, omega2, k)))
        lines.append(_line("eq", brute_v_eq_k(omega1, omega2, k)))
        lines.append(_line("leq", brute_v_leq_k(omega1, omega2, k)))
        omegas = [valuation(3) for _ in range(rng.randint(1, 3))]
        lines.append(_line("in", brute_v_In(
            omegas, ri.random_matroid(rng, ground, 3))))
        lines.append(_line("nw", brute_v_n_w(
            omegas, ri.random_weights(rng, n, -5, 10))))
        lines.append(_line("copic", brute_copic(
            ri.random_matroid(rng, ground), ri.random_matroid(rng, ground),
            ri.random_weights(rng, n), ri.random_weights(rng, n),
            ri.random_weights(rng, n))))
        players = [valuation(2) for _ in range(rng.randint(1, 3))]
        lines.append(_line("congestion", brute_congestion(
            players, [ri.random_delay_table(rng, len(players))
                      for _ in range(n)])))
        f1, f2 = random_mconvex_pair(rng, rng.randint(1, 3))
        lines.append(_line("mgeq", brute_m_geq_k_w(
            f1, f2, rng.randint(0, 4), ri.random_weights(rng, f1.dimension,
                                                         -5, 5))))
    statuses = {line.split()[1] for line in lines
                if not line.startswith("levels")}
    assert statuses == {"optimal", "infeasible"}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == "fc33c9f3e34ee48a"
