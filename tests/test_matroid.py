"""Matroid constructions, duality, and the axiom checkers."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vmint.core import GroundSet, InvalidInputError, ResourceLimitError, Subset
from vmint.matroid import (
    CLOSURE_TABLE_SIZE,
    ExplicitBaseFamily,
    check_base_exchange,
    dual_matroid,
    enumerate_bases,
    from_explicit_bases,
    make_graphic,
    make_linear,
    make_partition,
    make_uniform,
    min_weight_base,
)
from vmint.rand_instances import (
    MATROID_KINDS,
    random_matroid,
    random_matroid_spec,
)

from references import (
    check_base_exchange_pairwise,
    check_independence_axioms,
)


@pytest.fixture
def g3():
    return GroundSet(3, ("a", "b", "c"))


@st.composite
def structured_matroids(draw):
    """Uniform, partition and graphic matroids on up to 7 elements; the
    graphs are multigraphs with parallel edges and self-loops."""
    n = draw(st.integers(1, 7))
    ground = GroundSet(n)
    kind = draw(st.sampled_from(("uniform", "partition", "graphic")))
    if kind == "uniform":
        return make_uniform(ground, draw(st.integers(0, n)))
    if kind == "partition":
        block_of = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        return make_partition(ground, [
            (ground.subset(v for v in range(n) if block_of[v] == b),
             draw(st.integers(0, 3)))
            for b in sorted(set(block_of))])
    vertices = draw(st.integers(1, 5))
    ends = st.integers(0, vertices - 1)
    return make_graphic(vertices, draw(st.lists(st.tuples(ends, ends),
                                                min_size=n, max_size=n)))


class TestConstructions:
    def test_uniform(self, g3):
        u = make_uniform(g3, 2)
        assert u.is_independent(g3.subset([0, 1]))
        assert not u.is_independent(g3.full())
        zero = make_uniform(g3, 0)
        assert enumerate_bases(zero) == [g3.empty()]
        with pytest.raises(InvalidInputError):
            make_uniform(g3, 4)

    def test_partition(self, g3):
        blocks = [(g3.subset([0, 1]), 1), (g3.subset([2]), 1)]
        m = make_partition(g3, blocks)
        assert m.is_independent(g3.subset([0, 2]))
        assert not m.is_independent(g3.subset([0, 1]))
        zero = make_partition(g3, [(g3.full(), 0)])
        assert enumerate_bases(zero) == [g3.empty()]
        with pytest.raises(InvalidInputError):
            make_partition(g3, [(g3.subset([0]), 1)])

    def test_graphic_triangle(self):
        tri = make_graphic(3, [(0, 1), (1, 2), (0, 2)], ("a", "b", "c"))
        for pair in tri.ground.subsets_of_size(2):
            assert tri.is_independent(pair)
        assert not tri.is_independent(tri.ground.full())
        assert len(enumerate_bases(tri)) == 3

    def test_graphic_forest_and_parallel(self):
        forest = make_graphic(4, [(0, 1), (1, 2), (2, 3)])
        assert forest.is_independent(forest.ground.full())
        parallel = make_graphic(2, [(0, 1), (0, 1)])
        assert not parallel.is_independent(parallel.ground.full())

    def test_linear(self, g3):
        m = make_linear(g3, [[1, 0], [0, 1], [1, 1]])
        assert m.rank == 2
        assert m.is_independent(g3.subset([0, 1]))
        assert len(enumerate_bases(m)) == 3
        dependent = make_linear(g3, [[1, 0], [2, 0], [0, 1]])
        assert not dependent.is_independent(g3.subset([0, 1]))

    def test_explicit(self, g3):
        family = ExplicitBaseFamily.of(
            g3, [g3.subset([0, 1]), g3.subset([1, 2])])
        m = from_explicit_bases(family)
        assert m.rank == 2
        assert m.is_independent(g3.subset([0]))
        assert not m.is_base(g3.subset([0, 2]))


def test_enumeration_limit_is_a_resource_limit():
    # C(20000, 10000) has 6019 digits, more than an int may be written
    # with, so the refusal must not write the count.
    assert len(enumerate_bases(make_uniform(GroundSet(6), 3), limit=20)) == 20
    with pytest.raises(ResourceLimitError, match=r"C\(6,3\)"):
        enumerate_bases(make_uniform(GroundSet(6), 3), limit=19)
    with pytest.raises(ResourceLimitError, match=r"C\(20000,10000\)"):
        enumerate_bases(make_uniform(GroundSet(20000), 10000))


class TestDual:
    def test_dual_uniform(self, g3):
        dual = dual_matroid(make_uniform(g3, 2))
        assert dual.rank == 1
        assert sorted(b.mask for b in enumerate_bases(dual)) == [1, 2, 4]

    def test_dual_involution_and_rank(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(1, 6)
            ground = GroundSet(n)
            m = random_matroid(rng, ground)
            dual = dual_matroid(m)
            assert m.rank + dual.rank == n
            back = dual_matroid(dual)
            assert sorted(b.mask for b in enumerate_bases(back)) == \
                sorted(b.mask for b in enumerate_bases(m))
            complements = sorted(b.complement().mask
                                 for b in enumerate_bases(m))
            assert sorted(b.mask for b in enumerate_bases(dual)) == complements

    def test_dual_free_is_rank_zero(self, g3):
        assert dual_matroid(make_uniform(g3, 3)).rank == 0


class TestCircuits:
    """`circuits(X)[v]` is exactly the set of u with X - u + v a base."""

    @given(structured_matroids())
    def test_circuit_tables_match_independence(self, matroid):
        assert matroid.has_circuits
        ground = matroid.ground
        bases = {b.mask for b in enumerate_bases(matroid)}
        for x in ground.subsets_of_size(matroid.rank):
            table = matroid.circuits(x.mask)
            if x.mask not in bases:
                assert table is None
                continue
            for v in ground.elements():
                if x.contains(v):
                    continue
                for u in x.members():
                    assert bool(table[v] >> u & 1) == matroid.is_independent(
                        x.exchange(u, v)), (matroid.name, x.mask, u, v)
                assert table[v] & ~x.mask == 0

    @given(structured_matroids())
    def test_non_bases_have_no_table(self, matroid):
        full = matroid.ground.full().mask
        if matroid.rank < matroid.ground.size:
            assert matroid.circuits(full) is None
        if matroid.rank > 0:
            assert matroid.circuits(0) is None

    def test_graphic_loops_and_parallel_edges(self):
        # Triangle 0-1-2 with edge 3 parallel to edge 0 and a loop 4.
        graph = make_graphic(3, [(0, 1), (1, 2), (2, 0), (0, 1), (2, 2)])
        table = graph.circuits(0b00011)
        assert table[2] == 0b00011
        assert table[3] == 0b00001
        assert table[4] == 0
        assert graph.circuits(0b01001) is None

    def test_graphic_queries_ignore_isolated_vertices(self):
        graph = make_graphic(10**6, [(0, 1), (1, 2), (2, 0), (5, 999_999)])
        tracemalloc.start()
        try:
            assert not graph.is_independent(graph.ground.full())
            assert graph.circuits(0b1011)[2] == 0b0011
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_graphic_tables_match_the_tight_vertex_count(self):
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(1, 6)
            edges = [(rng.randrange(9), rng.randrange(9)) for _ in range(n)]
            tight = make_graphic(max(max(e) for e in edges) + 1, edges)
            loose = make_graphic(9 + rng.randint(0, 50), edges)
            assert loose.rank == tight.rank
            for mask in range(1 << n):
                x = Subset(tight.ground, mask)
                assert loose.is_independent(x) == tight.is_independent(x)
                assert loose.circuits(mask) == tight.circuits(mask)

    def test_graphic_pivot_matches_the_walk(self, monkeypatch):
        """Along seeded exchange walks the table of each base equals the
        forest walk of a fresh matroid at every entry; a single exchange
        on the last table's circuit walks no forest, a jump of two
        exchanges does, and a rank-sized non-base gives None."""
        import vmint.matroid as matroid_module

        walks = []

        class CountingSubset(Subset):
            def members(self):
                walks.append(self.mask)
                return super().members()

        monkeypatch.setattr(matroid_module, "Subset", CountingSubset)
        rng = random.Random(2029)
        pivots = jumps = refused = 0
        for _ in range(150):
            vertices = rng.randint(1, 6)
            # Parallel edges and loops come with drawing ends freely.
            edges = [(rng.randrange(vertices), rng.randrange(vertices))
                     for _ in range(rng.randint(1, 9))]
            graph = make_graphic(vertices, edges)
            ground = graph.ground
            x = graph.some_base()
            table = graph.circuits(x.mask)
            for _ in range(12):
                inside = list(x.members())
                outside = [v for v in ground.elements() if not x.contains(v)]
                if not inside or not outside:
                    break
                u, v = rng.choice(inside), rng.choice(outside)
                y = x.exchange(u, v)
                if rng.random() < 0.25 and len(inside) > 1 \
                        and len(outside) > 1:
                    # Two exchanges at once: no pivot applies.
                    u2 = rng.choice([e for e in inside if e != u])
                    v2 = rng.choice([e for e in outside if e != v])
                    y = y.exchange(u2, v2)
                    jump = True
                else:
                    jump = False
                walks.clear()
                got = graph.circuits(y.mask)
                walked = bool(walks)
                assert got == make_graphic(vertices, edges).circuits(y.mask), \
                    (edges, x.mask, y.mask)
                if got is None:
                    assert not graph.is_independent(y)
                    refused += 1
                    continue
                if jump:
                    assert walked, "a jump of two exchanges walks the forest"
                    jumps += 1
                else:
                    assert table[v] >> u & 1
                    assert not walked, "one exchange pivots the last table"
                    pivots += 1
                x, table = y, got
        assert pivots > 200 and jumps > 10 and refused > 100

    def test_generic_constructions_have_no_table(self, g3):
        linear = make_linear(g3, [[1, 0], [0, 1], [1, 1]])
        for matroid in (linear, dual_matroid(linear),
                        from_explicit_bases(ExplicitBaseFamily.of(
                            g3, [g3.subset([0])]))):
            assert not matroid.has_circuits
            with pytest.raises(InvalidInputError):
                matroid.circuits(1)


class TestCheckers:
    def test_base_exchange_uniform(self, g3):
        family = ExplicitBaseFamily.of(g3, enumerate_bases(make_uniform(g3, 2)))
        assert check_base_exchange(family)

    def test_base_exchange_fails(self):
        g4 = GroundSet(4, ("a", "b", "c", "d"))
        family = ExplicitBaseFamily.of(
            g4, [g4.subset([0, 1]), g4.subset([2, 3])])
        assert not check_base_exchange(family)

    def test_base_exchange_singleton(self, g3):
        assert check_base_exchange(
            ExplicitBaseFamily.of(g3, [g3.subset([0, 1])]))
        with pytest.raises(InvalidInputError):
            check_base_exchange(ExplicitBaseFamily.of(g3, []))

    def test_base_exchange_matches_the_pairwise_reference(self):
        """Same verdict as the check on every pair of bases, on whole
        matroids, their random subfamilies and random equicardinal
        families, by the subset table (n <= 16) and by mask ANDs (n > 16).
        """
        rng = random.Random(2033)
        verdicts = {}
        for trial in range(1500):
            n = rng.randint(15, 19) if trial % 8 == 0 else rng.randint(1, 8)
            ground = GroundSet(n)
            shape = rng.randrange(3)
            if shape < 2:
                bases = enumerate_bases(random_matroid(
                    rng, ground, max_rank=2 if n > 8 else 4))
                if shape == 1:
                    bases = rng.sample(bases, rng.randint(1, len(bases)))
            else:
                r = rng.randint(0, n)
                bases = [ground.subset(rng.sample(range(n), r))
                         for _ in range(rng.randint(1, 12))]
            family = ExplicitBaseFamily.of(ground, bases)
            verdict = check_base_exchange(family)
            assert verdict == check_base_exchange_pairwise(family), (
                n, [b.mask for b in bases])
            verdicts[n > CLOSURE_TABLE_SIZE, verdict] = True
        assert len(verdicts) == 4

    def test_base_exchange_ands_past_the_table_have_a_limit(self):
        ground = GroundSet(CLOSURE_TABLE_SIZE + 1)
        family = ExplicitBaseFamily.of(
            ground, enumerate_bases(make_uniform(ground, 2)))
        assert check_base_exchange(family)
        with pytest.raises(ResourceLimitError, match="exceeds limit 100"):
            check_base_exchange(family, limit=100)
        with pytest.raises(InvalidInputError, match="equicardinal"):
            check_base_exchange(ExplicitBaseFamily.of(
                ground, [ground.subset([0]), ground.subset([0, 1])]))

    def test_random_matroids_satisfy_axioms(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 8)
            m = random_matroid(rng, GroundSet(n))
            assert check_independence_axioms(m), m.name

    @pytest.mark.parametrize("kind", MATROID_KINDS)
    def test_rank_cap_zero_gives_rank_zero(self, kind):
        for seed in range(5):
            for n in (1, 3):
                m = random_matroid(random.Random(seed), GroundSet(n),
                                   max_rank=0, kinds=(kind,))
                assert m.rank == 0 and m.ground.size == n
                assert check_independence_axioms(m), m.name
            # No GroundSet has 0 elements, but the spec of one is drawn.
            spec = random_matroid_spec(random.Random(seed), 0, kinds=(kind,))
            assert spec["kind"] == kind
            assert not spec.get("blocks", spec.get("edges",
                                                   spec.get("columns")))

    @staticmethod
    def _assert_declared_base_is_greedy(m):
        ground = m.ground
        greedy = Subset(ground, m._greedy_by_queries(ground.elements()))
        assert m.some_base() == greedy, m.name
        assert m.rank == greedy.cardinality()

    @pytest.mark.parametrize("kind", ["uniform", "partition", "graphic"])
    def test_declared_rank_is_the_greedy_rank(self, kind):
        rng = random.Random(13)
        for _ in range(25):
            ground = GroundSet(rng.randint(1, 8))
            for max_rank in (0, 4):
                self._assert_declared_base_is_greedy(random_matroid(
                    rng, ground, max_rank=max_rank, kinds=(kind,)))
        g = GroundSet(3)
        over = make_partition(g, [(g.subset([0]), 3), (g.subset([1, 2]), 1)])
        assert over.rank == 2

    def test_declared_bases_on_loops_parallels_and_empty_blocks(self):
        cases = _edge_case_matroids()
        for m in cases:
            self._assert_declared_base_is_greedy(m)
        assert [m.some_base().mask for m in cases] == [
            0b011010, 0b100011, 0, 0b010110, 0b000010 | 0b010000, 0b001111,
            0, 0b111111]
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 8)
            vertices = rng.randint(1, 12)
            edges = [(rng.randrange(vertices), rng.randrange(vertices))
                     for _ in range(n)]
            self._assert_declared_base_is_greedy(make_graphic(vertices, edges))

    def test_bases_equicardinal_at_rank(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(1, 7)
            m = random_matroid(rng, GroundSet(n))
            for base in enumerate_bases(m):
                assert base.cardinality() == m.rank


class TestGreedyBase:
    def test_min_weight_base(self, g3):
        u = make_uniform(g3, 2)
        base = min_weight_base(u, (Fraction(5), Fraction(1), Fraction(3)))
        assert base == g3.subset([1, 2])

    def test_min_weight_base_matches_enumeration(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 7)
            ground = GroundSet(n)
            m = random_matroid(rng, ground)
            weights = [Fraction(rng.randint(-8, 8), rng.choice([1, 2]))
                       for _ in range(n)]
            greedy = min_weight_base(m, weights)
            best = min(sum(weights[i] for i in b.members())
                       for b in enumerate_bases(m))
            assert sum(weights[i] for i in greedy.members()) == best

    def test_weight_count_is_checked(self):
        u = make_uniform(GroundSet(3), 2)
        for count in (2, 4):
            with pytest.raises(InvalidInputError, match="one weight per"):
                min_weight_base(u, [Fraction(i) for i in range(count)])

    def test_min_weight_base_equals_the_sorted_query_loop(self):
        def by_queries(matroid, weights):
            order = sorted(matroid.ground.elements(), key=lambda i: (weights[i], i))
            current = matroid.ground.empty()
            for i in order:
                grown = current.add(i)
                if matroid.is_independent(grown):
                    current = grown
            return current

        rng = random.Random(29)
        for _ in range(200):
            for m in _structured_matroids(rng):
                # Few distinct values, so most draws tie; ints and
                # Fractions mixed.
                weights = [rng.choice([rng.randint(-2, 2),
                                       Fraction(rng.randint(-4, 4), 2)])
                           for _ in m.ground.elements()]
                assert min_weight_base(m, weights) == by_queries(m, weights)


def _edge_case_matroids():
    g6 = GroundSet(6)
    return [
        # Self-loops first and last, parallel edges, two components.
        make_graphic(6, [(2, 2), (0, 1), (1, 0), (3, 4), (4, 5), (5, 3)]),
        make_graphic(9, [(0, 1), (7, 8), (1, 0), (8, 7), (0, 0), (1, 2)]),
        make_graphic(1, [(0, 0)] * 6),
        # Capacity-0 and over-capacity blocks.
        make_partition(g6, [(g6.subset([0, 3]), 0), (g6.subset([1, 5]), 1),
                            (g6.subset([2, 4]), 2)]),
        make_partition(g6, [(g6.subset([5, 1, 4]), 2),
                            (g6.subset([0, 2, 3]), 0)]),
        make_partition(g6, [(g6.subset([0, 1]), 5), (g6.subset([2, 3, 4, 5]), 2)]),
        make_uniform(g6, 0),
        make_uniform(g6, 6),
    ]


def _structured_matroids(rng):
    """A uniform, a partition and a graphic matroid on one ground of 1-8
    elements: blocks of capacity 0 to 4, so some are empty-capacity and
    some over capacity; multigraphs on 1-6 vertices, so self-loops,
    parallel edges and several components all occur."""
    n = rng.randint(1, 8)
    ground = GroundSet(n)
    block_of = [rng.randrange(3) for _ in range(n)]
    blocks = [(ground.subset(v for v in range(n) if block_of[v] == b),
               rng.randint(0, 4)) for b in sorted(set(block_of))]
    vertices = rng.randint(1, 6)
    edges = [(rng.randrange(vertices), rng.randrange(vertices))
             for _ in range(n)]
    return [make_uniform(ground, rng.randint(0, n)),
            make_partition(ground, blocks), make_graphic(vertices, edges)]


def _greedy_by_queries(matroid, order):
    """Each element of `order` in turn joins when the set stays
    independent, one query per element."""
    current = matroid.ground.empty()
    for i in order:
        if matroid.is_independent(current.add(i)):
            current = current.add(i)
    return current


class TestGreedyHooks:
    def test_greedy_and_rank_of_equal_the_query_loop(self):
        rng = random.Random(31)
        for _ in range(200):
            for m in _structured_matroids(rng) + _edge_case_matroids():
                n = m.ground.size
                lo = rng.randint(0, n)
                orders = [rng.sample(range(n), n),
                          rng.sample(range(n), rng.randint(0, n)),
                          range(lo, rng.randint(lo, n))]
                for order in orders:
                    assert m.greedy(order) == _greedy_by_queries(m, order), \
                        (m.name, order)
                subset = Subset(m.ground, rng.getrandbits(n))
                assert m.rank_of(subset) == _greedy_by_queries(
                    m, subset.members()).cardinality(), (m.name, subset)

    def test_full_rank_uniform_base_is_one_shift(self):
        # U(n, n) keeps every element: its base in index order is one
        # shift, with no buffer of one byte per element.
        tracemalloc.start()
        try:
            free = make_uniform(GroundSet(10**6), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert free.some_base().mask == (1 << 10**6) - 1
        assert peak < 1_000_000

    def test_dual_circuit_tables_are_brute_force(self):
        # The dual's table of X* is the transpose of the table of V \ X*.
        rng = random.Random(41)
        for _ in range(40):
            for m in _structured_matroids(rng):
                dual = dual_matroid(m)
                assert dual.has_circuits
                ground = m.ground
                for x in enumerate_bases(dual):
                    table = dual.circuits(x.mask)
                    for v in ground.elements():
                        if x.contains(v):
                            continue
                        for u in x.members():
                            assert bool(table[v] >> u & 1) == dual.is_base(
                                x.exchange(u, v)), (m.name, x.mask, u, v)
                        assert table[v] & ~x.mask == 0
                assert dual.circuits(dual.some_base().mask ^ 1) is None

    def test_dual_independence_is_brute_force(self):
        rng = random.Random(37)
        for _ in range(40):
            for m in _structured_matroids(rng):
                dual = dual_matroid(m)
                bases = [b.mask for b in enumerate_bases(m)]
                for mask in range(1 << m.ground.size):
                    # X is coindependent iff some base avoids it.
                    expected = any(not b & mask for b in bases)
                    assert dual.is_independent(
                        Subset(m.ground, mask)) == expected, (m.name, mask)
