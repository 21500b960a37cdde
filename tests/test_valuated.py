"""Valuation oracles, their constructors, and the exchange checkers."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vmint.core import (
    INF,
    EmptyDomainError,
    ExtValue,
    GroundSet,
    IntVector,
    InvalidInputError,
    ResourceLimitError,
    Subset,
    dot,
    subset_to_vector,
)
from vmint.apps import modular_on_domain
from vmint.matroid import (
    enumerate_bases,
    make_free,
    make_graphic,
    make_linear,
    make_partition,
    make_uniform,
)
from vmint.rand_instances import (
    MATROID_KINDS,
    random_convex_table,
    random_mconvex_function,
    random_matroid,
    random_rational,
    random_weights,
)
from vmint.valuated import (
    ConvexTable,
    LaminarSpec,
    MnatFunction,
    NegatedMnat,
    TupleGround,
    ValuationOracle,
    _FiniteIndicator,
    check_mnat_exchange,
    check_valuated_exchange,
    disjoint_sum,
    dual_valuation,
    from_matroid_and_weights,
    indicator_of_matroid,
    intersection_constraint_valuation,
    laminar_convex_function,
    laminar_penalty,
    _laminar_point,
    laminar_valuation,
    scaled_sum,
    scaled_weights,
    size_constrained_modular,
)
from vmint.vmi import lift_laminar_to_copies

from references import laminar_point_rescan, valuation_from_explicit


@pytest.fixture
def g3():
    return GroundSet(3, ("a", "b", "c"))


def value_only(oracle):
    """A twin of `oracle` with no block hook: every miss goes to its value
    function, the reference every hook must agree with."""
    return ValuationOracle(oracle.ground, oracle.rank, oracle._value_fn,
                           oracle.witness_base, scale=oracle.scale)


def exchange_of(oracle, x, u, v):
    """The raw value of X - u + v as a solver asks it: a 1 x 1 block when
    X is rank-sized, u in X and v not, else `raw_value` of the set."""
    if x.cardinality() == oracle.rank and x.contains(u) \
            and not x.contains(v):
        return oracle.raw_exchanges(x, [u], [v])[0]
    return oracle.raw_value(x.exchange(u, v))


class TestModularConstructors:
    def test_from_matroid_and_weights(self, g3):
        omega = from_matroid_and_weights(make_uniform(g3, 2), [1, 2, 4])
        assert omega.value(g3.subset([0, 1])) == ExtValue(3)
        assert omega.value(g3.subset([0])) == INF
        delta = indicator_of_matroid(make_uniform(g3, 2))
        assert delta.value(g3.subset([0, 2])) == ExtValue(0)

    def test_size_constrained(self, g3):
        omega = size_constrained_modular(g3, [1, 2, 4], 2)
        assert omega.value(g3.subset([0, 2])) == ExtValue(5)
        zero = size_constrained_modular(g3, [1, 2, 4], 0)
        assert zero.value(g3.empty()) == ExtValue(0)
        assert zero.value(g3.subset([1])) == INF
        full = size_constrained_modular(g3, [1, 2, 4], 3)
        assert full.value(g3.full()) == ExtValue(7)
        with pytest.raises(InvalidInputError):
            size_constrained_modular(g3, [1, 2, 4], 5)

    def test_size_constrained_needs_one_weight_per_element(self, g3):
        # Without the check, too few weights build a valuation whose value
        # raises a bare IndexError, and too many are cut without a word.
        for weights in ([1, 2], [1, 2, 4, 8]):
            with pytest.raises(InvalidInputError,
                               match="need one weight per ground element"):
                size_constrained_modular(g3, weights, 2)

    def test_memoization_is_transparent_and_counted(self, g3):
        # A modular valuation on a linear matroid (no circuit tables)
        # keeps a memo: the repeated query is a hit.
        linear = from_matroid_and_weights(
            make_linear(g3, [[1, 0], [0, 1], [1, 1]]), [1, 2, 4])
        linear.reset_counters()
        x = g3.subset([1, 2])
        first = linear.value(x)
        again = linear.value(x)
        assert first == again == ExtValue(6)
        assert linear.calls == 2
        assert linear.evals == 1
        # The leaf answers the repeated query again and keeps no memo.
        omega = from_matroid_and_weights(make_uniform(g3, 2), [1, 2, 4])
        omega.reset_counters()
        y = g3.subset([0, 2])
        assert omega.value(y) == omega.value(y) == ExtValue(5)
        assert omega.calls == omega.evals == 2
        assert omega._memo == {}
        # So is the dual: every ask is an eval, and each reaches omega.
        dual = dual_valuation(omega)
        dual.reset_counters()
        omega.reset_counters()
        z = g3.subset([1])
        assert dual.value(z) == dual.value(z) == ExtValue(5)
        assert dual.calls == dual.evals == 2
        assert dual._memo == {}
        assert omega.calls == 2


class TestModularBaseState:
    """The circuit-table leaf keeps w(X) of its last base X and moves it
    by w_v - w_u on a single exchange: after each step of a walk its
    values equal `scaled_sum` on bases and +infinity elsewhere, for the
    base, its single exchanges and sets farther away."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(2, 9),
           st.sampled_from(MATROID_KINDS))
    def test_sum_follows_the_walk(self, seed, n, kind):
        rng = random.Random(seed)
        ground = GroundSet(n)
        weights = tuple(random_rational(rng, denominators=range(1, 13))
                        for _ in range(n))
        scaled, _ = scaled_weights(weights)
        matroid = random_matroid(rng, ground, kinds=(kind,))
        omega = from_matroid_and_weights(matroid, weights)

        def expected(x):
            return scaled_sum(scaled, x.mask) if matroid.is_base(x) else None
        x = omega.witness_base
        for _ in range(15):
            inside = list(x.members())
            outside = [v for v in ground.elements() if not x.contains(v)]
            if not inside or not outside:
                break
            # Move the state to X by whichever query a solver would ask.
            rng.choice((lambda: omega.best_exchange(x, inside, outside),
                        lambda: omega.raw_exchanges(x, inside, outside),
                        lambda: omega.raw_exchanges(
                            x, inside[:1], outside[-1:])))()
            assert omega.raw_value(x) == expected(x) == \
                scaled_sum(scaled, x.mask)
            for u, v in itertools.product(inside, outside):
                assert omega.raw_value(x.exchange(u, v)) == \
                    expected(x.exchange(u, v))
            far = ground.subset(rng.sample(range(n), len(inside)))
            assert omega.raw_value(far) == expected(far)
            steps = [(u, v) for u, v in itertools.product(inside, outside)
                     if matroid.is_base(x.exchange(u, v))]
            if not steps:
                break
            x = x.exchange(*rng.choice(steps))


class TestModularSum:
    """The integer-scaled modular sum against `core.dot`."""

    WEIGHTS = ("-3/4", "5/6", "-2", "7/10", "0", "-1/3")

    def _matroids(self):
        g6 = GroundSet(6)
        partition = make_partition(g6, [(g6.subset([0, 1, 2]), 2),
                                        (g6.subset([3, 4, 5]), 1)])
        graphic = make_graphic(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0),
                                   (1, 3)])
        return [make_uniform(g6, 3), partition, graphic]

    def test_equals_dot_on_every_subset(self):
        ws = tuple(Fraction(w) for w in self.WEIGHTS)
        scaled, scale = scaled_weights(ws)
        g6 = GroundSet(6)
        for mask in range(1 << 6):
            subset = Subset(g6, mask)
            assert Fraction(scaled_sum(scaled, mask), scale) == dot(ws, subset)

    def test_modular_constructors_equal_dot_on_bases(self):
        ws = tuple(Fraction(w) for w in self.WEIGHTS)
        for matroid in self._matroids():
            omega = from_matroid_and_weights(matroid, ws)
            carried = modular_on_domain(indicator_of_matroid(matroid), ws)
            size = size_constrained_modular(matroid.ground, ws, matroid.rank)
            bases = 0
            for x in matroid.ground.subsets_of_size(matroid.rank):
                assert size.value(x) == ExtValue(dot(ws, x))
                if matroid.is_independent(x):
                    bases += 1
                    assert omega.value(x) == ExtValue(dot(ws, x))
                    assert carried.value(x) == ExtValue(dot(ws, x))
                else:
                    assert omega.value(x) == INF
                    assert carried.value(x) == INF
            assert bases > 0

    def test_laminar_penalty_charges_dot_of_common_intersection(self):
        g3 = GroundSet(3)
        ws = (Fraction(3, 4), Fraction(5, 6), Fraction(2))
        omega, tg = laminar_penalty(ws, 2, 4, g3)
        for x in omega.enumerate_domain():
            assert omega.value(x) == ExtValue(dot(ws, tg.common_intersection(x)))


class TestExchangeValue:
    """A 1 x 1 block `raw_exchanges(X, [u], [v])` is
    `raw_value(X.exchange(u, v))` in every observable way: the result,
    `calls`, `evals` and the memo, of the oracle and of the oracle a dual
    passes its queries on to."""

    @staticmethod
    def _exchanges(ground, rank):
        """Every proper exchange of every rank-sized set, bases or not."""
        return [(x, u, v) for x in ground.subsets_of_size(rank)
                for u in x.members() for v in ground.elements()
                if not x.contains(v)]

    @staticmethod
    def _same_queries(make, queries):
        """Ask the same queries of two fresh copies, one path each."""
        by_value, by_exchange = make(), make()
        for x, u, v in queries:
            expected = by_value[0].raw_value(x.exchange(u, v))
            assert exchange_of(by_exchange[0], x, u, v) == expected, (
                x.mask, u, v)
            for a, b in zip(by_value, by_exchange):
                assert (a.calls, a.evals) == (b.calls, b.evals)
        for a, b in zip(by_value, by_exchange):
            assert list(a._memo.items()) == list(b._memo.items())

    @settings(max_examples=60)
    @given(st.integers(0, 2 ** 32), st.integers(1, 6),
           st.sampled_from(MATROID_KINDS + ("explicit",)), st.booleans())
    def test_equals_value_on_every_query(self, seed, n, kind, dual):
        rng = random.Random(seed)
        ground = GroundSet(n)
        weights = random_weights(rng, n)
        if kind == "explicit":
            # An oracle without structure: values on some rank-sized sets.
            r = rng.randint(0, n)
            table = {x.mask: weights[x.mask % n]
                     for x in ground.subsets_of_size(r) if rng.random() < 0.6}
            table.setdefault((1 << r) - 1, Fraction(0))
        else:
            matroid = random_matroid(rng, ground, kinds=(kind,))

        def make():
            if kind == "explicit":
                omega = valuation_from_explicit(ground, r, table)
            else:
                omega = from_matroid_and_weights(matroid, weights)
            return [dual_valuation(omega), omega] if dual else [omega]

        # Proper exchanges first, so that their misses are not already
        # memoized by the improper queries (u outside X, v inside, u = v),
        # which both copies ask as values.
        queries = self._exchanges(ground, make()[0].rank) + [
            (x, u, v) for x in ground.all_subsets()
            for u in range(n) for v in range(n)]
        self._same_queries(make, queries)

    def test_mixed_denominators_loops_and_non_bases(self):
        ws = tuple(Fraction(w) for w in ("-3/4", "5/6", "-2", "7/10", "0",
                                         "-1/3"))
        graph = make_graphic(4, [(0, 1), (1, 2), (2, 0), (2, 3), (0, 1),
                                 (3, 3)])
        ground = graph.ground
        for make in (lambda: [from_matroid_and_weights(graph, ws)],
                     lambda: [dual_valuation(
                         from_matroid_and_weights(graph, ws))]):
            self._same_queries(make, self._exchanges(ground, make()[0].rank))
        omega = from_matroid_and_weights(graph, ws)

        def valued(x, u, v):
            return omega.as_value(exchange_of(omega, x, u, v))
        tree = ground.subset([0, 1, 3])
        assert valued(tree, 0, 4) == ExtValue(
            dot(ws, tree.exchange(0, 4)))
        assert valued(tree, 1, 4) == INF
        assert valued(tree, 0, 5) == INF
        not_a_base = ground.subset([0, 1, 2])
        assert valued(not_a_base, 0, 3) == ExtValue(
            dot(ws, not_a_base.exchange(0, 3)))
        with pytest.raises(InvalidInputError):
            omega.raw_exchanges(GroundSet(7).subset([0, 1, 3]), [0], [4])


class TestMoved:
    """`moved(z, up, down)` is `value(z + e_up - e_down)` in every
    observable way, on an M-natural function, the part x -> f(-x) and the
    finiteness indicator: the result, and the `calls`, `evals` and memo of
    the function that memoizes."""

    WRAPPERS = {
        "plain": lambda fn: fn,
        "negated": NegatedMnat,
        "indicator": _FiniteIndicator,
        "negated indicator": lambda fn: _FiniteIndicator(NegatedMnat(fn)),
    }

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3),
           st.sampled_from(sorted(WRAPPERS)))
    def test_equals_value_inside_on_and_outside_the_box(self, seed, n, kind):
        wrap = self.WRAPPERS[kind]
        by_value = random_mconvex_function(random.Random(seed), n, 2)
        by_moved = random_mconvex_function(random.Random(seed), n, 2)
        value_part, moved_part = wrap(by_value), wrap(by_moved)
        # Every box point and its neighbours one step outside, so moves
        # start inside, on the edge and outside the box, and leave it.
        ranges = [range(lo - 1, hi + 2) for lo, hi in
                  zip(value_part.box_lower, value_part.box_upper)]
        moves = [(up, down) for up in range(-1, n) for down in range(-1, n)]
        finite = 0
        for entries in itertools.product(*ranges):
            for up, down in moves:
                point = IntVector(entries)
                if up >= 0:
                    point = point.add_unit(up, +1)
                if down >= 0:
                    point = point.add_unit(down, -1)
                expected = value_part.value(point)
                assert moved_part.moved(entries, up, down) == expected, (
                    entries, up, down)
                finite += expected.is_finite
                assert (by_value.calls, by_value.evals) == \
                    (by_moved.calls, by_moved.evals)
        assert finite > 0
        assert list(by_value._memo.items()) == list(by_moved._memo.items())

    def test_length_checked(self):
        fn = MnatFunction(2, lambda x: ExtValue(0), (0, 0), (1, 1),
                          IntVector((0, 0)))
        with pytest.raises(InvalidInputError):
            fn.moved((0, 0, 0), 0, 1)


class TestCopyReductionExchange:
    """The coupling oracles of the copy reductions answer exchanges
    (`exchange_of`) exactly like a value-only twin asked `raw_value`: the
    same values, and the same `calls`, `evals` and memo.  The disjoint
    sum has tests of its own (`TestDisjointSum`)."""

    @staticmethod
    def _component(rng, ground, kind):
        weights = random_weights(rng, ground.size)
        if kind == "explicit":
            r = rng.randint(0, ground.size)
            table = {x.mask: weights[x.mask % ground.size]
                     for x in ground.subsets_of_size(r) if rng.random() < 0.6}
            table.setdefault((1 << r) - 1, Fraction(0))
            return lambda: valuation_from_explicit(ground, r, table)
        dual = kind == "dual"
        matroid = random_matroid(rng, ground,
                                 kinds=MATROID_KINDS if dual else (kind,))

        def build():
            omega = from_matroid_and_weights(matroid, weights)
            return dual_valuation(omega) if dual else omega
        return build

    @staticmethod
    def _laminar(rng, ground, copies):
        """A chain of nested members plus some singletons; the tables'
        intervals may miss some counts, so +infinity terms occur."""
        order = list(ground.elements())
        rng.shuffle(order)
        cut = rng.randint(0, ground.size)
        members = [ground.subset(order[:j]) for j in range(1, cut + 1)
                   if rng.random() < 0.6]
        members += [ground.subset([v]) for v in order[cut:]
                    if rng.random() < 0.6]
        tables = []
        for member in members:
            top = member.cardinality() * copies
            start = rng.randint(0, top)
            tables.append(random_convex_table(
                rng, start, rng.randint(1, top - start + 1)))
        return LaminarSpec(ground, tuple(members), tuple(tables))

    @staticmethod
    def _queries(rng, tg, rank, base):
        """Proper exchanges of a base and of rank-sized sets, within and
        across copies, then queries with u outside X.  Half of the sets
        start from one subset picked in every copy, so that exchanges
        move elements into and out of the common intersection."""
        ground = tg.combined
        sets = [base]
        for i in range(6):
            if i % 2:
                common = rng.sample(range(tg.base.size),
                                    rng.randint(0, tg.base.size))
                shared = [c * tg.base.size + e for c in range(tg.n)
                          for e in common]
                rest = [e for e in range(ground.size) if e not in shared]
                rng.shuffle(shared)
                rng.shuffle(rest)
                picked = (shared + rest)[:rank]
            else:
                picked = rng.sample(range(ground.size), rank)
            sets.append(ground.subset(picked))
        queries = [(x, u, v) for x in sets for u in x.members()
                   for v in ground.elements() if not x.contains(v)]
        queries += [(x, rng.randrange(ground.size), rng.randrange(ground.size))
                    for x in sets for _ in range(10)]
        return queries

    @staticmethod
    def _same_answers(make, queries):
        """The same values and `calls` on every oracle.  A leaf (an
        oracle with a `block_fn`) evaluates every call and keeps no memo;
        an oracle of the twin's kind also has the twin's `evals` and
        memo, so only a leaf against its value-only twin differs there."""
        ours, twin = make(), make()
        twin[0] = value_only(twin[0])
        for oracle in ours + twin:
            oracle.reset_counters()
        alike = [(a._block_fn is None) == (b._block_fn is None)
                 for a, b in zip(ours, twin)]
        for x, u, v in queries:
            assert exchange_of(ours[0], x, u, v) == twin[0].raw_value(
                x.exchange(u, v)), (x.mask, u, v)
            for a, b, same_kind in zip(ours, twin, alike):
                assert a.calls == b.calls, (a.name, x.mask, u, v)
                if a._block_fn is not None:
                    assert a.evals == a.calls, (a.name, x.mask, u, v)
                if same_kind:
                    assert a.evals == b.evals, (a.name, x.mask, u, v)
        for a, b, same_kind in zip(ours, twin, alike):
            if a._block_fn is not None:
                assert a._memo == {}, a.name
            if same_kind:
                assert a._memo == b._memo, a.name

    @pytest.mark.parametrize("kind", ["constraint", "penalty", "lifted"])
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 5), st.integers(1, 3))
    def test_twin_answers_alike(self, kind, seed, size, copies):
        rng = random.Random(seed)
        ground = GroundSet(size)
        tg = TupleGround(ground, copies)
        rank = rng.randint(0, copies * size)
        if kind == "constraint":
            constraint = random_matroid(rng, ground, rng.randint(0, 3))

            def make():
                return [intersection_constraint_valuation(
                    copies, constraint, rank)[0]]
            if make()[0].witness_base is None:
                return
        elif kind == "penalty":
            weights = [abs(w) for w in random_weights(rng, size)]

            def make():
                return [laminar_penalty(weights, copies, rank, ground)[0]]
        else:
            spec = self._laminar(rng, ground, copies)
            try:
                lift_laminar_to_copies(spec, tg, rank)
            except EmptyDomainError:
                return

            def make():
                return [lift_laminar_to_copies(spec, tg, rank)]
        oracle = make()[0]
        self._same_answers(make, self._queries(rng, tg, oracle.rank,
                                               oracle.witness_base))


class TestModularOnDomainExchange:
    """`modular_on_domain` answers exchanges like a value-only twin,
    asking its base valuation the same queries: the same values, and the
    same `calls`, `evals` and memo on both oracles."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 6),
           st.sampled_from(MATROID_KINDS + ("explicit", "dual")))
    def test_twin_answers_alike(self, seed, n, kind):
        rng = random.Random(seed)
        ground = GroundSet(n)
        build = TestCopyReductionExchange._component(rng, ground, kind)
        weights = tuple(random_rational(rng, denominators=range(1, 13))
                        for _ in range(n))

        def make():
            omega = build()
            return [modular_on_domain(omega, weights), omega]

        queries = TestExchangeValue._exchanges(ground, make()[0].rank) + [
            (x, u, v) for x in ground.all_subsets()
            for u in range(n) for v in range(n)]
        TestCopyReductionExchange._same_answers(make, queries)


class TestBlockExchanges:
    """`raw_exchanges(X, outs, ins)` is `raw_value(X.exchange(u, v))`
    asked for u in `outs` and v in `ins`, u-major, in every observable
    way: the values, and the `calls`, `evals` and memo contents of the
    oracle and of every oracle it asks (but the parts of a disjoint sum,
    which its value function asks whole; `TestDisjointSum` pins those).
    The values also equal those of a twin with no block hook.  The memos
    are warmed first, so that hits mix with misses."""

    KINDS = MATROID_KINDS + ("explicit", "size", "dual", "domain", "sum",
                             "constraint", "penalty", "lifted")

    @staticmethod
    def _maker(rng, kind, size, copies):
        """A maker of [oracle, the oracles it asks], or None when the
        drawn oracle has an empty domain."""
        ground = GroundSet(size)
        weights = tuple(random_rational(rng, denominators=range(1, 13))
                        for _ in range(size))
        component = TestCopyReductionExchange._component
        if kind in MATROID_KINDS:
            matroid = random_matroid(rng, ground, kinds=(kind,))
            return lambda: [from_matroid_and_weights(matroid, weights)]
        if kind == "explicit":
            build = component(rng, ground, "explicit")
            return lambda: [build()]
        if kind == "size":
            r = rng.randint(0, size)
            return lambda: [size_constrained_modular(ground, weights, r)]
        if kind in ("dual", "domain"):
            build = component(rng, ground,
                              rng.choice(MATROID_KINDS + ("explicit",)))

            def make():
                omega = build()
                if kind == "dual":
                    return [dual_valuation(omega), omega]
                return [modular_on_domain(omega, weights), omega]
            return make
        tg = TupleGround(ground, copies)
        rank = rng.randint(0, copies * size)
        if kind == "sum":
            makers = [component(rng, ground, rng.choice(
                MATROID_KINDS + ("explicit", "dual"))) for _ in range(copies)]

            def make():
                parts = [build() for build in makers]
                return [disjoint_sum(parts)[0]] + parts
            return make
        if kind == "constraint":
            constraint = random_matroid(rng, ground, rng.randint(0, 3))

            def make():
                return [intersection_constraint_valuation(
                    copies, constraint, rank)[0]]
            return make if make()[0].witness_base is not None else None
        if kind == "penalty":
            penalties = [abs(w) for w in weights]
            return lambda: [laminar_penalty(penalties, copies, rank,
                                            ground)[0]]
        spec = TestCopyReductionExchange._laminar(rng, ground, copies)
        try:
            lift_laminar_to_copies(spec, tg, rank)
        except EmptyDomainError:
            return None
        return lambda: [lift_laminar_to_copies(spec, tg, rank)]

    @staticmethod
    def _bases(rng, scout):
        """Finite bases from random walks of finite exchanges from the
        witness, asked of a scout twin, and one rank-sized set."""
        ground = scout.ground
        bases = []
        for _ in range(4):
            x = scout.witness_base
            for _ in range(rng.randint(0, 8)):
                inside, outside = x.members(), [
                    v for v in ground.elements() if not x.contains(v)]
                if not inside or not outside:
                    break
                u, v = rng.choice(inside), rng.choice(outside)
                if scout.raw_value(x.exchange(u, v)) is not None:
                    x = x.exchange(u, v)
            bases.append(x)
        bases.append(ground.subset(rng.sample(range(ground.size),
                                              scout.rank)))
        return bases

    @staticmethod
    def _sublist(rng, elements):
        picked = [e for e in elements if rng.random() < 0.7]
        if rng.random() < 0.5:
            rng.shuffle(picked)
        return picked

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 6), st.integers(1, 3))
    def test_block_equals_pair_by_pair(self, kind, seed, size, copies):
        rng = random.Random(seed)
        if kind in ("sum", "constraint", "penalty", "lifted"):
            size = min(size, 4)
        make = self._maker(rng, kind, size, copies)
        if make is None:
            return
        ours, twin, by_value = make(), make(), value_only(make()[0])
        ground = ours[0].ground
        bases = self._bases(rng, make()[0])
        # Warm the memos alike with values near the bases.
        for x in bases:
            for _ in range(6):
                u, v = rng.randrange(ground.size), rng.randrange(ground.size)
                for oracles in (ours, twin):
                    oracles[0].raw_value(x.exchange(u, v))
        asked = len(ours) if kind != "sum" else 1
        blocks = 0
        for x in bases:
            inside = list(x.members())
            outside = [v for v in ground.elements() if not x.contains(v)]
            for _ in range(3):
                outs = self._sublist(rng, inside)
                ins = self._sublist(rng, outside)
                values = ours[0].raw_exchanges(x, outs, ins)
                pairs = [(u, v) for u in outs for v in ins]
                assert values == [twin[0].raw_value(x.exchange(u, v))
                                  for u, v in pairs], (x.mask, outs, ins)
                assert values == [by_value.raw_value(x.exchange(u, v))
                                  for u, v in pairs]
                for a, b in zip(ours[:asked], twin):
                    assert (a.calls, a.evals) == (b.calls, b.evals), a.name
                    assert list(a._memo.items()) \
                        == list(b._memo.items()), a.name
                blocks += bool(pairs)
        assert blocks > 0 or ours[0].rank in (0, ground.size)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 6), st.integers(1, 3))
    def test_best_exchange_is_the_scanned_block(self, kind, seed, size,
                                                copies):
        """`best_exchange` is the smallest finite value of the block and
        the index of its first occurrence, with the block's `calls`,
        `evals` and memo; outs and ins come shuffled, so ties go by
        position, not by element."""
        rng = random.Random(seed)
        if kind in ("sum", "constraint", "penalty", "lifted"):
            size = min(size, 4)
        make = self._maker(rng, kind, size, copies)
        if make is None:
            return
        ours, twin, by_value = make(), make(), value_only(make()[0])
        ground = ours[0].ground
        for x in self._bases(rng, make()[0]):
            inside = list(x.members())
            outside = [v for v in ground.elements() if not x.contains(v)]
            for _ in range(3):
                outs = self._sublist(rng, inside)
                ins = self._sublist(rng, outside)
                values = twin[0].raw_exchanges(x, outs, ins)
                assert values == [by_value.raw_value(x.exchange(u, v))
                                  for u in outs for v in ins]
                finite = [value for value in values if value is not None]
                expected = None if not finite else (
                    min(finite), values.index(min(finite)))
                assert ours[0].best_exchange(x, outs, ins) == expected, (
                    x.mask, outs, ins)
                for a, b in zip(ours, twin):
                    assert (a.calls, a.evals) == (b.calls, b.evals), a.name
                    assert list(a._memo.items()) == list(b._memo.items())

    def test_best_exchange_ties_go_by_position(self):
        # Weights in two values, so most blocks hold many equal minima.
        ground = GroundSet(6)
        weights = [Fraction(w) for w in (1, 0, 1, 0, 1, 0)]
        rng = random.Random(11)
        for matroid in (make_uniform(ground, 3),
                        make_partition(ground, [(ground.subset([0, 1, 2]), 2),
                                                (ground.subset([3, 4, 5]), 1)]),
                        make_graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0),
                                         (0, 2), (1, 3)])):
            ours = from_matroid_and_weights(matroid, weights)
            twin = value_only(from_matroid_and_weights(matroid, weights))
            for x in enumerate_bases(matroid):
                inside = list(x.members())
                outside = [v for v in ground.elements() if not x.contains(v)]
                for _ in range(4):
                    rng.shuffle(inside)
                    rng.shuffle(outside)
                    values = twin.raw_exchanges(x, inside, outside)
                    best = min(v for v in values if v is not None)
                    assert ours.best_exchange(x, inside, outside) == (
                        best, values.index(best)), (matroid.name, x.mask)

    @pytest.mark.parametrize("kind", ["graphic", "explicit", "sum"])
    def test_improper_blocks_raise(self, kind):
        rng = random.Random(3)
        for _ in range(30):
            make = self._maker(rng, kind, 4, 2)
            oracle = make()[0]
            ground, x = oracle.ground, oracle.witness_base
            if oracle.rank in (0, ground.size):
                continue
            inside = list(x.members())
            outside = [v for v in ground.elements() if not x.contains(v)]
            memo, calls = dict(oracle._memo), (oracle.calls, oracle.evals)
            for outs, ins, base in (
                    (outside[:1], outside[1:], x),       # u outside X
                    (inside, inside[:1], x),             # v inside X
                    (inside, [ground.size], x),          # v off the ground
                    (inside, [-1], x),
                    ([-1], outside, x),
                    (inside[1:], outside, x.remove(inside[0])),   # off rank
                    ([], outside, x.add(outside[0])),
                    (inside, outside, GroundSet(ground.size + 1).subset(
                        inside))):
                with pytest.raises(InvalidInputError):
                    oracle.raw_exchanges(base, outs, ins)
                with pytest.raises(InvalidInputError):
                    oracle.best_exchange(base, outs, ins)
            for u, v in ((ground.size + 3, outside[0]), (-1, outside[0]),
                         (inside[0], ground.size), (inside[0], -1)):
                with pytest.raises(InvalidInputError, match="out of range"):
                    oracle.raw_exchanges(x, [u], [v])
                with pytest.raises(InvalidInputError, match="out of range"):
                    oracle.raw_exchanges(x, inside[:1] + [u],
                                         outside[:1] + [v])
            with pytest.raises(InvalidInputError, match="non-members"):
                oracle.raw_exchanges(x, inside[:1], outside[:1] + inside[:1])
            assert oracle._memo == memo
            assert (oracle.calls, oracle.evals) == calls


class TestLeavesKeepNoMemo:
    """A leaf (an oracle with a `block_fn`) answers every public query
    from its hooks: each call is one eval, and the memo stays empty."""

    LEAVES = ("uniform", "partition", "graphic", "size", "constraint",
              "penalty", "lifted")

    @pytest.mark.parametrize("kind", LEAVES)
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 4), st.integers(1, 3))
    def test_every_query_is_an_eval(self, kind, seed, size, copies):
        make = TestBlockExchanges._maker(random.Random(seed), kind, size,
                                         copies)
        if make is None:
            return
        (oracle,) = make()
        assert oracle._block_fn is not None
        ground, x = oracle.ground, oracle.witness_base
        inside = list(x.members())
        outside = [v for v in ground.elements() if not x.contains(v)]
        pairs = [(u, v) for u in inside for v in outside]
        u, v = (inside or outside)[0], (outside or inside)[-1]
        domain = math.comb(ground.size, oracle.rank)
        queries = [
            (1, lambda: oracle.value(x)),
            (1, lambda: oracle.raw_value(x)),
            (1, lambda: oracle.in_domain(x)),
            (1, lambda: oracle.raw_value(ground.full())),
            (1, lambda: oracle.raw_value(x.exchange(u, v))),
            (1, lambda: oracle.raw_value(x.exchange(v, u))),
            (1, lambda: oracle.raw_value(x.exchange(u, u))),
            (len(pairs), lambda: oracle.raw_exchanges(x, inside, outside)),
            (len(pairs), lambda: oracle.best_exchange(x, inside, outside)),
            (domain, lambda: oracle.enumerate_domain()),
        ]
        oracle.reset_counters()
        for calls, query in queries + queries:
            before = oracle.calls
            query()
            assert oracle.calls == before + calls
            assert oracle.evals == oracle.calls
            assert oracle._memo == {}


class TestScale:
    """Every oracle keeps ints over its denominator in the memo and hands
    out the same exact values; a disjoint sum is scaled by the lcm of its
    components' denominators."""

    WEIGHTS = tuple(Fraction(w) for w in TestModularSum.WEIGHTS)   # D = 60

    @staticmethod
    def _agrees(omega, scale):
        assert omega.scale == scale
        finite = 0
        for x in omega.ground.subsets_of_size(omega.rank):
            raw, value = omega.raw_value(x), omega.value(x)
            if raw is None:
                assert value == INF
                continue
            finite += 1
            assert type(raw) is int
            assert value == ExtValue(Fraction(raw, scale))
        assert finite > 0

    def test_constructors_and_their_denominators(self):
        ws = self.WEIGHTS
        g6 = GroundSet(6)
        uniform = make_uniform(g6, 3)
        omega = from_matroid_and_weights(uniform, ws)
        sevenths = from_matroid_and_weights(make_uniform(g6, 2),
                                            [Fraction(k, 7) for k in range(6)])
        self._agrees(omega, 60)
        self._agrees(size_constrained_modular(g6, ws, 3), 60)
        self._agrees(dual_valuation(omega), 60)
        self._agrees(indicator_of_matroid(uniform), 1)
        self._agrees(modular_on_domain(indicator_of_matroid(uniform), ws), 60)
        g3 = GroundSet(3)
        self._agrees(disjoint_sum([from_matroid_and_weights(
            make_uniform(g3, 1), ws[:3]), from_matroid_and_weights(
            make_uniform(g3, 2), [Fraction(1, 7)] * 3)])[0], 84)
        self._agrees(laminar_penalty([abs(w) for w in ws[:3]], 2, 4, g3)[0],
                     12)
        self._agrees(intersection_constraint_valuation(
            2, make_uniform(g3, 1), 4)[0], 1)
        spec = LaminarSpec(g3, (g3.subset([0, 1]), g3.subset([2])),
                           (ConvexTable(0, tuple(Fraction(k * k, 5)
                                                 for k in range(5))),
                            ConvexTable(1, (Fraction(1, 2), Fraction(0)))))
        tg = TupleGround(g3, 2)
        self._agrees(lift_laminar_to_copies(spec, tg, 3), 10)
        explicit = valuation_from_explicit(
            g6, 2, {x.mask: dot(ws, x) for x in g6.subsets_of_size(2)})
        self._agrees(explicit, 60)
        self._agrees(dual_valuation(explicit), 60)
        squares = LaminarSpec(g3, (g3.subset([0, 1]),),
                              (ConvexTable(0, (Fraction(1, 6), Fraction(0),
                                               Fraction(1, 4))),))
        self._agrees(laminar_valuation(g3, [m.mask for m in squares.members],
                                       squares.tables, 2, "squares"), 12)

    def test_witness_value_must_be_an_int(self):
        g2 = GroundSet(2)
        with pytest.raises(InvalidInputError):
            ValuationOracle(g2, 1, lambda x: Fraction(1, 2), g2.subset([0]))

    def test_explicit_component_joins_the_lcm(self):
        g3 = GroundSet(3)
        ws = (Fraction(1, 3), Fraction(-5, 4), Fraction(2))
        explicit = valuation_from_explicit(
            g3, 1, {1 << v: ws[v] for v in range(3)})
        scaled = from_matroid_and_weights(make_uniform(g3, 2),
                                          [Fraction(1, 7)] * 3)
        total, tg = disjoint_sum([explicit, scaled])
        self._agrees(explicit, 12)
        self._agrees(total, 84)
        for x in total.ground.subsets_of_size(total.rank):
            first, second = tg.to_parts(x)
            assert total.value(x) == explicit.value(first) + scaled.value(second)


class TestDualValuation:
    def test_dual_example(self):
        g2 = GroundSet(2, ("a", "b"))
        omega = from_matroid_and_weights(make_uniform(g2, 1), [1, 3])
        dual = dual_valuation(omega)
        assert dual.value(g2.subset([0])) == ExtValue(3)
        assert dual.rank == 1

    def test_dual_involution_pointwise(self, g3):
        omega = from_matroid_and_weights(make_uniform(g3, 2), [1, 2, 4])
        back = dual_valuation(dual_valuation(omega))
        for subset in g3.all_subsets():
            assert back.value(subset) == omega.value(subset)

    def test_dual_preserves_exchange(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(1, 5)
            ground = GroundSet(n)
            omega = from_matroid_and_weights(
                random_matroid(rng, ground), random_weights(rng, n))
            assert check_valuated_exchange(dual_valuation(omega))


    @pytest.mark.parametrize("kind", ["graphic", "uniform", "linear"])
    def test_block_misses_reach_the_base_as_one_batch(self, kind,
                                                      monkeypatch):
        """A block of the dual reaches its base on the complement with
        outs and ins swapped: a leaf base (graphic, uniform) gets it as
        one block, a base with a memo (linear) row by row, each row u as
        a block of its own.  The dual keeps no memo and has checked the
        block, so it asks `_block`.  A block of
        `modular_on_domain` sends each miss to the value of the set in
        the oracle it asks, u-major, on the same base."""
        ground = GroundSet(8)
        make = (lambda: from_matroid_and_weights(
            random_matroid(random.Random(5), ground, kinds=(kind,)),
            [Fraction(w, 3) for w in range(8)]))
        on_domain = (lambda omega: modular_on_domain(
            omega, [Fraction(1, 1 + w) for w in range(8)]))
        for outer in (dual_valuation, on_domain):
            rng = random.Random(17)
            omega, twin = make(), make()
            composite, twin_composite = outer(omega), outer(twin)
            x = composite.witness_base
            inside = list(x.members())
            outside = [v for v in ground.elements() if not x.contains(v)]
            warm = [(rng.choice(inside), rng.choice(outside))
                    for _ in range(4)]
            for u, v in warm:
                composite.raw_exchanges(x, [u], [v])
                twin_composite.raw_value(x.exchange(u, v))
            entries = []
            dual = outer is dual_valuation
            asked, other = ("_block", "raw_value") if dual \
                else ("raw_value", "_block")
            real = getattr(omega, asked)

            def counted(base, *lists):
                entries.append((base.mask, *map(list, lists)))
                return real(base, *lists)

            def unasked(*args):
                raise AssertionError(f"a block asked its base's {other}")

            monkeypatch.setattr(omega, asked, counted)
            monkeypatch.setattr(omega, other, unasked)
            values = composite.raw_exchanges(x, inside, outside)
            pairs = [(u, v) for u in inside for v in outside]
            if dual and kind == "linear":
                expected = [(x.complement().mask, outside, [u])
                            for u in inside]
            elif dual:
                expected = [(x.complement().mask, outside, inside)]
            else:
                expected = [(x.exchange(u, v).mask,) for u, v in pairs
                            if (u, v) not in warm]
            assert entries == expected
            assert values == [twin_composite.raw_value(x.exchange(u, v))
                              for u in inside for v in outside]
            for a, b in ((composite, twin_composite), (omega, twin)):
                assert (a.calls, a.evals) == (b.calls, b.evals)
                assert list(a._memo.items()) == list(b._memo.items())
            # Again: the dual, with no memo, asks its base the same blocks;
            # every pair of `modular_on_domain` is a hit.
            composite.raw_exchanges(x, inside, outside)
            assert entries == expected * (1 + dual)

    def test_modular_single_exchange_reads_the_table(self, monkeypatch):
        ground = GroundSet(6)
        matroid = make_uniform(ground, 3)
        omega = from_matroid_and_weights(matroid, [1, 2, 4, 8, 16, 32])
        reference = value_only(omega)

        def independence(*args):
            raise AssertionError("a single exchange tested independence")

        monkeypatch.setattr(matroid, "is_independent", independence)
        x = omega.witness_base
        assert omega.raw_exchanges(x, [0], [5]) == [2 + 4 + 32]
        assert omega.raw_exchanges(x, [1], [3]) == [1 + 4 + 8]
        assert omega.raw_exchanges(x, [2, 0], [4, 3]) == [
            1 + 2 + 16, 1 + 2 + 8, 2 + 4 + 16, 2 + 4 + 8]
        assert omega.raw_value(x.exchange(1, 5)) == 1 + 4 + 32
        monkeypatch.undo()
        for u, v in ((0, 5), (1, 3), (2, 4), (0, 3)):
            assert omega.raw_exchanges(x, [u], [v]) == [reference.raw_value(
                x.exchange(u, v))]


class TestDisjointSum:
    def test_values_add(self):
        g2 = GroundSet(2, ("a", "b"))
        d1 = indicator_of_matroid(make_uniform(g2, 1))
        d2 = indicator_of_matroid(make_uniform(g2, 1))
        total, tg = disjoint_sum([d1, d2])
        assert total.rank == 2
        assert total.value(tg.to_subset([g2.subset([0]), g2.subset([1])])) \
            == ExtValue(0)
        # Any infinite summand absorbs: two elements in one copy.
        bad = Subset(tg.combined, 0b0011)
        assert total.value(bad) == INF

    def test_single_copy_identity(self, g3):
        omega = from_matroid_and_weights(make_uniform(g3, 2), [1, 2, 4])
        total, tg = disjoint_sum([omega])
        for subset in omega.enumerate_domain():
            assert total.value(tg.to_subset([subset])) == omega.value(subset)

    @staticmethod
    def _maker(rng, ground, copies):
        """A maker of [sum, component of copy 0, ...]; some sums ask one
        shared component in every copy."""
        kinds = MATROID_KINDS + ("explicit", "dual")
        component = TestCopyReductionExchange._component
        makers = [component(rng, ground, rng.choice(kinds))
                  for _ in range(copies)]
        shared = rng.random() < 0.25

        def make():
            parts = [makers[0]()] * copies if shared \
                else [build() for build in makers]
            return [disjoint_sum(parts)[0]] + parts
        return make

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 5), st.integers(1, 3))
    def test_answers_like_its_value_only_twin(self, seed, size, copies):
        """The sum is a leaf: the values and `calls` of a value-only twin
        asked `value`, every call an eval and no memo."""
        rng = random.Random(seed)
        ground = GroundSet(size)
        make = self._maker(rng, ground, copies)
        ours, twin = make()[0], value_only(make()[0])
        ours.reset_counters()
        twin.reset_counters()
        queries = TestCopyReductionExchange._queries(
            rng, TupleGround(ground, copies), ours.rank, ours.witness_base)
        for x, u, v in queries:
            assert exchange_of(ours, x, u, v) == twin.raw_value(
                x.exchange(u, v)), (x.mask, u, v)
            assert ours.calls == twin.calls == ours.evals
        assert ours._memo == {}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 4), st.integers(1, 3))
    def test_blocks_ask_each_copy_its_own_block(self, seed, size, copies):
        """At a base, a block across copies asks no component; a mixed
        block, its rows and columns shuffled, asks each component its
        part's value once per base and then, when every other part is
        finite, one `raw_exchanges` of the pairs inside its copy.  A
        mirror asked just that has the same `calls`, `evals` and memo on
        every component.  At any other rank-sized set each pair asks the
        value function."""
        rng = random.Random(seed)
        ground = GroundSet(size)
        make = self._maker(rng, ground, copies)
        ours, mirror, by_value = make(), make(), value_only(make()[0])
        tg = TupleGround(ground, copies)
        total = ours[0]
        components = ours[1:]
        blocks = 0
        asked = None    # the base whose parts the mirror asked last
        for x in TestBlockExchanges._bases(rng, make()[0]):
            parts = tg.to_parts(x)
            inside = list(x.members())
            outside = [v for v in tg.combined.elements()
                       if not x.contains(v)]
            balanced = all(part.cardinality() == om.rank
                           for part, om in zip(parts, mirror[1:]))
            for _ in range(3):
                outs = TestBlockExchanges._sublist(rng, inside)
                ins = TestBlockExchanges._sublist(rng, outside)
                values = total.raw_exchanges(x, outs, ins)
                assert values == [by_value.raw_value(x.exchange(u, v))
                                  for u in outs for v in ins], (x.mask,
                                                                outs, ins)
                blocks += bool(values)
                if not balanced:
                    for u in outs:
                        for v in ins:
                            mirror[0]._value_fn(x.exchange(u, v))
                else:
                    across = [(u, v) for u in outs for v in ins
                              if u // size != v // size]
                    before = [(om.calls, om.evals) for om in components]
                    assert [total.raw_exchanges(x, [u], [v])[0]
                            for u, v in across] == [None] * len(across)
                    assert [(om.calls, om.evals)
                            for om in components] == before
                    rows = [[u % size for u in outs if u // size == i]
                            for i in range(copies)]
                    columns = [[v % size for v in ins if v // size == i]
                               for i in range(copies)]
                    inner = [i for i in range(copies)
                             if rows[i] and columns[i]]
                    if inner and asked != x.mask:
                        asked = x.mask
                        terms = [om.raw_value(part)
                                 for om, part in zip(mirror[1:], parts)]
                    for i in inner:
                        if all(term is not None for j, term
                               in enumerate(terms) if j != i):
                            mirror[1 + i].raw_exchanges(parts[i], rows[i],
                                                        columns[i])
                for a, b in zip(components, mirror[1:]):
                    assert (a.calls, a.evals) == (b.calls, b.evals), a.name
                    assert list(a._memo.items()) == list(b._memo.items())
        assert total._memo == {}
        assert total.evals == total.calls
        assert blocks > 0 or total.rank in (0, tg.combined.size)


class TestIntersectionConstraint:
    def test_rank0_constraint(self):
        g2 = GroundSet(2, ("a", "b"))
        delta, tg = intersection_constraint_valuation(
            2, make_uniform(g2, 0), 2)
        good = tg.to_subset([g2.subset([0]), g2.subset([1])])
        bad = tg.to_subset([g2.subset([0]), g2.subset([0])])
        assert delta.value(good) == ExtValue(0)
        assert delta.value(bad) == INF

    def test_free_constraint_counts_only(self, g3):
        delta, tg = intersection_constraint_valuation(2, make_free(g3), 4)
        assert delta.witness_base is not None
        x = tg.to_subset([g3.subset([0, 1]), g3.subset([0, 2])])
        assert delta.value(x) == ExtValue(0)

    def test_derived_example(self, g3):
        delta, tg = intersection_constraint_valuation(
            2, make_uniform(g3, 1), 4)
        finite = tg.to_subset([g3.subset([0, 1]), g3.subset([0, 2])])
        infinite = tg.to_subset([g3.subset([0, 1]), g3.subset([0, 1])])
        assert delta.value(finite) == ExtValue(0)
        assert delta.value(infinite) == INF

    def test_empty_domain_reported(self, g3):
        # Intersection must be empty but total size forces overlap.
        delta, _ = intersection_constraint_valuation(2, make_uniform(g3, 0), 6)
        assert delta.witness_base is None


class TestLaminarPenalty:
    def test_full_count_pays(self):
        g1 = GroundSet(1, ("a",))
        omega, tg = laminar_penalty([Fraction(2)], 3, 3, g1)
        all_copies = tg.to_subset([g1.subset([0])] * 3)
        assert omega.value(all_copies) == ExtValue(2)

    def test_partial_count_free(self):
        g2 = GroundSet(2, ("a", "b"))
        omega, tg = laminar_penalty([Fraction(9), Fraction(9)], 2, 2, g2)
        split = tg.to_subset([g2.subset([0]), g2.subset([1])])
        assert omega.value(split) == ExtValue(0)

    def test_off_hyperplane_infinite(self):
        g2 = GroundSet(2, ("a", "b"))
        omega, tg = laminar_penalty([Fraction(1), Fraction(1)], 2, 2, g2)
        assert omega.value(Subset(tg.combined, 0b0001)) == INF

    def test_negative_rejected(self, g3):
        with pytest.raises(InvalidInputError):
            laminar_penalty([Fraction(-1), Fraction(0), Fraction(0)], 2, 2, g3)

    def test_identity_with_intersection_weight(self):
        # On the hyperplane the penalty equals the weight of the common part.
        rng = random.Random(17)
        g2 = GroundSet(2, ("a", "b"))
        for _ in range(10):
            ws = [abs(w) for w in random_weights(rng, 2)]
            r = rng.randint(0, 4)
            omega, tg = laminar_penalty(ws, 2, r, g2)
            for subset in omega.enumerate_domain():
                inter = tg.common_intersection(subset)
                expected = sum(ws[v] for v in inter.members())
                assert omega.value(subset) == ExtValue(expected)


def _random_laminar_family(rng, elements):
    """A random laminar family on `elements`: the block itself with
    probability 0.6, then the families of a random split into at least
    two blocks."""
    family = [elements] if rng.random() < 0.6 else []
    if len(elements) > 1:
        order = list(elements)
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, len(order)),
                                 rng.randint(1, len(order) - 1)))
        for lo, hi in zip([0] + cuts, cuts + [len(order)]):
            family += _random_laminar_family(rng, order[lo:hi])
    return family


class TestLaminarConvexFunction:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(
        [(1, 8), (1, 5), (2, 5), (2, 3), (3, 4), (3, 2), (4, 3), (7, 2)]))
    def test_laminar_sums_pass_mnat_exchange_on_the_copy_box(self, seed,
                                                             shape):
        # The property the congestion solve relies on without checking:
        # a laminar sum of convex tables is M-natural-convex on the box
        # of copy counts 0..n (at most 256 points here).
        copies, size = shape
        rng = random.Random(seed)
        ground = GroundSet(size)
        members = tuple(ground.subset(block) for block in
                        _random_laminar_family(rng, list(range(size))))
        tables = []
        for member in members:
            top = member.cardinality() * copies
            start = rng.randint(0, top // 2)
            tables.append(random_convex_table(
                rng, start, rng.randint(top // 2 + 1 - start, top + 1 - start)))
        spec = LaminarSpec(ground, members, tuple(tables))
        try:
            fn = laminar_convex_function(spec, (0,) * size, (copies,) * size)
        except EmptyDomainError:
            return
        assert fn.box_volume() <= 256
        assert check_mnat_exchange(fn, fn.box_volume())

    def test_singleton_squares(self):
        g2 = GroundSet(2, ("a", "b"))
        spec = LaminarSpec(
            g2, (g2.subset([0]), g2.subset([1])),
            (ConvexTable(0, (Fraction(0), Fraction(1), Fraction(4))),
             ConvexTable(0, (Fraction(0), Fraction(1), Fraction(4)))))
        fn = laminar_convex_function(spec)
        assert fn.value(IntVector((1, 2))) == ExtValue(5)
        assert fn.value(IntVector((0, 3))) == INF

    def test_empty_family_identically_zero(self):
        g2 = GroundSet(2)
        spec = LaminarSpec(g2, (), ())
        fn = laminar_convex_function(spec, [0, 0], [2, 2])
        assert fn.value(IntVector((1, 2))) == ExtValue(0)

    def test_nonconvex_table_rejected(self):
        with pytest.raises(InvalidInputError):
            ConvexTable(0, (Fraction(0), Fraction(10), Fraction(5)))

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(-5, 5, max_denominator=12),
           st.lists(st.sampled_from([Fraction(n, d) for n in range(-3, 4)
                                     for d in (1, 2, 3, 4, 6)]), max_size=8),
           st.booleans())
    def test_convexity_verdict_is_the_rational_one(self, first, increments,
                                                   ordered):
        """The check on the scaled ints accepts a table exactly when
        g(k+1) + g(k-1) >= 2 g(k) holds in rationals; sorted increments
        drawn from few values give equal second differences."""
        if ordered:
            increments.sort()
        values = tuple(itertools.accumulate(increments, initial=first))
        convex = all(values[i + 2] + values[i] >= 2 * values[i + 1]
                     for i in range(len(values) - 2))
        if convex:
            assert ConvexTable(0, values).values == values
        else:
            with pytest.raises(InvalidInputError):
                ConvexTable(0, values)

    def test_non_laminar_rejected(self, g3):
        with pytest.raises(InvalidInputError):
            LaminarSpec(
                g3, (g3.subset([0, 1]), g3.subset([1, 2])),
                (ConvexTable(0, (Fraction(0),)), ConvexTable(0, (Fraction(0),))))

    def test_laminar_outputs_pass_mnat_exchange(self):
        rng = random.Random(29)
        from vmint.rand_instances import random_convex_table
        for _ in range(10):
            n = rng.randint(1, 3)
            ground = GroundSet(n)
            members = tuple(ground.subset([v]) for v in range(n))
            tables = tuple(random_convex_table(rng, 0, rng.randint(2, 4))
                           for _ in range(n))
            fn = laminar_convex_function(LaminarSpec(ground, members, tables))
            assert check_mnat_exchange(fn)


class TestRestrictToHyperplane:
    """`laminar_convex_function` with a `total` is the laminar function
    restricted to that coordinate sum, an `MnatFunction` on every box."""

    def test_zero_function_restriction(self):
        g3 = GroundSet(3)
        spec = LaminarSpec(g3, (), ())
        fn = laminar_convex_function(spec, [0, 0, 0], [1, 1, 1], 2)
        assert isinstance(fn, MnatFunction)
        assert fn.enumerate_domain() == [IntVector(x) for x in
                                         ((0, 1, 1), (1, 0, 1), (1, 1, 0))]
        assert fn.witness_point == IntVector((1, 1, 0))

    def test_unreachable_sum_empty(self):
        g2 = GroundSet(2)
        spec = LaminarSpec(g2, (), ())
        with pytest.raises(EmptyDomainError):
            laminar_convex_function(spec, [0, 0], [1, 1], 5)

    def test_squares_on_hyperplane(self):
        g2 = GroundSet(2)
        spec = LaminarSpec(
            g2, (g2.subset([0]), g2.subset([1])),
            (ConvexTable(0, (Fraction(0), Fraction(1), Fraction(4))),
             ConvexTable(0, (Fraction(0), Fraction(1), Fraction(4)))))
        restricted = laminar_convex_function(spec, total=2)
        assert restricted.value(IntVector((1, 1))) == ExtValue(2)
        assert restricted.value(IntVector((2, 0))) == ExtValue(4)
        assert restricted.value(IntVector((1, 0))) == INF
        assert restricted.witness_point == IntVector((0, 2))

    def test_zero_one_box_without_a_sum_keeps_box_order(self):
        # The finite points are (1, 0) and (0, 1).  Box order puts (0, 1)
        # first; with a sum on a 0/1 box the witness is the smallest mask,
        # (1, 0), as for `laminar_valuation`.
        g2 = GroundSet(2)
        spec = LaminarSpec(g2, (g2.full(),), (ConvexTable(1, (Fraction(0),)),))
        fn = laminar_convex_function(spec, [0, 0], [1, 1])
        assert fn.witness_point == IntVector((0, 1))
        restricted = laminar_convex_function(spec, [0, 0], [1, 1], 1)
        assert restricted.witness_point == IntVector((1, 0))
        assert restricted.witness_point == subset_to_vector(laminar_valuation(
            g2, [g2.full().mask], spec.tables, 1, "reference").witness_base)


def _old_laminar_value(spec):
    """The rational evaluator that `laminar_convex_function` used before
    its values were summed as ints over one denominator."""
    member_data = tuple((m.members(), t) for m, t in zip(spec.members,
                                                          spec.tables))

    def value(x: IntVector) -> ExtValue:
        total = ExtValue(0)
        for members, table in member_data:
            term = table.at(sum(x[v] for v in members))
            if not term.is_finite:
                return INF
            total = total + term
        return total
    return value


def _box_scan(value, lower, upper):
    """The `itertools.product` box scan that found the witnesses of the
    laminar functions on vectors, restricted to a coordinate sum or not,
    before `_laminar_point`: the first finite point in `iter_box` order."""
    ranges = [range(lo, hi + 1) for lo, hi in zip(lower, upper)]
    for combo in itertools.product(*ranges):
        x = IntVector(combo)
        if value(x).is_finite:
            return x
    return None


def _subset_scan(ground, r, value):
    """The r-subset scan that found the witnesses of the laminar
    functions restricted to a coordinate sum on a 0/1 box, and of the
    lifted laminar function on the combined ground: the first finite
    r-subset in increasing mask order."""
    for candidate in ground.subsets_of_size(r):
        if value(candidate).is_finite:
            return candidate
    return None


def _random_spec(rng, lower, upper):
    """A random laminar spec with some duplicate members and some
    elements in no member; each table's interval may miss the sums its
    member reaches when element v ranges over [lower[v], upper[v]]."""
    ground = GroundSet(len(lower))
    blocks = _random_laminar_family(rng, list(ground.elements()))
    blocks += [rng.choice(blocks) for _ in range(rng.randint(0, 2)) if blocks]
    return LaminarSpec(ground, tuple(ground.subset(b) for b in blocks),
                       _random_tables(rng, blocks, lower, upper))


def _random_tables(rng, blocks, lower, upper):
    """A convex table per block whose interval may miss the sums the
    block reaches on the box [lower, upper]."""
    tables = []
    for block in blocks:
        low = sum(lower[v] for v in block)
        high = sum(upper[v] for v in block)
        start = rng.randint(low - 1, (low + high) // 2 + 1)
        reach = high - start + 1
        tables.append(random_convex_table(
            rng, start, rng.randint(max(1, reach // 2), max(1, reach + 1))))
    return tuple(tables)


def _random_box(rng, zero_one):
    """A box of volume at most 256, with negative lower bounds and fixed
    coordinates, or a 0/1 box with fixed coordinates."""
    lower, upper, volume = [], [], 1
    for _ in range(rng.randint(1, 8 if zero_one else 5)):
        if zero_one:
            lo, hi = rng.choice([(0, 0), (0, 1), (0, 1), (1, 1)])
        else:
            lo = rng.randint(-2, 1)
            hi = lo + rng.randint(0, min(3, 256 // volume - 1))
        lower.append(lo)
        upper.append(hi)
        volume *= hi - lo + 1
    return lower, upper


class TestLaminarWitness:
    """The witnesses of the laminar constructors equal the first finite
    point of the scans they replaced, and their values equal the old
    evaluators' on every point."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32), st.booleans())
    def test_function_and_restriction_match_the_scans(self, seed, zero_one):
        rng = random.Random(seed)
        lower, upper = _random_box(rng, zero_one)
        spec = _random_spec(rng, lower, upper)
        old = _old_laminar_value(spec)
        expected = _box_scan(old, lower, upper)
        if expected is None:
            with pytest.raises(EmptyDomainError):
                laminar_convex_function(spec, lower, upper)
            return
        fn = laminar_convex_function(spec, lower, upper)
        assert fn.witness_point == expected
        points = [IntVector(c) for c in itertools.product(
            *(range(lo, hi + 1) for lo, hi in zip(lower, upper)))]
        for x in points:
            assert fn.value(x) == old(x)
        r = rng.randint(sum(lower) - 1, sum(upper) + 1)

        def old_restricted(x):
            return INF if x.total() != r else old(x)
        if min(lower) < 0 or max(upper) > 1:
            witness = _box_scan(old_restricted, lower, upper)
            if witness is None:
                with pytest.raises(EmptyDomainError):
                    laminar_convex_function(spec, lower, upper, r)
                return
            restricted = laminar_convex_function(spec, lower, upper, r)
            assert restricted.witness_point == witness
            for x in points:
                assert restricted.value(x) == old_restricted(x)
            return

        # On a 0/1 box the reference is `laminar_valuation`, with each
        # coordinate the box fixes as a singleton with a one-point table.
        ground = spec.ground
        fixed = [i for i in ground.elements() if lower[i] == upper[i]]
        masks = [m.mask for m in spec.members] + [1 << i for i in fixed]
        tables = list(spec.tables) + [ConvexTable(lower[i], (Fraction(0),))
                                      for i in fixed]

        def old_subset(subset):
            x = subset_to_vector(subset)
            inside = all(lo <= v <= hi
                         for lo, v, hi in zip(lower, x.entries, upper))
            return old_restricted(x) if inside else INF
        witness = _subset_scan(ground, r, old_subset)
        if witness is None:
            with pytest.raises(EmptyDomainError):
                laminar_convex_function(spec, lower, upper, r)
            with pytest.raises(EmptyDomainError):
                laminar_valuation(ground, masks, tables, r, "reference")
            return
        restricted = laminar_convex_function(spec, lower, upper, r)
        reference = laminar_valuation(ground, masks, tables, r, "reference")
        assert restricted.witness_point == subset_to_vector(witness)
        assert reference.witness_base == witness
        for subset in ground.all_subsets():
            x = subset_to_vector(subset)
            assert restricted.value(x) == reference.value(subset)
            assert restricted.value(x) == old_subset(subset)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32), st.booleans(), st.booleans())
    def test_point_matches_the_rescan(self, seed, zero_one, with_total):
        """The point with per-member sums of the own elements' bounds is
        the point of the routine that rescans them on every probe."""
        rng = random.Random(seed)
        for _ in range(4):      # most draws with many members are empty
            n = rng.randint(1, 24)
            if zero_one:
                lower = [rng.choice((0, 0, 0, 1)) for _ in range(n)]
                upper = [max(lo, rng.choice((0, 1, 1, 1))) for lo in lower]
            else:
                lower = [rng.randint(-3, 2) for _ in range(n)]
                upper = [lo + rng.randint(0, 5) for lo in lower]
            spec = _random_spec(rng, lower, upper)
            masks = [m.mask for m in spec.members]
            total = rng.randint(sum(lower) - 1, sum(upper) + 1) \
                if with_total else None
            expected = laminar_point_rescan(masks, spec.tables, lower,
                                            upper, total)
            assert _laminar_point(masks, spec.tables, lower, upper,
                                  total) == expected

    def test_spec_accepts_what_the_pairwise_rule_does(self):
        """One pass over the members, largest first, accepts exactly the
        families in which no two members cross."""
        rng = random.Random(3030)
        table = ConvexTable(0, (Fraction(0),))
        verdicts = set()
        for _ in range(400):
            n = rng.randint(1, 7)
            ground = GroundSet(n)
            order = list(range(n))
            rng.shuffle(order)
            blocks = _random_laminar_family(rng, order)
            blocks += [order[:rng.randint(1, n)]
                       for _ in range(rng.randint(0, 3))]        # a chain
            blocks += [rng.choice(blocks) for _ in range(rng.randint(0, 2))
                       if blocks]
            blocks += [rng.sample(order, rng.randint(1, n))
                       for _ in range(rng.choice((0, 0, 1, 2)))]
            rng.shuffle(blocks)
            members = tuple(ground.subset(b) for b in blocks)
            laminar = all(a.mask & b.mask in (0, a.mask, b.mask)
                          for a, b in itertools.combinations(members, 2))
            verdicts.add(laminar)
            if laminar:
                LaminarSpec(ground, members, (table,) * len(members))
            else:
                with pytest.raises(InvalidInputError,
                                   match="family is not laminar"):
                    LaminarSpec(ground, members, (table,) * len(members))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("shape", ["wide", "deep"])
    def test_point_matches_the_rescan_on_wide_and_deep_families(self,
                                                                  shape):
        """About one member per coordinate, or one chain of nested
        members: each probe moves the owner and its ancestors alone."""
        rng = random.Random(shape)
        found = {True: 0, False: 0}
        for _ in range(60):
            n = rng.randint(20, 40)
            lower = [rng.randint(-2, 1) for _ in range(n)]
            upper = [lo + rng.randint(0, 3) for lo in lower]
            order = list(range(n))
            rng.shuffle(order)
            if shape == "wide":
                blocks = [[v] for v in order if rng.random() < 0.9]
                blocks += [order[i:i + 2] for i in range(0, n - 1, 7)]
            else:
                blocks = [order[:i] for i in range(n, 0, -1)
                          if rng.random() < 0.8]
            tables = _random_tables(rng, blocks, lower, upper)
            masks = [sum(1 << v for v in b) for b in blocks]
            for total in (None, rng.randint(sum(lower), sum(upper))):
                expected = laminar_point_rescan(masks, tables, lower, upper,
                                                total)
                found[expected is not None] += 1
                assert _laminar_point(masks, tables, lower, upper,
                                      total) == expected
        assert found[True] and found[False]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 4), st.integers(1, 3))
    def test_lift_matches_the_combined_ground_scan(self, seed, size, copies):
        rng = random.Random(seed)
        size = min(size, 8 // copies)
        spec = _random_spec(rng, [0] * size, [copies] * size)
        ground = spec.ground
        tg = TupleGround(ground, copies)
        rank = rng.randint(-1, size * copies + 1)
        masks = [m.mask for m in spec.members]

        def old_value(subset):
            total = Fraction(0)
            for member_mask, table in zip(masks, spec.tables):
                count = 0
                for i in range(tg.n):
                    count += bin(subset.mask >> (i * size)
                                 & member_mask).count("1")
                term = table.at(count)
                if not term.is_finite:
                    return INF
                total += term.finite
            return ExtValue(total)
        witness = _subset_scan(tg.combined, rank, old_value)
        if witness is None:
            with pytest.raises(EmptyDomainError):
                lift_laminar_to_copies(spec, tg, rank)
            return
        lifted = lift_laminar_to_copies(spec, tg, rank)
        assert lifted.witness_base == witness
        for subset in tg.combined.subsets_of_size(rank):
            assert lifted.value(subset) == old_value(subset)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 4), st.integers(1, 3))
    def test_penalty_matches_the_common_intersection(self, seed, size,
                                                     copies):
        rng = random.Random(seed)
        ground = GroundSet(size)
        weights = [abs(w) for w in random_weights(rng, size)]
        rank = rng.randint(0, size * copies)
        omega, tg = laminar_penalty(weights, copies, rank, ground)
        assert omega.witness_base == _subset_scan(
            tg.combined, rank, lambda x: ExtValue(0))
        for subset in tg.combined.subsets_of_size(rank):
            assert omega.value(subset) == ExtValue(
                dot(weights, tg.common_intersection(subset)))


class TestExchangeCheckers:
    def test_modular_on_matroid_passes(self):
        rng = random.Random(41)
        for _ in range(15):
            n = rng.randint(1, 5)
            ground = GroundSet(n)
            omega = from_matroid_and_weights(
                random_matroid(rng, ground), random_weights(rng, n))
            assert check_valuated_exchange(omega)

    def test_laminar_penalty_passes(self):
        rng = random.Random(43)
        for _ in range(10):
            n_copies = rng.randint(1, 3)
            size = rng.randint(1, 3)
            ground = GroundSet(size)
            ws = [abs(w) for w in random_weights(rng, size)]
            r = rng.randint(0, n_copies * size)
            omega, _ = laminar_penalty(ws, n_copies, r, ground)
            assert check_valuated_exchange(omega)

    def test_disjoint_sum_passes(self):
        rng = random.Random(44)
        for _ in range(8):
            size = rng.randint(1, 3)
            copies = rng.randint(1, 3)
            ground = GroundSet(size)
            parts = [from_matroid_and_weights(random_matroid(rng, ground,
                                                             max_rank=2),
                                              random_weights(rng, size))
                     for _ in range(copies)]
            total, _ = disjoint_sum(parts)
            assert check_valuated_exchange(total)

    def test_intersection_constraint_passes(self):
        rng = random.Random(45)
        for _ in range(8):
            size = rng.randint(1, 3)
            copies = rng.randint(1, 3)
            ground = GroundSet(size)
            constraint = random_matroid(rng, ground, max_rank=size)
            r = rng.randint(0, copies * size)
            delta, _ = intersection_constraint_valuation(copies, constraint, r)
            if delta.witness_base is not None:
                assert check_valuated_exchange(delta)

    def test_hyperplane_restriction_passes(self):
        rng = random.Random(46)
        from vmint.rand_instances import random_convex_table
        for _ in range(8):
            size = rng.randint(1, 3)
            ground = GroundSet(size)
            members = tuple(ground.subset([v]) for v in range(size))
            tables = tuple(random_convex_table(rng, 0, 2) for _ in range(size))
            r = rng.randint(0, size)
            restricted = laminar_convex_function(
                LaminarSpec(ground, members, tables), total=r)
            assert check_mnat_exchange(restricted)

    def test_non_family_indicator_fails(self):
        g4 = GroundSet(4, ("a", "b", "c", "d"))
        table = {0b0011: Fraction(0), 0b1100: Fraction(0)}
        omega = valuation_from_explicit(g4, 2, table)
        assert not check_valuated_exchange(omega)

    def test_mixed_sign_penalty_formula_fails_exchange(self):
        # Rebuild the penalty formula with a negative weight by hand: the
        # public constructor rejects it, and the raw function indeed
        # violates the exchange axiom.
        g2 = GroundSet(2, ("a", "b"))
        tg = TupleGround(g2, 2)
        ws = (-4, 0)

        def value(subset):
            inter = tg.common_intersection(subset)
            return sum(ws[v] for v in inter.members())

        omega = ValuationOracle(tg.combined, 2, value,
                                Subset(tg.combined, 0b0011))
        assert not check_valuated_exchange(omega)

    def test_mnat_checker_catches_non_function(self):
        table = {(0, 0): Fraction(0), (1, 1): Fraction(0)}

        def value(x):
            stored = table.get(x.entries)
            return INF if stored is None else ExtValue(stored)

        from vmint.valuated import MnatFunction
        fn = MnatFunction(2, value, (0, 0), (1, 1), IntVector((0, 0)))
        assert not check_mnat_exchange(fn)

    def test_modular_mnat_passes(self):
        from vmint.valuated import MnatFunction

        def value(x):
            return ExtValue(3 * x[0] - 2 * x[1])

        fn = MnatFunction(2, value, (0, 0), (2, 2), IntVector((0, 0)))
        assert check_mnat_exchange(fn)


class TestScanLimits:
    """A scan past its limit is refused without writing its size, which
    may have more digits than an int may be written with."""

    def test_domain_scan(self):
        small = indicator_of_matroid(make_uniform(GroundSet(6), 3))
        assert len(small.enumerate_domain(limit=20)) == 20
        with pytest.raises(ResourceLimitError, match=r"C\(6,3\)"):
            small.enumerate_domain(limit=19)
        huge = indicator_of_matroid(make_uniform(GroundSet(20000), 10000))
        with pytest.raises(ResourceLimitError, match=r"C\(20000,10000\)"):
            huge.enumerate_domain()

    def test_box_scan(self, monkeypatch):
        spec = LaminarSpec(GroundSet(3), (), ())
        small = laminar_convex_function(spec, (0,) * 3, (1,) * 3)
        assert len(list(small.iter_box(limit=8))) == 8
        with pytest.raises(ResourceLimitError, match="exceeds limit 7"):
            list(small.iter_box(limit=7))
        huge = laminar_convex_function(LaminarSpec(GroundSet(5000), (), ()),
                                       (0,) * 5000, (9,) * 5000)
        asked, volume = [], MnatFunction.box_volume
        monkeypatch.setattr(MnatFunction, "box_volume",
                            lambda fn: asked.append(fn) or volume(fn))
        with pytest.raises(ResourceLimitError, match="dimension 5000"):
            huge.enumerate_domain()
        assert asked == [huge]
