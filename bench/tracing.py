"""Per-layer tracing for the traced benchmark run.

The tracer records spans at the layer boundaries of `vmint` by replacing
each layer's public functions where they are looked up (module
attributes such as `vmint.cli.load_instance`, or class attributes such as
`Instance._build_matroid`).  Nothing under `src/` knows about it.

A span is (op, name, start, end, parent).  Layer spans are kept in
memory and written out at the end; oracle evaluations are too many to
keep one by one, so they only add to per-name totals, but they still
take part in self-time accounting.  A span's self time is its duration
minus the time of its direct child spans.

Tracing records nothing while `active` is false, which is how the
benchmark pauses it around its own correctness checks.  Installing is
one-way: it is meant for a process that runs one traced workload.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[list] = []
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # frame: [name, start, child time, span index or None, data]
        self._stack: list[list] = []
        self._oracles: list = []
        self._flow_instances: list = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str, keep: bool = True) -> list:
        index = None
        if keep:
            parent = next((f[3] for f in reversed(self._stack)
                           if f[3] is not None), None)
            index = len(self.spans)
            self.spans.append([self.op, name, 0.0, 0.0, parent])
        frame = [name, perf_counter(), 0.0, index, None]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, child, index, _ = frame
        duration = end - start
        self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            self.spans[index][2:4] = [start, end]

    def innermost(self, name: str):
        return next((f for f in reversed(self._stack) if f[0] == name), None)

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op: int) -> list:
        self.op = op
        self.active = True
        return self.enter("op")

    def end_op(self, frame: list) -> None:
        self.exit(frame)
        self.active = False
        for oracle in self._oracles:
            self.counts["valuated.oracle_calls"] += oracle.calls
            self.counts["valuated.oracle_evals"] += oracle.evals
        for instance in self._flow_instances:
            self.counts["mflow.h_evals"] += (instance.h.evals
                                             + instance.h_feasibility.evals)
        self._oracles.clear()
        self._flow_instances.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for op, name, start, end, parent in self.spans:
                handle.write(json.dumps({"op": op, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")

    # -- wrappers ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr by a spanned version.

        `before(*args)` returns a token handed to `after(token, result,
        *args)`; both run outside the span, and only while active.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            token = before(*args) if before is not None else None
            frame = self.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.exit(frame)
            if after is not None:
                after(token, result, *args)
            return result

        setattr(owner, attr, traced)

    def wrap_evaluations(self, cls, name: str, registry=None) -> None:
        """Time every memo miss of the oracles of `cls` made while active.

        The constructor is wrapped so that the oracle's value function
        runs inside an aggregate span; the oracle joins `registry`, if
        given, whose call and eval counters are summed when the op ends.
        """
        original = cls.__init__
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def init(oracle, *args, **kwargs):
            if not tracer.active:
                original(oracle, *args, **kwargs)
                return
            bound = signature.bind(oracle, *args, **kwargs)
            value_fn = bound.arguments["value_fn"]

            def timed(point):
                if not tracer.active:
                    return value_fn(point)
                frame = tracer.enter(name, keep=False)
                try:
                    return value_fn(point)
                finally:
                    tracer.exit(frame)

            bound.arguments["value_fn"] = timed
            if registry is not None:
                registry.append(oracle)
            original(*bound.args, **bound.kwargs)

        cls.__init__ = init


def install(tracer: Tracer) -> None:
    """Wrap every layer of vmint at the places it is looked up."""
    import vmint.apps as apps
    import vmint.cli as cli
    import vmint.instances as instances
    import vmint.mflow as mflow
    import vmint.valuated as valuated
    import vmint.viap as viap
    import vmint.vmi as vmi

    counts = tracer.counts

    def calls_of(omega):
        return omega.calls

    def greedy_after(before_calls, _result, omega):
        counts["greedy.oracle_calls"] += omega.calls - before_calls

    for module in (viap, apps):
        tracer.wrap(module, "minimize_valuated", "greedy.minimize",
                    calls_of, greedy_after)

    def arcs_after(_token, graph, *_args):
        counts["viap.aux_arcs"] += sum(len(out) for out in graph.adjacency)

    def path_after(_token, result, graph):
        dist, _parent, path = result
        counts["viap.path_arcs"] += len(path) if path is not None else 0
        d_sink = dist[graph.sink]
        ladder = tracer.innermost("viap.ladder")
        if d_sink is None or ladder is None:
            return
        # Convexity trace: does the sink distance ever fall along a ladder?
        if ladder[4] is not None:
            counts["viap.dsink_pairs"] += 1
            if d_sink < ladder[4]:
                counts["viap.dsink_decreases"] += 1
        ladder[4] = d_sink

    def check_before(state, *_):
        return state.omega1.calls + state.omega2.calls

    def check_after(before_calls, _result, state, *_):
        counts["viap.check_oracle_calls"] += (
            state.omega1.calls + state.omega2.calls - before_calls)

    for module, attr in ((viap, "solve_v_geq_k"), (viap, "solve_v_eq_k"),
                         (apps, "solve_v_geq_k"), (cli, "solve_v_geq_k"),
                         (cli, "solve_v_eq_k")):
        tracer.wrap(module, attr, "viap.solve")
    for module in (viap, apps):
        tracer.wrap(module, "run_ladder", "viap.ladder")
    tracer.wrap(viap, "augment_step", "viap.augment")
    tracer.wrap(viap, "build_aux_digraph", "viap.aux_build",
                after=arcs_after)
    tracer.wrap(viap, "shortest_path_with_hop_tiebreak", "viap.path",
                after=path_after)
    tracer.wrap(viap, "_check_state", "viap.check", check_before,
                check_after)

    tracer.wrap_evaluations(valuated.ValuationOracle, "valuated.eval",
                            tracer._oracles)
    tracer.wrap_evaluations(valuated.MnatFunction, "mflow.h_eval")

    def tuple_ground_after(_token, result, *_args):
        counts["vmi.tuple_ground_size"] += result[1].combined.size
        counts["vmi.tuple_grounds"] += 1

    for module, attr in ((cli, "solve_v_In"), (cli, "solve_v_leq_k"),
                         (cli, "solve_v_n_w"), (apps, "solve_v_n_w"),
                         (apps, "solve_sum_valuated_plus_laminar"),
                         (vmi, "solve_v_In")):
        tracer.wrap(module, attr, "vmi.reduce")
    tracer.wrap(vmi, "disjoint_sum", "vmi.build", after=tuple_ground_after)
    for attr in ("intersection_constraint_valuation", "laminar_penalty",
                 "lift_laminar_to_copies"):
        tracer.wrap(vmi, attr, "vmi.build")
    tracer.wrap(vmi, "solve_vmi", "vmi.inner")

    for attr in ("solve_v_c", "solve_copic_diagonal",
                 "solve_congestion_social_optimum",
                 "solve_recoverable_robust_interval"):
        tracer.wrap(cli, attr, "apps.driver")

    def flow_after(_token, instance, *_args):
        tracer._flow_instances.append(instance)

    for module in (mflow, apps, cli):
        tracer.wrap(module, "solve_m_geq_k_w", "mflow.solve")
    tracer.wrap(mflow, "build_mgeqk_instance", "mflow.build",
                after=flow_after)
    tracer.wrap(mflow, "flow_objective", "mflow.objective")

    tracer.wrap(cli, "load_instance", "instances.load")
    for attr in ("_build_matroid", "_build_valuation", "_build_mconvex"):
        tracer.wrap(instances.Instance, attr, "instances.build")
    tracer.wrap(cli, "dump_report", "instances.dump")
    tracer.wrap(cli, "main", "cli.main")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced phase of `ops` ops, as (value, unit).

    Times and counts are means per op; the sink-distance figures are
    totals over the phase; the memo hit ratio has `valuated.oracle_calls`
    as its base.
    """
    inc, own, calls, counts = (tracer.inclusive, tracer.self_time,
                               tracer.calls, tracer.counts)
    per_op = max(ops, 1)
    oracle_calls = counts["valuated.oracle_calls"]
    grounds = counts["vmi.tuple_grounds"]

    def seconds(total: float):
        return total / per_op, "s/op"

    def count(total: int):
        return total / per_op, "count/op"

    return {
        "greedy.minimize_s": seconds(inc["greedy.minimize"]),
        "greedy.oracle_calls": count(counts["greedy.oracle_calls"]),
        "viap.augment_steps": count(calls["viap.augment"]),
        "viap.aux_build_s": seconds(inc["viap.aux_build"]),
        "viap.aux_arcs": count(counts["viap.aux_arcs"]),
        "viap.path_s": seconds(inc["viap.path"]),
        "viap.path_arcs": count(counts["viap.path_arcs"]),
        "viap.check_s": seconds(inc["viap.check"]),
        "viap.check_oracle_calls": count(counts["viap.check_oracle_calls"]),
        "viap.update_s": seconds(own["viap.augment"]),
        "viap.dsink_decreases": (counts["viap.dsink_decreases"], "count"),
        "viap.dsink_pairs": (counts["viap.dsink_pairs"], "count"),
        "valuated.oracle_calls": count(oracle_calls),
        "valuated.oracle_evals": count(counts["valuated.oracle_evals"]),
        "valuated.memo_hit_ratio": (
            1 - counts["valuated.oracle_evals"] / oracle_calls
            if oracle_calls else 0.0, "ratio"),
        "valuated.eval_s": seconds(own["valuated.eval"]),
        "vmi.build_s": seconds(inc["vmi.build"]),
        "vmi.tuple_ground_size": (
            counts["vmi.tuple_ground_size"] / grounds if grounds else 0.0,
            "elements"),
        "vmi.inner_s": seconds(inc["vmi.inner"]),
        "apps.driver_self_s": seconds(own["apps.driver"]),
        "mflow.build_s": seconds(inc["mflow.build"]),
        "mflow.search_self_s": seconds(own["mflow.solve"]),
        "mflow.objective_evals": count(calls["mflow.objective"]),
        "mflow.objective_s": seconds(inc["mflow.objective"]),
        "mflow.h_evals": count(counts["mflow.h_evals"]),
        "instances.load_s": seconds(inc["instances.load"]),
        "instances.build_s": seconds(inc["instances.build"]),
        "instances.dump_s": seconds(inc["instances.dump"]),
        "cli.self_s": seconds(own["cli.main"]),
    }
