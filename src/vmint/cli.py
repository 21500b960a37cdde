"""Command-line entry point: parse instances, dispatch solvers, emit reports.

Exit codes: 0 optimal, 2 infeasible, 3 invalid input (a malformed
command line included), 4 resource limit.
The machine-readable report goes to stdout (or --out) with a fixed field
order, so identical inputs produce byte-identical reports; the human
summary, including wall time, goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from typing import Optional

from .core import (
    EmptyDomainError,
    ExtValue,
    GroundSet,
    InvalidInputError,
    ResourceLimitError,
    Subset,
    parse_rational,
)
from .apps import (
    CongestionInstance,
    IntervalUncertainty,
    solve_congestion_social_optimum,
    solve_copic_diagonal,
    solve_recoverable_robust_interval,
    solve_v_c,
)
from .bruteforce import (
    brute_copic,
    brute_congestion,
    brute_m_geq_k_w,
    brute_v_In,
    brute_v_eq_k,
    brute_v_geq_k,
    brute_v_leq_k,
    brute_v_n_w,
)
from .instances import (
    Instance,
    ParseError,
    dump_report,
    dump_yaml,
    load_instance,
    load_yaml,
    parse_int,
    parse_rationals,
    subset_out,
)
from .mflow import solve_m_geq_k_w
from .rand_instances import random_instance_document
from .reference import lpt_solve_w_eq_k
from .valuated import check_mnat_exchange, check_valuated_exchange
from .viap import (
    IntersectionSolution,
    Witness,
    solve_v_eq_k,
    solve_v_geq_k,
    verify_solution,
    witness_problem,
)
from .vmi import solve_v_In, solve_v_leq_k, solve_v_n_w

EXIT_OPTIMAL = 0
EXIT_CHECK_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_RESOURCE = 4


def _problem_k(instance: Instance, override: Optional[int]) -> int:
    if override is not None:
        return override
    if "k" not in instance.problem:
        raise ParseError("problem.k: required (or pass --k)")
    return parse_int(instance.problem["k"], "problem.k")


def _named_oracles(instance: Instance, count: Optional[int] = None):
    names = instance.problem.get("oracles")
    if not isinstance(names, list) or not names:
        raise ParseError("problem.oracles: list of valuation names required")
    if count is not None and len(names) != count:
        raise ParseError(f"problem.oracles: expected {count} names")
    return [instance.named_valuation("problem.oracles", n) for n in names]


def _text(value) -> str:
    """`str(value)`; a rational with more digits than Python converts
    (4300 by default, see `sys.get_int_max_str_digits`) is a resource
    limit."""
    try:
        return str(value)
    except ValueError:
        raise ResourceLimitError(
            "a reported rational has too many digits to write") from None


def _witness_out(witness: Optional[Witness], mode: str) -> Optional[dict]:
    if witness is None:
        return None
    return {
        "p1": [_text(v) for v in witness.p1],
        "p2": [_text(v) for v in witness.p2],
        "matched": subset_out(witness.matched),
        "k": witness.k,
        "mode": mode,
    }


def _sets_out(outcome) -> dict:
    return {"x1": subset_out(outcome.x1), "x2": subset_out(outcome.x2)}


def _intersection_fields(solution: IntersectionSolution, calls) -> dict:
    return {**_sets_out(solution),
            "witness": _witness_out(solution.witness, solution.mode),
            "oracle_calls": calls}


def _two_names(instance: Instance, key: str, what: str) -> list:
    names = instance.problem.get(key)
    if not isinstance(names, list) or len(names) != 2:
        raise ParseError(f"problem.{key}: two {what} names required")
    return names


# A handler takes (instance, k override), reads the problem and returns
# two thunks: `solve()`, which runs the solver and returns (status, value,
# the report fields after problem/status/value), and the brute force of
# an enumeration limit, or None when there is no brute-force oracle.
# Solvers are looked up as module globals at call time, so wrapping them
# on `vmint.cli` takes effect.

def _pair_problem(instance: Instance, k_override: Optional[int]):
    """The two valuations and the k of a pair problem."""
    omega1, omega2 = _named_oracles(instance, 2)
    return omega1, omega2, _problem_k(instance, k_override)


def _pair(instance: Instance, k_override: Optional[int]):
    ptype = instance.problem["type"]
    omega1, omega2, k = _pair_problem(instance, k_override)
    names = instance.problem["oracles"]
    solver, brute = {"v_geq_k": (solve_v_geq_k, brute_v_geq_k),
                     "v_eq_k": (solve_v_eq_k, brute_v_eq_k),
                     "v_leq_k": (solve_v_leq_k, brute_v_leq_k)}[ptype]

    def solve():
        before = (omega1.calls, omega2.calls)
        solution = solver(omega1, omega2, k)
        calls = {str(names[0]): omega1.calls - before[0],
                 str(names[1]): omega2.calls - before[1]}
        return (solution.status, solution.value,
                _intersection_fields(solution, calls))
    return solve, lambda limit: brute(omega1, omega2, k, limit)


def _copies(instance: Instance, k_override: Optional[int]):
    """v_in and v_n_w: n valuations coupled through their common part."""
    omegas = _named_oracles(instance)
    problem = instance.problem
    if problem["type"] == "v_in":
        coupling = instance.named_matroid("problem.constraint",
                                          problem.get("constraint"))
        solver, brute = solve_v_In, brute_v_In
    else:
        coupling = parse_rationals(problem.get("w"), "problem.w",
                                   instance.ground.size)
        solver, brute = solve_v_n_w, brute_v_n_w

    def solve():
        outcome = solver(omegas, coupling)
        parts = ([subset_out(p) for p in outcome.parts]
                 if outcome.optimal else None)
        return outcome.status, outcome.value, {"parts": parts}
    return solve, lambda limit: brute(omegas, coupling, limit)


def _m_geq_k_w(instance: Instance, k_override: Optional[int]):
    f1, f2 = (instance.named_mconvex("problem.functions", name)
              for name in _two_names(instance, "functions", "mconvex"))
    k = _problem_k(instance, k_override)
    weights = parse_rationals(instance.problem.get("w"), "problem.w",
                              instance.ground.size)

    def solve():
        solution = solve_m_geq_k_w(f1, f2, k, weights)
        fields = {
            "x1": list(solution.x1.entries) if solution.optimal else None,
            "x2": list(solution.x2.entries) if solution.optimal else None,
        }
        return solution.status, solution.value, fields
    return solve, lambda limit: brute_m_geq_k_w(f1, f2, k, weights, limit)


def _weighted_matroids(instance: Instance):
    """The two matroids and modular weights of w_eq_k_lpt and copic."""
    problem = instance.problem
    m1, m2 = (instance.named_matroid("problem.matroids", name)
              for name in _two_names(instance, "matroids", "matroid"))
    n = instance.ground.size
    w1 = parse_rationals(problem.get("w1"), "problem.w1", n)
    w2 = parse_rationals(problem.get("w2"), "problem.w2", n)
    return m1, m2, w1, w2


def _w_eq_k_lpt(instance: Instance, k_override: Optional[int]):
    m1, m2, w1, w2 = _weighted_matroids(instance)
    k = _problem_k(instance, k_override)

    def solve():
        solution = lpt_solve_w_eq_k(m1, m2, w1, w2, k)
        return solution.status, solution.value, _sets_out(solution)
    return solve, None


def _copic(instance: Instance, k_override: Optional[int]):
    m1, m2, w1, w2 = _weighted_matroids(instance)
    q = parse_rationals(instance.problem.get("q"), "problem.q",
                        instance.ground.size)

    def solve():
        outcome = solve_copic_diagonal(m1, m2, w1, w2, q)
        return outcome.status, outcome.value, _sets_out(outcome)
    return solve, lambda limit: brute_copic(m1, m2, w1, w2, q, limit)


def _v_c(instance: Instance, k_override: Optional[int]):
    omega1, omega2 = _named_oracles(instance, 2)
    table = instance.problem.get("c")
    if not isinstance(table, list) or len(table) != instance.ground.size + 1:
        raise ParseError("problem.c: table on 0..|V| required")
    c = [ExtValue.parse(str(v)) for v in table]

    def solve():
        outcome = solve_v_c(omega1, omega2, c)
        fields = {"k": outcome.k if outcome.optimal else None,
                  **_sets_out(outcome)}
        return outcome.status, outcome.value, fields
    return solve, None


def _recoverable_robust(instance: Instance, k_override: Optional[int]):
    problem = instance.problem
    omega1 = instance.named_valuation("problem.oracle", problem.get("oracle"))
    n = instance.ground.size
    lower = parse_rationals(problem.get("lower"), "problem.lower", n)
    upper = parse_rationals(problem.get("upper"), "problem.upper", n)
    k = _problem_k(instance, k_override)
    unc = IntervalUncertainty.of(lower, upper)

    def solve():
        before = omega1.calls
        solution = solve_recoverable_robust_interval(omega1, unc, k)
        calls = {str(problem["oracle"]): omega1.calls - before}
        return (solution.status, solution.value,
                _intersection_fields(solution, calls))
    return solve, None


def _congestion(instance: Instance, k_override: Optional[int]):
    problem = instance.problem
    names = problem.get("players")
    if not isinstance(names, list) or not names:
        raise ParseError("problem.players: list of valuation names required")
    omegas = [instance.named_valuation("problem.players", n) for n in names]
    delays_spec = problem.get("delays")
    if not isinstance(delays_spec, list) \
            or len(delays_spec) != instance.ground.size \
            or not all(isinstance(t, list) for t in delays_spec):
        raise ParseError("problem.delays: one table per resource required")
    delays = [[parse_rational(v) for v in table] for table in delays_spec]
    congestion = CongestionInstance.of(omegas, delays)

    def solve():
        state, total = solve_congestion_social_optimum(congestion)
        return "optimal", total, {"state": [subset_out(x) for x in state]}
    return solve, lambda limit: brute_congestion(omegas, delays, limit)


# The problem types: each maps to (handler, whether `--k` applies, the
# witness modes of its reports).  `_certify` checks a report of a type
# with witness modes; the first mode is the default.
PROBLEMS = {
    "v_geq_k": (_pair, True, ("geq",)),
    "v_eq_k": (_pair, True, ("eq-direct", "eq-dual")),
    "v_leq_k": (_pair, True, ("leq",)),
    "v_in": (_copies, False, ()),
    "v_n_w": (_copies, False, ()),
    "m_geq_k_w": (_m_geq_k_w, True, ()),
    "w_eq_k_lpt": (_w_eq_k_lpt, True, ()),
    "v_c": (_v_c, False, ()),
    "copic": (_copic, False, ()),
    "recoverable_robust": (_recoverable_robust, True, ()),
    "congestion": (_congestion, False, ()),
}


def _load(path: str) -> tuple[Instance, str, tuple]:
    """The instance at `path`, its type and the type's `PROBLEMS` row;
    a type outside the table is invalid."""
    instance = load_instance(path)
    ptype = instance.problem["type"]
    if not isinstance(ptype, str) or ptype not in PROBLEMS:
        raise ParseError(f"problem.type: unknown type {ptype!r}")
    return instance, ptype, PROBLEMS[ptype]


def _solve(args) -> tuple[dict, int]:
    instance, ptype, (handler, takes_k, modes) = _load(args.instance)
    if args.k is not None and not takes_k:
        raise InvalidInputError(f"--k: problem type {ptype!r} takes no k")
    solve, brute = handler(instance, args.k)
    # The brute force runs first, so a scan past its limit is refused
    # before the solver spends any time.
    found = brute(args.limit) if args.brute and brute is not None else None
    status, value, fields = solve()
    report = {"problem": ptype, "status": status,
              "value": _text(value) if status == "optimal" else None,
              **fields}
    if args.verify and status == "optimal" and modes:
        if not _certify(instance, ptype, modes, report, args.k):
            raise InvalidInputError("witness failed verification")
        report["verified"] = True
    if found is not None:
        _check_brute_match(status, value, found.status, found.value)
        report["brute_checked"] = True
    return report, EXIT_OPTIMAL if status == "optimal" else EXIT_INFEASIBLE


def _labelled_subset(ground: GroundSet, labels, field: str) -> Subset:
    """The subset that `subset_out` wrote as `labels`."""
    if not isinstance(labels, list):
        raise ParseError(f"{field}: expected a list of element labels")
    index = ground.label_index
    try:
        return ground.subset(index[str(label)] for label in labels)
    except KeyError as exc:
        raise ParseError(f"{field}: unknown element label {exc}") from None


def _certify(instance: Instance, ptype: str, modes: tuple, report: dict,
             k_override: Optional[int] = None) -> bool:
    """Check the optimality witness of an optimal report on its instance,
    whose type `ptype` has the witness modes `modes`.

    The type, valuations and k are the instance's; a report of another
    type is invalid.  The rest is read back from the report as emitted:
    the reported value must be the objective of the reported pair, and
    :func:`viap.verify_solution` must accept the pair and its witness,
    read in the mode it names if that is one of `modes`, else the first.
    """
    if report.get("problem") != ptype:
        raise ParseError(f"verify: a {report.get('problem')!r} report on a"
                         f" {ptype!r} instance")
    if not modes:
        raise ParseError(f"verify: unsupported problem type {ptype!r}")
    spec = report.get("witness")
    if not isinstance(spec, dict):
        raise ParseError("verify: report carries no witness")
    omega1, omega2, k = _pair_problem(instance, k_override)
    ground = instance.ground
    x1 = _labelled_subset(ground, report.get("x1"), "x1")
    x2 = _labelled_subset(ground, report.get("x2"), "x2")
    value = parse_rational(report.get("value"))
    mode = spec.get("mode") if spec.get("mode") in modes else modes[0]
    inner = witness_problem(mode, omega1, omega2, x1, x2, k)[0].ground
    witness = Witness(
        parse_rationals(spec.get("p1"), "witness.p1", inner.size),
        parse_rationals(spec.get("p2"), "witness.p2", inner.size),
        _labelled_subset(inner, spec.get("matched"), "witness.matched"),
        parse_int(spec.get("k"), "witness.k"),
    )
    solution = IntersectionSolution("optimal", x1, x2, value, witness, k,
                                    mode)
    return (omega1.value(x1) + omega2.value(x2) == value
            and verify_solution(solution, omega1, omega2))


def _check_brute_match(status: str, value, brute_status: str, brute_value):
    if status != brute_status:
        raise InvalidInputError(
            f"brute-force status mismatch: {status} vs {brute_status}")
    if status == "optimal" and value != brute_value:
        raise InvalidInputError(
            f"brute-force value mismatch: {value} vs {brute_value}")


def _cmd_solve(args) -> int:
    started = time.monotonic()
    report, code = _solve(args)
    text = dump_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    elapsed = time.monotonic() - started
    print(f"{report['problem']}: {report['status']}"
          f" (wall time {elapsed:.3f}s)", file=sys.stderr)
    return code


def _cmd_check(args) -> int:
    instance = _load(args.instance)[0]
    if args.valuation is not None:
        oracle = instance.named_valuation("check", args.valuation)
        ok = check_valuated_exchange(oracle, args.limit)
        label = f"valuation {args.valuation}"
    elif args.mconvex is not None:
        fn = instance.named_mconvex("check", args.mconvex)
        ok = check_mnat_exchange(fn, args.limit)
        label = f"mconvex {args.mconvex}"
    else:
        raise ParseError("check: pass --valuation NAME or --mconvex NAME")
    print(f"exchange axiom on {label}: {'pass' if ok else 'fail'}")
    return EXIT_OPTIMAL if ok else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    """Re-validate an emitted solution file without re-running the solver."""
    instance, ptype, (_, _, modes) = _load(args.instance)
    report = load_yaml(args.solution)
    if not isinstance(report, dict):
        raise ParseError("verify: the solution file is not a report")
    if report.get("status") != "optimal":
        print("nothing to verify: solution is not optimal", file=sys.stderr)
        return EXIT_INFEASIBLE
    ok = _certify(instance, ptype, modes, report)
    print(f"witness: {'valid' if ok else 'INVALID'}")
    return EXIT_OPTIMAL if ok else EXIT_CHECK_FAILED


def _cmd_generate(args) -> int:
    rng = random.Random(args.seed)
    document = random_instance_document(args.problem, rng)
    text = dump_yaml(document, sort_keys=False, default_flow_style=None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OPTIMAL


class _UsageError(Exception):
    """A command line that argparse rejects; main maps it to exit 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vmint",
        description="Exact solvers for valuated matroid and M-convex "
                    "optimization under intersection constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve the instance's problem")
    solve.add_argument("--instance", "-i", required=True)
    solve.add_argument("--k", type=int, default=None,
                       help="override the instance's k")
    solve.add_argument("--verify", action="store_true",
                       help="re-check the optimality witness")
    solve.add_argument("--brute", action="store_true",
                       help="compare against the brute-force oracle")
    solve.add_argument("--limit", type=int, default=1_000_000,
                       help="brute-force enumeration cap")
    solve.add_argument("--out", default=None, help="write the report here")
    solve.set_defaults(func=_cmd_solve)

    check = sub.add_parser("check", help="run exchange-axiom checks")
    check.add_argument("--instance", "-i", required=True)
    check.add_argument("--valuation", default=None)
    check.add_argument("--mconvex", default=None)
    check.add_argument("--limit", type=int, default=200_000)
    check.set_defaults(func=_cmd_check)

    verify = sub.add_parser("verify",
                            help="re-validate an emitted solution file")
    verify.add_argument("--instance", "-i", required=True)
    verify.add_argument("--solution", "-s", required=True)
    verify.set_defaults(func=_cmd_verify)

    generate = sub.add_parser("generate", help="emit a random small instance")
    generate.add_argument("--problem", required=True)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", default=None)
    generate.set_defaults(func=_cmd_generate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InvalidInputError, EmptyDomainError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
