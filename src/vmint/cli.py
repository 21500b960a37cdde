"""Command-line entry point: parse instances, dispatch solvers, emit reports.

Exit codes: 0 optimal, 2 infeasible, 3 invalid input, 4 resource limit.
The machine-readable report goes to stdout (or --out) with a fixed field
order, so identical inputs produce byte-identical reports; the human
summary, including wall time, goes to stderr.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Optional

from .core import (
    EmptyDomainError,
    ExtValue,
    InvalidInputError,
    ResourceLimitError,
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
    load_instance,
    parse_int,
    subset_out,
)
from .mflow import solve_m_geq_k_w
from .reference import lpt_solve_w_eq_k
from .valuated import check_mnat_exchange, check_valuated_exchange
from .viap import (
    IntersectionSolution,
    Witness,
    solve_v_eq_k,
    solve_v_geq_k,
    verify_witness,
)
from .vmi import solve_v_In, solve_v_leq_k, solve_v_n_w
from . import viap

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


def _witness_out(witness: Optional[Witness], mode: str) -> Optional[dict]:
    if witness is None:
        return None
    return {
        "p1": [str(v) for v in witness.p1],
        "p2": [str(v) for v in witness.p2],
        "matched": subset_out(witness.matched),
        "k": witness.k,
        "mode": mode,
    }


def _intersection_report(problem: str, solution: IntersectionSolution,
                         calls) -> dict:
    report = {
        "problem": problem,
        "status": solution.status,
        "value": str(solution.value) if solution.optimal else None,
        "x1": subset_out(solution.x1),
        "x2": subset_out(solution.x2),
        "witness": _witness_out(solution.witness, solution.mode),
        "oracle_calls": calls,
    }
    return report


def _solve(instance: Instance, args) -> tuple[dict, int]:
    problem = instance.problem
    ptype = problem["type"]

    if ptype in ("v_geq_k", "v_eq_k", "v_leq_k"):
        omega1, omega2 = _named_oracles(instance, 2)
        names = instance.problem["oracles"]
        k = _problem_k(instance, args.k)
        before = (omega1.calls, omega2.calls)
        solver = {"v_geq_k": solve_v_geq_k, "v_eq_k": solve_v_eq_k,
                  "v_leq_k": solve_v_leq_k}[ptype]
        solution = solver(omega1, omega2, k)
        calls = {str(names[0]): omega1.calls - before[0],
                 str(names[1]): omega2.calls - before[1]}
        report = _intersection_report(ptype, solution, calls)
        if args.verify and solution.optimal and solution.witness is not None:
            if not viap.verify_solution(solution, omega1, omega2):
                raise InvalidInputError("witness failed verification")
            report["verified"] = True
        if args.brute:
            brute = {"v_geq_k": brute_v_geq_k, "v_eq_k": brute_v_eq_k,
                     "v_leq_k": brute_v_leq_k}[ptype](omega1, omega2, k,
                                                      args.limit)
            _check_brute_match(solution.status, solution.value,
                               brute.status, brute.value)
            report["brute_checked"] = True
        return report, _status_code(solution.status)

    if ptype == "v_in":
        omegas = _named_oracles(instance)
        constraint = instance.named_matroid("problem.constraint",
                                             problem.get("constraint"))
        outcome = solve_v_In(omegas, constraint)
        report = {
            "problem": ptype,
            "status": outcome.status,
            "value": str(outcome.value) if outcome.optimal else None,
            "parts": [subset_out(p) for p in outcome.parts]
            if outcome.optimal else None,
        }
        if args.brute:
            brute = brute_v_In(omegas, constraint, args.limit)
            _check_brute_match(outcome.status, outcome.value,
                               brute.status, brute.value)
            report["brute_checked"] = True
        return report, _status_code(outcome.status)

    if ptype == "v_n_w":
        omegas = _named_oracles(instance)
        weights = instance.weights_field("problem.w", problem.get("w"))
        outcome = solve_v_n_w(omegas, weights)
        report = {
            "problem": ptype,
            "status": outcome.status,
            "value": str(outcome.value) if outcome.optimal else None,
            "parts": [subset_out(p) for p in outcome.parts]
            if outcome.optimal else None,
        }
        if args.brute:
            brute = brute_v_n_w(omegas, weights, args.limit)
            _check_brute_match(outcome.status, outcome.value,
                               brute.status, brute.value)
            report["brute_checked"] = True
        return report, _status_code(outcome.status)

    if ptype == "m_geq_k_w":
        names = problem.get("functions")
        if not isinstance(names, list) or len(names) != 2:
            raise ParseError("problem.functions: two mconvex names required")
        f1 = instance.named_mconvex("problem.functions", names[0])
        f2 = instance.named_mconvex("problem.functions", names[1])
        k = _problem_k(instance, args.k)
        weights = instance.weights_field("problem.w", problem.get("w"))
        solution = solve_m_geq_k_w(f1, f2, k, weights)
        report = {
            "problem": ptype,
            "status": solution.status,
            "value": str(solution.value) if solution.optimal else None,
            "x1": list(solution.x1.entries) if solution.optimal else None,
            "x2": list(solution.x2.entries) if solution.optimal else None,
        }
        if args.brute:
            brute = brute_m_geq_k_w(f1, f2, k, weights, args.limit)
            _check_brute_match(solution.status, solution.value,
                               brute.status, brute.value)
            report["brute_checked"] = True
        return report, _status_code(solution.status)

    if ptype == "w_eq_k_lpt":
        names = problem.get("matroids")
        if not isinstance(names, list) or len(names) != 2:
            raise ParseError("problem.matroids: two matroid names required")
        m1 = instance.named_matroid("problem.matroids", names[0])
        m2 = instance.named_matroid("problem.matroids", names[1])
        w1 = instance.weights_field("problem.w1", problem.get("w1"))
        w2 = instance.weights_field("problem.w2", problem.get("w2"))
        k = _problem_k(instance, args.k)
        solution = lpt_solve_w_eq_k(m1, m2, w1, w2, k)
        report = _intersection_report(ptype, solution, None)
        del report["witness"]
        del report["oracle_calls"]
        return report, _status_code(solution.status)

    if ptype == "v_c":
        omega1, omega2 = _named_oracles(instance, 2)
        table = problem.get("c")
        if not isinstance(table, list) or len(table) != instance.ground.size + 1:
            raise ParseError("problem.c: table on 0..|V| required")
        c = [ExtValue.parse(str(v)) for v in table]
        outcome = solve_v_c(omega1, omega2, c)
        report = {
            "problem": ptype,
            "status": outcome.status,
            "value": str(outcome.value) if outcome.optimal else None,
            "k": outcome.k if outcome.optimal else None,
            "x1": subset_out(outcome.x1),
            "x2": subset_out(outcome.x2),
        }
        return report, _status_code(outcome.status)

    if ptype == "copic":
        names = problem.get("matroids")
        if not isinstance(names, list) or len(names) != 2:
            raise ParseError("problem.matroids: two matroid names required")
        m1 = instance.named_matroid("problem.matroids", names[0])
        m2 = instance.named_matroid("problem.matroids", names[1])
        w1 = instance.weights_field("problem.w1", problem.get("w1"))
        w2 = instance.weights_field("problem.w2", problem.get("w2"))
        q = instance.weights_field("problem.q", problem.get("q"))
        outcome = solve_copic_diagonal(m1, m2, w1, w2, q)
        report = {
            "problem": ptype,
            "status": outcome.status,
            "value": str(outcome.value) if outcome.optimal else None,
            "x1": subset_out(outcome.x1),
            "x2": subset_out(outcome.x2),
        }
        if args.brute:
            brute = brute_copic(m1, m2, w1, w2, q, args.limit)
            _check_brute_match(outcome.status, outcome.value,
                               brute.status, brute.value)
            report["brute_checked"] = True
        return report, _status_code(outcome.status)

    if ptype == "recoverable_robust":
        omega1 = instance.named_valuation("problem.oracle",
                                           problem.get("oracle"))
        lower = instance.weights_field("problem.lower", problem.get("lower"))
        upper = instance.weights_field("problem.upper", problem.get("upper"))
        k = _problem_k(instance, args.k)
        unc = IntervalUncertainty.of(lower, upper)
        before = omega1.calls
        solution = solve_recoverable_robust_interval(omega1, unc, k)
        report = _intersection_report(
            ptype, solution, {str(instance.problem["oracle"]):
                              omega1.calls - before})
        return report, _status_code(solution.status)

    if ptype == "congestion":
        names = problem.get("players")
        if not isinstance(names, list) or not names:
            raise ParseError("problem.players: list of valuation names required")
        omegas = [instance.named_valuation("problem.players", n)
                  for n in names]
        delays_spec = problem.get("delays")
        if not isinstance(delays_spec, list) \
                or len(delays_spec) != instance.ground.size:
            raise ParseError("problem.delays: one table per resource required")
        delays = [[parse_rational(v) for v in table] for table in delays_spec]
        congestion = CongestionInstance.of(omegas, delays)
        state, total = solve_congestion_social_optimum(congestion)
        report = {
            "problem": ptype,
            "status": "optimal",
            "value": str(total),
            "state": [subset_out(x) for x in state],
        }
        if args.brute:
            brute = brute_congestion(omegas, delays, args.limit)
            _check_brute_match("optimal", total, brute.status, brute.value)
            report["brute_checked"] = True
        return report, EXIT_OPTIMAL

    raise ParseError(f"problem.type: unhandled type {ptype!r}")


def _check_brute_match(status: str, value, brute_status: str, brute_value):
    if status != brute_status:
        raise InvalidInputError(
            f"brute-force status mismatch: {status} vs {brute_status}")
    if status == "optimal" and value != brute_value:
        raise InvalidInputError(
            f"brute-force value mismatch: {value} vs {brute_value}")


def _status_code(status: str) -> int:
    return EXIT_OPTIMAL if status == "optimal" else EXIT_INFEASIBLE


def _cmd_solve(args) -> int:
    started = time.monotonic()
    instance = load_instance(args.instance)
    report, code = _solve(instance, args)
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
    instance = load_instance(args.instance)
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
    import yaml

    instance = load_instance(args.instance)
    with open(args.solution, "r", encoding="utf-8") as handle:
        report = yaml.safe_load(handle)
    ptype = report.get("problem")
    if report.get("status") != "optimal":
        print("nothing to verify: solution is not optimal", file=sys.stderr)
        return EXIT_INFEASIBLE
    if ptype not in ("v_geq_k", "v_eq_k"):
        raise ParseError(f"verify: unsupported problem type {ptype!r}")
    omega1, omega2 = _named_oracles(instance, 2)
    witness_spec = report.get("witness")
    if witness_spec is None:
        raise ParseError("verify: report carries no witness")
    ground = instance.ground
    x1 = ground.subset_of_labels(report["x1"])
    x2 = ground.subset_of_labels(report["x2"])
    witness = Witness(
        tuple(parse_rational(v) for v in witness_spec["p1"]),
        tuple(parse_rational(v) for v in witness_spec["p2"]),
        ground.subset_of_labels(witness_spec["matched"]),
        parse_int(witness_spec.get("k"), "witness.k"),
    )
    mode = witness_spec.get("mode", "geq")
    if mode == "eq-dual":
        from .valuated import dual_valuation
        ok = verify_witness(x1, x2.complement(), witness, witness.k,
                            omega1, dual_valuation(omega2))
    else:
        ok = verify_witness(x1, x2, witness, witness.k, omega1, omega2)
    print(f"witness: {'valid' if ok else 'INVALID'}")
    return EXIT_OPTIMAL if ok else EXIT_CHECK_FAILED


def _cmd_generate(args) -> int:
    from .generate import random_instance_document

    rng = random.Random(args.seed)
    document = random_instance_document(args.problem, rng)
    import yaml
    text = yaml.dump(document, sort_keys=False, default_flow_style=None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OPTIMAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
