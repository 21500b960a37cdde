"""The three benchmark workloads.

Each workload owns a seeded pool of inputs made at set-up and cycles
through it, one op at a time (a closed loop with one caller).  An op is
the timed part: it builds fresh oracles from the case and solves.  The
rest runs untimed: `collect` turns the op's result into a record,
`describe` renders it as a (status/value, full output) pair of strings,
and `check` is the exact gate from `checks`.

Why these three:
- ladder_modular: modular valuations are cheap oracles, so the time is
  the solver's own (greedy descent, the per-step certificate re-check,
  the auxiliary-digraph build, Dijkstra).
- cli_reductions: the same augmenting loop over 2-4 copies of the ground
  set with composite oracles, reached through YAML parsing, the
  reductions and the report dump; the only workload through `instances`
  and `cli`.
- coupled_flow: all time in the negative-cycle search of `mflow`; the
  augmenting solver and greedy are bypassed, so it is the control for
  changes to them.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import vmint.cli as cli
import vmint.mflow as mflow
import vmint.viap as viap

import checks
import inputs


def _mask(subset) -> int:
    return -1 if subset is None else subset.mask


class LadderModular:
    name = "ladder_modular"

    def __init__(self, seed: int, workdir: Path):
        self.pool = inputs.ladder_pool(seed)

    def op(self, case: inputs.LadderCase):
        _, _, omega1, omega2 = inputs.ladder_oracles(case)
        if case.mode == "geq":
            return viap.solve_v_geq_k(omega1, omega2, case.k)
        return viap.solve_v_eq_k(omega1, omega2, case.k)

    def collect(self, case, solution):
        return solution

    def describe(self, solution) -> tuple[str, str]:
        witness = solution.witness
        if witness is not None:
            witness = ([str(p) for p in witness.p1],
                       [str(p) for p in witness.p2],
                       witness.matched.mask, witness.k)
        full = (solution.status, str(solution.value), _mask(solution.x1),
                _mask(solution.x2), solution.k, solution.mode,
                solution.oracle_calls, witness)
        return f"{solution.status} {solution.value}", repr(full)

    def check(self, case, solution) -> None:
        checks.check_ladder(case, solution)


class CoupledFlow:
    name = "coupled_flow"

    def __init__(self, seed: int, workdir: Path):
        self.pool = inputs.flow_pool(seed)

    def op(self, case: inputs.FlowCase):
        return mflow.solve_m_geq_k_w(inputs.build_mnat(case.f1),
                                     inputs.build_mnat(case.f2),
                                     case.k, case.weights)

    def collect(self, case, solution):
        return solution

    def describe(self, solution) -> tuple[str, str]:
        full = (solution.status, str(solution.value),
                solution.x1 and solution.x1.entries,
                solution.x2 and solution.x2.entries)
        return f"{solution.status} {solution.value}", repr(full)

    def check(self, case, solution) -> None:
        checks.check_flow(case, solution)


class CliReductions:
    """In-process `vmint solve -i DOC --out REPORT` on set-up documents.

    It also counts, untimed, the optimal reports that `vmint verify`
    does not confirm (`unverified` out of `optima`).  They are not
    failures: the answers are right, the certificate path is missing.
    """

    name = "cli_reductions"

    def __init__(self, seed: int, workdir: Path):
        self.pool = inputs.cli_pool(seed, workdir)
        self.optima = 0
        self.unverified = 0

    @staticmethod
    def report_path(case) -> str:
        return case.path[:-len(".yaml")] + ".report.yaml"

    def op(self, case: inputs.CliCase) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["solve", "-i", case.path,
                             "--out", self.report_path(case)])

    def collect(self, case, code: int) -> tuple[int, str]:
        # Removing the report keeps a failed op from reading a stale one.
        path = Path(self.report_path(case))
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            text = ""
        else:
            path.unlink()
        return code, text

    def describe(self, record) -> tuple[str, str]:
        code, text = record
        summary = [line for line in text.splitlines()
                   if line.startswith(("status:", "value:"))]
        return f"{code} {' '.join(summary)}", f"{code}\n{text}"

    def check(self, case, record) -> None:
        code, text = record
        checks.check_report(case.doc, code, text)
        if code == 0:
            self.audit(case, text)

    def audit(self, case, text: str) -> None:
        path = Path(case.path[:-len(".yaml")] + ".verify.yaml")
        path.write_text(text, encoding="utf-8")
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["verify", "-i", case.path, "-s", str(path)])
        finally:
            path.unlink()
        self.optima += 1
        self.unverified += code != 0


WORKLOADS = {w.name: w for w in (LadderModular, CliReductions, CoupledFlow)}

