"""Instance file parsing and report serialization.

Instances are single YAML documents.  All numbers that matter are exact
rationals serialized as strings ("3/4", "-2", "inf"); plain integers are
also accepted.  Reports are emitted in the same syntax with a fixed field
order so that identical inputs produce byte-identical reports.

Schema sketch::

    ground: {size: 3, labels: [a, b, c]}
    matroids:
      M1: {kind: uniform, rank: 2}
      M2: {kind: graphic, vertices: 3, edges: [[0, 1], [1, 2], [0, 2]]}
      M3: {kind: partition, blocks: [{members: [a, b], capacity: 1}, ...]}
      M4: {kind: linear, columns: [["1", "0"], ["0", "1"], ["1", "1"]]}
      M5: {kind: explicit, bases: [[a, b], [b, c]]}
    valuations:
      v1: {kind: modular_on_matroid, matroid: M1, weights: ["1", "2", "4"]}
      v2: {kind: size_constrained, rank: 2, weights: ["4", "2", "1"]}
      v3: {kind: dual_of, base: v1}
      v4: {kind: indicator, matroid: M2}
      v5: {kind: disjoint_sum, parts: [v1, v2]}
    mconvex:
      f1: {kind: laminar_hyperplane, rank: 2,
           box: {lower: [0, 0], upper: [2, 2]},
           terms: [{members: [a], start: 0, values: ["0", "1", "4"]}]}
      f2: {kind: from_valuation, valuation: v1}
    problem:
      type: v_geq_k         # or v_eq_k, v_leq_k, v_in, v_n_w, m_geq_k_w,
      oracles: [v1, v2]     #    w_eq_k_lpt, v_c, copic, recoverable_robust,
      k: 2                  #    congestion
"""

from __future__ import annotations

import io
from fractions import Fraction
from typing import Optional

import yaml

from .core import (
    GroundSet,
    InvalidInputError,
    ResourceLimitError,
    Subset,
    parse_rational,
)
from .matroid import (
    ExplicitBaseFamily,
    MatroidOracle,
    check_base_exchange,
    from_explicit_bases,
    make_graphic,
    make_linear,
    make_partition,
    make_uniform,
)
from .valuated import (
    ValuationOracle,
    MnatFunction,
    ConvexTable,
    LaminarSpec,
    disjoint_sum,
    dual_valuation,
    from_matroid_and_weights,
    indicator_of_matroid,
    laminar_convex_function,
    mnat_from_valuation,
    size_constrained_modular,
)

# The largest ground set an instance may declare.  A subset is a bit mask
# of the ground, so a larger one costs memory before any oracle is built.
MAX_GROUND_SIZE = 1_000_000
# PyYAML builds Python objects in pure Python at a few seconds per MB, so
# the document size bounds the work before any field is checked.
MAX_DOCUMENT_BYTES = 2 * 1024 * 1024


class ParseError(InvalidInputError):
    """Instance file violates the schema; the message names the field."""


def parse_int(value, field: str) -> int:
    """A YAML integer; booleans, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{field}: expected an integer, got {value!r}")
    return value


def parse_rationals(values, field: str, size: int) -> tuple[Fraction, ...]:
    """A YAML list of `size` exact rationals."""
    if not isinstance(values, list) or len(values) != size:
        raise ParseError(f"{field}: expected {size} rationals")
    try:
        return tuple(parse_rational(v) for v in values)
    except InvalidInputError as exc:
        raise ParseError(f"{field}: {exc}") from exc


def _mapping(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{field}: expected a mapping, got {value!r}")
    return value


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{field}: expected a list, got {value!r}")
    return value


def _section(raw: dict, name: str) -> dict:
    """A top-level section of named specs; absent or empty means none."""
    return _mapping(raw.get(name) or {}, name)


def _subset(ground: GroundSet, field: str, members) -> Subset:
    if not isinstance(members, list):
        raise ParseError(f"{field}: expected a list of elements")
    indices = []
    for member in members:
        if isinstance(member, int):
            indices.append(parse_int(member, field))
        else:
            indices.append(ground.index_of(str(member)))
    return ground.subset(indices)


def _edge(field: str, edge) -> tuple[int, int]:
    if not isinstance(edge, list) or len(edge) != 2:
        raise ParseError(f"{field}: expected a pair of vertices, got {edge!r}")
    return parse_int(edge[0], field), parse_int(edge[1], field)


def _kind(spec, field: str) -> str:
    """The kind of a named spec, with `-` read as `_`."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError(f"{field}: mapping with a kind field is required")
    return str(spec["kind"]).replace("-", "_")


def build_matroid(ground: GroundSet, spec, field: str) -> MatroidOracle:
    """The matroid oracle of one `matroids` spec on `ground`.

    `field` names the spec in error messages.  Elements are labels or
    0-based indices.  An `explicit` family that fails the base exchange
    axiom is invalid.  This is how `vmint solve` reads a document, and
    how the seeded suites build the specs of :mod:`vmint.rand_instances`.
    """
    kind = _kind(spec, field)
    try:
        if kind == "uniform":
            return make_uniform(ground,
                                parse_int(spec["rank"], f"{field}.rank"))
        if kind == "partition":
            blocks = []
            for block in _list(spec["blocks"], f"{field}.blocks"):
                block = _mapping(block, f"{field}.blocks")
                blocks.append((
                    _subset(ground, f"{field}.blocks", block["members"]),
                    parse_int(block["capacity"], f"{field}.blocks.capacity")))
            return make_partition(ground, blocks)
        if kind == "graphic":
            edges = [_edge(f"{field}.edges", e)
                     for e in _list(spec["edges"], f"{field}.edges")]
            if len(edges) != ground.size:
                raise ParseError(
                    f"{field}.edges: need one edge per ground element")
            return make_graphic(
                parse_int(spec["vertices"], f"{field}.vertices"), edges,
                ground.labels)
        if kind == "linear":
            return make_linear(ground, [
                _list(c, f"{field}.columns")
                for c in _list(spec["columns"], f"{field}.columns")])
        if kind == "explicit":
            bases = tuple(_subset(ground, f"{field}.bases", b)
                          for b in _list(spec["bases"], f"{field}.bases"))
            family = ExplicitBaseFamily(ground, bases)
            matroid = from_explicit_bases(family)
            if not check_base_exchange(family):
                raise ParseError(f"{field}.bases: family is not a matroid")
            return matroid
    except KeyError as exc:
        raise ParseError(f"{field}: missing field {exc}") from exc
    raise ParseError(f"{field}.kind: unknown kind {kind!r}")


class Instance:
    """A parsed instance: ground set, named oracles, and a problem section."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ParseError("instance document must be a mapping")
        self.raw = raw
        self.ground = self._parse_ground(raw.get("ground"))
        valuations = _section(raw, "valuations")
        # A wrong weight count is refused before any matroid is built,
        # which can take far longer than reading the weights.
        self._weights = {name: self._parse_weights(name, spec)
                         for name, spec in valuations.items()}
        self.matroids: dict[str, MatroidOracle] = {}
        for name, spec in _section(raw, "matroids").items():
            self.matroids[name] = self._build_matroid(name, spec)
        self.valuations: dict[str, ValuationOracle] = {}
        for name, spec in valuations.items():
            self.valuations[name] = self._build_valuation(name, spec)
        self.mconvex: dict[str, MnatFunction] = {}
        for name, spec in _section(raw, "mconvex").items():
            self.mconvex[name] = self._build_mconvex(name, spec)
        problem = raw.get("problem")
        if not isinstance(problem, dict) or "type" not in problem:
            raise ParseError("problem: section with a type field is required")
        self.problem = problem

    # -- section parsers ---------------------------------------------------

    def _parse_ground(self, spec) -> GroundSet:
        if not isinstance(spec, dict) or "size" not in spec:
            raise ParseError("ground: mapping with a size field is required")
        size = parse_int(spec["size"], "ground.size")
        if size > MAX_GROUND_SIZE:
            raise ResourceLimitError(
                f"ground.size {size} exceeds the limit {MAX_GROUND_SIZE}")
        labels = spec.get("labels")
        if labels is not None:
            labels = tuple(str(lbl) for lbl in _list(labels, "ground.labels"))
        try:
            return GroundSet(size, labels)
        except InvalidInputError as exc:
            raise ParseError(f"ground: {exc}") from exc

    def _build_matroid(self, name: str, spec) -> MatroidOracle:
        return build_matroid(self.ground, spec, f"matroids.{name}")

    def _parse_weights(self, name: str, spec) -> Optional[tuple]:
        """The weights of a valuation of a kind that has them, else None."""
        field = f"valuations.{name}"
        if _kind(spec, field) not in ("modular_on_matroid",
                                      "size_constrained"):
            return None
        if "weights" not in spec:
            raise ParseError(f"{field}: missing field 'weights'")
        return parse_rationals(spec["weights"], f"{field}.weights",
                               self.ground.size)

    def _build_valuation(self, name: str, spec) -> ValuationOracle:
        field = f"valuations.{name}"
        kind = _kind(spec, field)
        weights = self._weights[name]
        try:
            if kind == "modular_on_matroid":
                return from_matroid_and_weights(
                    self.named_matroid(field, spec["matroid"]), weights)
            if kind == "size_constrained":
                return size_constrained_modular(
                    self.ground, weights,
                    parse_int(spec["rank"], f"{field}.rank"))
            if kind == "dual_of":
                return dual_valuation(self.named_valuation(field, spec["base"]))
            if kind == "indicator":
                return indicator_of_matroid(
                    self.named_matroid(field, spec["matroid"]))
            if kind == "disjoint_sum":
                parts = [self.named_valuation(field, p)
                         for p in _list(spec["parts"], f"{field}.parts")]
                return disjoint_sum(parts)[0]
        except KeyError as exc:
            raise ParseError(f"{field}: missing field {exc}") from exc
        raise ParseError(f"{field}.kind: unknown kind {kind!r}")

    def _build_mconvex(self, name: str, spec) -> MnatFunction:
        field = f"mconvex.{name}"
        kind = _kind(spec, field)
        try:
            if kind == "laminar_hyperplane":
                members = []
                tables = []
                for i, term in enumerate(_list(spec["terms"],
                                               f"{field}.terms")):
                    term = _mapping(term, f"{field}.terms[{i}]")
                    members.append(_subset(
                        self.ground, f"{field}.terms[{i}].members",
                        term["members"]))
                    values = tuple(parse_rational(v) for v in _list(
                        term["values"], f"{field}.terms[{i}].values"))
                    start = parse_int(term.get("start", 0),
                                      f"{field}.terms[{i}].start")
                    tables.append(ConvexTable(start, values))
                lam = LaminarSpec(self.ground, tuple(members), tuple(tables))
                box = spec.get("box")
                lower = upper = None
                if box is not None:
                    box = _mapping(box, f"{field}.box")
                    lower = [parse_int(v, f"{field}.box.lower")
                             for v in _list(box["lower"], f"{field}.box.lower")]
                    upper = [parse_int(v, f"{field}.box.upper")
                             for v in _list(box["upper"], f"{field}.box.upper")]
                total = None
                if "rank" in spec:
                    total = parse_int(spec["rank"], f"{field}.rank")
                return laminar_convex_function(lam, lower, upper, total)
            if kind == "from_valuation":
                return mnat_from_valuation(
                    self.named_valuation(field, spec["valuation"]))
        except KeyError as exc:
            raise ParseError(f"{field}: missing field {exc}") from exc
        raise ParseError(f"{field}.kind: unknown kind {kind!r}")

    # -- lookups (also the CLI's resolution surface) -------------------------

    def named_matroid(self, field: str, name) -> MatroidOracle:
        return _named(self.matroids, "matroid", field, name)

    def named_valuation(self, field: str, name) -> ValuationOracle:
        return _named(self.valuations, "valuation", field, name)

    def named_mconvex(self, field: str, name) -> MnatFunction:
        return _named(self.mconvex, "mconvex function", field, name)


def _named(table: dict, what: str, field: str, name):
    try:
        return table[name]
    except (KeyError, TypeError):   # TypeError: an unhashable name
        raise ParseError(f"{field}: unknown {what} {name!r}") from None


def _libyaml(fast: str, pure: str):
    """The PyYAML class named `fast` when PyYAML was built with libyaml,
    else the pure-Python `pure`; both read and write the same documents."""
    return getattr(yaml, fast if yaml.__with_libyaml__ else pure)


def load_yaml(path: str):
    """The document in a YAML file; a syntax error, or a scalar that
    cannot be built (an integer past Python's digit limit), is a
    ParseError.  A file larger than `MAX_DOCUMENT_BYTES` is refused with
    a ResourceLimitError before PyYAML sees any of it."""
    with open(path, "rb") as handle:
        data = handle.read(MAX_DOCUMENT_BYTES + 1)
    if len(data) > MAX_DOCUMENT_BYTES:
        raise ResourceLimitError(
            f"{path} is larger than the limit of {MAX_DOCUMENT_BYTES} bytes")
    try:
        # A stream named after the file, so that error marks name it.
        stream = io.StringIO(data.decode("utf-8"))
        stream.name = path
        return yaml.load(stream, Loader=_libyaml("CSafeLoader", "SafeLoader"))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        location = f" at line {mark.line + 1}" if mark else ""
        raise ParseError(f"YAML parse error{location}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"YAML value error: {exc}") from exc


def load_instance(path: str) -> Instance:
    return Instance(load_yaml(path))


# -- report helpers ---------------------------------------------------------

def subset_out(subset: Optional[Subset]) -> Optional[list]:
    if subset is None:
        return None
    return list(subset.member_labels())


def dump_yaml(document, **options) -> str:
    """Serialize plain data (mappings, lists, scalars) to YAML text."""
    return yaml.dump(document, Dumper=_libyaml("CSafeDumper", "SafeDumper"),
                     **options)


def dump_report(report: dict) -> str:
    """Serialize a report with stable key order (insertion order)."""
    return dump_yaml(report, sort_keys=False, default_flow_style=False,
                     allow_unicode=True)
