"""End-to-end CLI behavior: solving, verification, exit codes, determinism."""

import hashlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
import yaml

from vmint import cli, instances
from vmint.cli import main
from vmint.core import InvalidInputError
from vmint.instances import ParseError, dump_report, load_yaml
from vmint.matroid import MatroidOracle
from vmint.rand_instances import random_instance_document

BASIC = """\
ground: {size: 3, labels: [a, b, c]}
matroids:
  M1: {kind: uniform, rank: 2}
valuations:
  v1: {kind: modular_on_matroid, matroid: M1, weights: ["1", "2", "4"]}
  v2: {kind: modular_on_matroid, matroid: M1, weights: ["4", "2", "1"]}
problem: {type: v_geq_k, oracles: [v1, v2], k: 2}
"""


@pytest.fixture
def basic_instance(tmp_path):
    path = tmp_path / "basic.yaml"
    path.write_text(BASIC)
    return str(path)


def test_solve_reports_value_and_witness(basic_instance, tmp_path, capsys):
    out = tmp_path / "report.yaml"
    code = main(["solve", "-i", basic_instance, "--verify", "--brute",
                 "--out", str(out)])
    assert code == 0
    report = yaml.safe_load(out.read_text())
    assert report["status"] == "optimal"
    assert report["value"] == "9"
    assert report["witness"]["matched"] == ["a", "b"]
    assert report["verified"] is True
    assert report["brute_checked"] is True


def test_k_override_flag(basic_instance, capsys):
    code = main(["solve", "-i", basic_instance, "--k", "1"])
    assert code == 0
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["value"] == "6"


def test_infeasible_exit_code(tmp_path, capsys):
    text = BASIC.replace("type: v_geq_k, oracles: [v1, v2], k: 2",
                         "type: v_eq_k, oracles: [v1, v2], k: 0")
    path = tmp_path / "inst.yaml"
    path.write_text(text)
    code = main(["solve", "-i", str(path)])
    assert code == 2


def test_invalid_instance_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("ground: {size: 3}\nproblem: {type: nonsense}\n")
    assert main(["solve", "-i", str(path)]) == 3


def test_table_length_checked_before_quadratic_work(tmp_path, capsys,
                                                   monkeypatch):
    # A uniform matroid knows its rank: building it on a million elements
    # asks no independence query, so the weight count is checked at once.
    def greedy(*_args):
        raise AssertionError("greedy rank pass on the whole ground set")

    monkeypatch.setattr(MatroidOracle, "_greedy_by_queries", greedy)
    path = tmp_path / "huge.yaml"
    path.write_text(
        "ground: {size: 1000000}\n"
        "matroids:\n  M: {kind: uniform, rank: 2}\n"
        "valuations:\n  v: {kind: modular_on_matroid, matroid: M,"
        " weights: ['1', '2', '3']}\n"
        "problem: {type: v_geq_k, oracles: [v, v], k: 1}\n")
    assert main(["solve", "-i", str(path)]) == 3
    assert "expected 1000000 rationals" in capsys.readouterr().err


def test_graphic_base_is_one_pass(tmp_path, capsys, monkeypatch):
    # A graphic matroid finds its greedy base in one union-find pass, so a
    # path graph on 100,000 edges is built without one independence query
    # per edge before the weight count is checked.
    def greedy(*_args):
        raise AssertionError("greedy rank pass on the whole ground set")

    monkeypatch.setattr(MatroidOracle, "_greedy_by_queries", greedy)
    n = 100_000
    edges = ", ".join(f"[{i}, {i + 1}]" for i in range(n))
    path = tmp_path / "path.yaml"
    path.write_text(
        f"ground: {{size: {n}}}\n"
        f"matroids:\n  M: {{kind: graphic, vertices: {n + 1},"
        f" edges: [{edges}]}}\n"
        "valuations:\n  v: {kind: modular_on_matroid, matroid: M,"
        " weights: ['1', '2', '3']}\n"
        "problem: {type: v_geq_k, oracles: [v, v], k: 1}\n")
    assert main(["solve", "-i", str(path)]) == 3
    assert f"expected {n} rationals" in capsys.readouterr().err


def test_full_rank_uniform_is_checked_at_once(tmp_path, capsys):
    # The base of U(n, n) is one shift; a mask built by one OR per
    # element would copy it a million times, for seconds of work.
    path = tmp_path / "free.yaml"
    path.write_text(
        "ground: {size: 1000000}\n"
        "matroids:\n  M: {kind: uniform, rank: 1000000}\n"
        "valuations:\n  v: {kind: modular_on_matroid, matroid: M,"
        " weights: ['1', '2', '3']}\n"
        "problem: {type: v_geq_k, oracles: [v, v], k: 1}\n")
    start = time.process_time()
    assert main(["solve", "-i", str(path)]) == 3
    assert time.process_time() - start < 2
    assert "expected 1000000 rationals" in capsys.readouterr().err


def test_weight_count_is_checked_before_any_matroid_is_built(tmp_path,
                                                            capsys):
    # 300 dense columns of height 150: the linear matroid's construction
    # alone ran for minutes, and only then was the one weight refused.
    rng = random.Random(1)
    columns = ", ".join(
        "[" + ", ".join(str(rng.randint(-9, 9)) for _ in range(150)) + "]"
        for _ in range(300))
    text = ("ground: {size: 300}\n"
            f"matroids:\n  M: {{kind: linear, columns: [{columns}]}}\n"
            "valuations:\n  v: {kind: modular_on_matroid, matroid: M,"
            " weights: ['1']}\n"
            "problem: {type: v_geq_k, oracles: [v, v], k: 1}\n")
    path = tmp_path / "linear.yaml"
    path.write_text(text)
    start = time.process_time()
    assert main(["solve", "-i", str(path)]) == 3
    assert time.process_time() - start < 2
    assert "expected 300 rationals" in capsys.readouterr().err
    # Every matroid is still built: an unused invalid one is refused
    # after the weights pass.
    path.write_text(
        "ground: {size: 2}\n"
        "matroids:\n  M: {kind: uniform, rank: 1}\n"
        "  unused: {kind: uniform, rank: 3}\n"
        "valuations:\n  v: {kind: modular_on_matroid, matroid: M,"
        " weights: ['1', '2']}\n"
        "problem: {type: v_geq_k, oracles: [v, v], k: 1}\n")
    assert main(["solve", "-i", str(path)]) == 3
    assert "rank 3" in capsys.readouterr().err


def test_large_partition_block_is_built_in_linear_time(tmp_path, capsys,
                                                      monkeypatch):
    # One block of 250,000 members: a member list or a block mask built
    # one bit at a time copies the mask per member, for seconds of work.
    # PyYAML's constructor alone takes over a second on 250,000 scalars,
    # so the document is parsed before the clock starts.
    n = 250_000
    path = tmp_path / "partition.yaml"
    path.write_text(
        f"ground: {{size: {n}}}\n"
        "matroids:\n  M: {kind: partition, blocks: [{members: ["
        + ",".join(map(str, range(n))) + "], capacity: 1}]}\n"
        "valuations:\n  v: {kind: modular_on_matroid, matroid: M,"
        " weights: ['1', '2', '3']}\n"
        "problem: {type: v_geq_k, oracles: [v, v], k: 1}\n")
    document = load_yaml(str(path))
    monkeypatch.setattr(yaml, "load", lambda *_args, **_kwargs: document)
    start = time.process_time()
    assert main(["solve", "-i", str(path)]) == 3
    assert time.process_time() - start < 2
    assert f"expected {n} rationals" in capsys.readouterr().err


def test_labels_are_looked_up_in_linear_time(tmp_path, capsys,
                                             monkeypatch):
    # 100,000 labels, each named once by a partition block: a label
    # lookup that scans the labels makes this quadratic, for minutes.
    # The document is parsed before the clock starts, as above.
    n = 100_000
    labels = ",".join(f"l{i}" for i in range(n))
    path = tmp_path / "labels.yaml"
    path.write_text(
        f"ground: {{size: {n}, labels: [{labels}]}}\n"
        "matroids:\n  M: {kind: partition, blocks: [{members: ["
        + labels + "], capacity: 1}]}\n"
        "valuations:\n  v: {kind: modular_on_matroid, matroid: M,"
        " weights: ['1', '2', '3']}\n"
        "problem: {type: v_geq_k, oracles: [v, v], k: 1}\n")
    document = load_yaml(str(path))
    monkeypatch.setattr(yaml, "load", lambda *_args, **_kwargs: document)
    start = time.process_time()
    assert main(["solve", "-i", str(path)]) == 3
    assert time.process_time() - start < 2
    assert f"expected {n} rationals" in capsys.readouterr().err


def test_copy_count_is_a_resource_limit(tmp_path, capsys):
    # 200 copies of a 4-element ground: the reduction's tuple ground is
    # refused before any copy is built, instead of running for minutes.
    copies = 200
    path = tmp_path / "copies.yaml"
    path.write_text(
        "ground: {size: 4}\n"
        "matroids:\n  M: {kind: uniform, rank: 2}\n"
        "valuations:\n  v: {kind: modular_on_matroid, matroid: M,"
        " weights: ['1', '2', '3', '4']}\n"
        f"problem: {{type: v_n_w, oracles: [{', '.join(['v'] * copies)}],"
        " w: [1, 1, 1, 1]}\n")
    start = time.process_time()
    assert main(["solve", "-i", str(path)]) == 4
    assert time.process_time() - start < 2
    assert f"{copies} copies of 4 elements" in capsys.readouterr().err


def _padded(text: str, size: int) -> str:
    """The document followed by a comment line that brings it to `size`
    bytes."""
    return text + "#" * (size - len(text.encode()) - 1) + "\n"


def test_oversized_document_is_a_resource_limit(tmp_path, capsys,
                                                monkeypatch):
    # Instances and reports alike are refused before PyYAML sees them.
    limit = instances.MAX_DOCUMENT_BYTES
    instance = tmp_path / "basic.yaml"
    instance.write_text(BASIC)
    report = tmp_path / "report.yaml"
    assert main(["solve", "-i", str(instance), "--out", str(report)]) == 0
    big_instance = tmp_path / "big.yaml"
    big_instance.write_text(_padded(BASIC, limit + 1))
    big_report = tmp_path / "big.report.yaml"
    big_report.write_text(_padded(report.read_text(), limit + 1))
    capsys.readouterr()

    real_load = yaml.load

    def load(stream, *args, **kwargs):
        text = stream.read() if hasattr(stream, "read") else stream
        if len(text) > limit:
            raise AssertionError("PyYAML read an oversized document")
        return real_load(text, *args, **kwargs)

    monkeypatch.setattr(yaml, "load", load)
    for argv in (["solve", "-i", str(big_instance)],
                 ["verify", "-i", str(instance), "-s", str(big_report)]):
        assert main(argv) == 4
        assert f"larger than the limit of {limit} bytes" \
            in capsys.readouterr().err


def test_document_at_the_size_limit_is_read(tmp_path):
    limit = instances.MAX_DOCUMENT_BYTES
    small, padded = tmp_path / "small.yaml", tmp_path / "padded.yaml"
    small.write_text(BASIC)
    padded.write_text(_padded(BASIC, limit))
    assert padded.stat().st_size == limit
    reports = []
    for path in (small, padded):
        out = tmp_path / f"{path.stem}.report.yaml"
        assert main(["solve", "-i", str(path), "--out", str(out)]) == 0
        reports.append(out.read_text())
        assert main(["verify", "-i", str(path), "-s", str(out)]) == 0
    assert reports[0] == reports[1]


def test_huge_ground_is_a_resource_limit(tmp_path, capsys, monkeypatch):
    # The size is refused before any matroid or subset mask is built.
    def uniform(*_args):
        raise AssertionError("a matroid was built")

    monkeypatch.setattr(instances, "make_uniform", uniform)
    path = tmp_path / "huge.yaml"
    for size in (100_000_000_000, instances.MAX_GROUND_SIZE + 1):
        path.write_text(
            f"ground: {{size: {size}}}\n"
            "matroids:\n  M: {kind: uniform, rank: 1}\n"
            "valuations:\n  v: {kind: modular_on_matroid, matroid: M,"
            " weights: ['1', '2', '3']}\n"
            "problem: {type: v_geq_k, oracles: [v, v], k: 1}\n")
        assert main(["solve", "-i", str(path)]) == 4
        assert f"ground.size {size} exceeds the limit " \
            f"{instances.MAX_GROUND_SIZE}" in capsys.readouterr().err


def test_huge_exponent_is_invalid(tmp_path, capsys):
    path = tmp_path / "exponent.yaml"
    path.write_text(BASIC.replace('"2", "4"]', '"1e999999999", "4"]', 1))
    assert main(["solve", "-i", str(path)]) == 3
    err = capsys.readouterr().err
    assert "valuations.v1.weights: exponent of '1e999999999'" in err


def test_overlong_reported_value_is_a_resource_limit(tmp_path, capsys):
    # 2e4300 parses, but the value, with 4301 digits, cannot be written.
    path = tmp_path / "long.yaml"
    path.write_text(BASIC.replace('"2", "4"]', '"-2e4300", "4"]', 1))
    assert main(["solve", "-i", str(path)]) == 4
    assert "resource limit: a reported rational has too many digits" \
        in capsys.readouterr().err


def test_overlong_yaml_integer_is_invalid(tmp_path, capsys):
    path = tmp_path / "digits.yaml"
    path.write_text(BASIC.replace("size: 3", "size: " + "9" * 5001, 1))
    with pytest.raises(ParseError, match="YAML value error"):
        load_yaml(str(path))
    assert main(["solve", "-i", str(path)]) == 3
    assert "invalid instance: YAML value error" in capsys.readouterr().err


def test_parse_error_names_field(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text(
        "ground: {size: 2, labels: [a, b]}\n"
        "valuations:\n  v1: {kind: modular_on_matroid, matroid: MX,"
        " weights: ['1', '2']}\n"
        "problem: {type: v_geq_k, oracles: [v1, v1], k: 0}\n")
    assert main(["solve", "-i", str(path)]) == 3
    err = capsys.readouterr().err
    assert "MX" in err


def test_resource_limit_exit_code(basic_instance, capsys):
    assert main(["solve", "-i", basic_instance, "--brute", "--limit", "1"]) == 4


BASES_PAST_THE_LIMIT = """\
ground: {size: 20000}
matroids:
  M: {kind: uniform, rank: 10000}
valuations:
  v: {kind: indicator, matroid: M}
problem: {type: v_geq_k, oracles: [v, v], k: 1}
"""


@pytest.mark.parametrize("text, limit", [
    (BASIC, ["--limit", "1"]),      # the pair count is past --limit
    (BASES_PAST_THE_LIMIT, []),     # C(20000, 10000) bases, past the scan
], ids=["pairs", "bases"])
def test_brute_limit_is_checked_before_the_solver(text, limit, tmp_path,
                                                  monkeypatch, capsys):
    path = tmp_path / "instance.yaml"
    path.write_text(text)
    solved = []
    monkeypatch.setattr(cli, "solve_v_geq_k",
                        lambda *args: solved.append(args))
    assert main(["solve", "-i", str(path), "--brute", *limit]) == 4
    assert solved == []
    assert "resource limit" in capsys.readouterr().err


def test_brute_report_is_the_plain_report(tmp_path, capsys):
    """An accepted `--brute` run prints the report of a plain run, with
    `brute_checked` added for the types that have a brute force."""
    checked = 0
    for ptype in cli.PROBLEMS:
        for seed in range(4):
            path = tmp_path / f"{ptype}-{seed}.yaml"
            assert main(["generate", "--problem", ptype, "--seed", str(seed),
                         "--out", str(path)]) == 0
            capsys.readouterr()
            plain = main(["solve", "-i", str(path)]), capsys.readouterr().out
            brute = main(["solve", "-i", str(path), "--brute"]), \
                capsys.readouterr().out
            assert brute[0] == plain[0], (ptype, seed)
            if brute[1] != plain[1]:
                assert brute[1] == plain[1] + "brute_checked: true\n"
                checked += 1
    assert checked >= 20


def test_reports_are_byte_identical(basic_instance, tmp_path):
    first = tmp_path / "a.yaml"
    second = tmp_path / "b.yaml"
    assert main(["solve", "-i", basic_instance, "--out", str(first)]) == 0
    assert main(["solve", "-i", basic_instance, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_round_trip_without_resolve(basic_instance, tmp_path, capsys):
    report_path = tmp_path / "report.yaml"
    assert main(["solve", "-i", basic_instance, "--out",
                 str(report_path)]) == 0
    assert main(["verify", "-i", basic_instance, "-s",
                 str(report_path)]) == 0
    # Tampering with a potential entry must fail verification.
    report = yaml.safe_load(report_path.read_text())
    report["witness"]["p1"][0] = "1/7"
    report_path.write_text(yaml.dump(report, sort_keys=False))
    assert main(["verify", "-i", basic_instance, "-s",
                 str(report_path)]) == 1


def test_check_exchange(basic_instance, capsys):
    assert main(["check", "-i", basic_instance, "--valuation", "v1"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


HUGE_DOMAIN = {
    # C(20000, 10000) bases, a count of 6019 digits.
    "valuation": (
        "ground: {size: 20000}\n"
        "matroids:\n  M: {kind: uniform, rank: 10000}\n"
        "valuations:\n  v: {kind: indicator, matroid: M}\n"
        "problem: {type: v_geq_k, oracles: [v, v], k: 1}\n",
        ["--valuation", "v"], "C(20000,10000)"),
    # A box of 10**5000 points.
    "mconvex": (
        "ground: {size: 5000}\n"
        "mconvex:\n  f: {kind: laminar_hyperplane, terms: [], box: {lower: ["
        + ", ".join(["0"] * 5000) + "], upper: ["
        + ", ".join(["9"] * 5000) + "]}}\n"
        "problem: {type: m_geq_k_w, functions: [f, f], k: 0}\n",
        ["--mconvex", "f"], "dimension 5000"),
}


@pytest.mark.parametrize("kind", sorted(HUGE_DOMAIN))
def test_check_past_the_limit_is_a_resource_limit(tmp_path, capsys, kind):
    # The scan is refused without writing its size, which has more
    # digits than an int may be written with.
    text, flags, size = HUGE_DOMAIN[kind]
    path = tmp_path / f"{kind}.yaml"
    path.write_text(text)
    assert main(["check", "-i", str(path), *flags]) == 4
    err = capsys.readouterr().err
    assert "resource limit: " in err and size in err


def test_hyphenated_kind_spellings_accepted(tmp_path, capsys):
    text = BASIC.replace("kind: modular_on_matroid",
                         "kind: modular-on-matroid")
    path = tmp_path / "hyphen.yaml"
    path.write_text(text)
    assert main(["solve", "-i", str(path)]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["value"] == "9"


def test_problem_table_covers_every_type():
    # The generator draws exactly the types of the table: it fails closed.
    for ptype in cli.PROBLEMS:
        document = random_instance_document(ptype, random.Random(0))
        assert document["problem"]["type"] == ptype
    for name in ("bogus", "V_GEQ_K", "v_geq", "", "congestion "):
        with pytest.raises(InvalidInputError, match="cannot generate"):
            random_instance_document(name, random.Random(0))


def test_generate_then_solve_all_types(tmp_path):
    for seed, ptype in enumerate(cli.PROBLEMS):
        path = tmp_path / f"{ptype}.yaml"
        assert main(["generate", "--problem", ptype, "--seed", str(seed),
                     "--out", str(path)]) == 0
        code = main(["solve", "-i", str(path)])
        assert code in (0, 2), (ptype, code)


# sha256 over "<exit code>\n<stdout>" of `vmint generate` for seeds 0-299,
# per type.  A change to any draw of `rand_instances` shows here.
GENERATE_DIGESTS = {
    "v_geq_k":
        "33ad0820882c960dca2e8e10f6b1fd7adb77f54e6cad086cb6f318f8693897be",
    "v_eq_k":
        "b468a51f5fa1d10d8015d239d2259633a3663e1b958c8f64f4bae2d1beddb009",
    "v_leq_k":
        "118e83d0b8ab6501b2b920b4de8ab9290ec33a158d1f476a2946793f1defec9c",
    "v_in":
        "1f08e659d4329cf1f94916a951f5a7ea9cdef895a3b20f747b75487f2c4e7ebc",
    "v_n_w":
        "62fa249c18016fde81a097af7c2ced2b1c0f576affa6594a907651bc92325a9d",
    "m_geq_k_w":
        "f9e92ac1d06dd0855cd460b964ba33ad033be3d2c6b5ae4d92287dfa356e31cb",
    "w_eq_k_lpt":
        "87636bb88003d858386f2eccc8ed87d9cddf1d06d6e054b8c6a170315d9e34dd",
    "v_c":
        "23e6851e203b0374d0c0da59639b6284cea8e18db1c842a0f2c1f485cad8f752",
    "copic":
        "14420f0af452f25b05e53def1d20267ed4bcc93849bf86c8d981fd9694c8aebc",
    "recoverable_robust":
        "09451c2625431765a459ed66a8217c1fac39c4a87a136ff6605f8f9cd8fc74e1",
    "congestion":
        "69062cdaabecc6deb10d9dde078bef90c9aa07133007c177c8d361e2852f6cf9",
}


def test_generate_output_is_pinned(capsys):
    assert set(GENERATE_DIGESTS) == set(cli.PROBLEMS)
    for ptype, expected in GENERATE_DIGESTS.items():
        digest = hashlib.sha256()
        for seed in range(300):
            code = main(["generate", "--problem", ptype, "--seed", str(seed)])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == expected, ptype


# sha256 over "<exit code>\n<report>" of `vmint solve` on the documents of
# `vmint generate` for seeds 0-29, per type.  The reports carry the
# oracle_calls counters, so a change to how often an oracle is asked
# shows here as well as a change to an optimum.
SOLVE_DIGESTS = {
    "v_geq_k":
        "fcda4bf14eca020639ebf97fd622e696ef430c7daa101437b074e748fa21a550",
    "v_eq_k":
        "4499926f34f99c56054a69aec6979fa9db9d91e160d4a25673aa6baecbcac29b",
    "v_leq_k":
        "8bacc8188da0ff389b900642cba4fc27771ea2a2fbe5dfcd53b9ee3a147849b5",
    "v_in":
        "641504e1fb55788dd160f9971e249ff9cdd6168dc145f8dab580cf3d910e8d46",
    "v_n_w":
        "d9014ce4386b96b1a74bd576e7a98328b8e19b261e0475abbd70171ed0902dfa",
    "m_geq_k_w":
        "2e74d8ff04c54295bb0d67bdb9e4613abd4a89909f42e8f2949068ca8787a6c9",
    "w_eq_k_lpt":
        "c07b7c4e3d42e8fbb4b6ab4ad94e56ecdb6fe9ff5fedb1ad6ce21d885915bf7d",
    "v_c":
        "6a69d19cd810640a73e93036ef39da4fd450869df9fa9d9591204a4ec9e00b18",
    "copic":
        "53a001c938e6e2631f406a3db00db8d3b35a6bf9d2a26adcda00ea8d7d340d2a",
    "recoverable_robust":
        "04748ed91c728f2b0b8dfca3db7e5db01442adb90b68686dc89c3653c3d33af3",
    "congestion":
        "b4bf9d2ed5ce3f7a65022b0f93b9c6772abe0f0c05b48a375d870f547dba61ac",
}


def test_solve_reports_are_pinned(tmp_path, capsys):
    assert set(SOLVE_DIGESTS) == set(cli.PROBLEMS)
    for ptype, expected in SOLVE_DIGESTS.items():
        digest = hashlib.sha256()
        for seed in range(30):
            path = tmp_path / f"{ptype}-{seed}.yaml"
            assert main(["generate", "--problem", ptype, "--seed", str(seed),
                         "--out", str(path)]) == 0
            code = main(["solve", "-i", str(path)])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == expected, ptype


@pytest.mark.parametrize("argv", [
    [], ["solve"], ["solve", "-i", "x.yaml", "--k", "abc"], ["bogus"],
    ["verify", "-i", "x.yaml"], ["generate"],
])
def test_usage_errors_are_invalid_input(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "usage: vmint" in err and "error:" in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--instance" in capsys.readouterr().out


@pytest.mark.parametrize("ptype", ["v_in", "v_n_w", "copic", "v_c",
                                   "congestion"])
def test_k_is_rejected_where_there_is_no_k(ptype, tmp_path, capsys):
    path = tmp_path / f"{ptype}.yaml"
    assert main(["generate", "--problem", ptype, "--seed", "0",
                 "--out", str(path)]) == 0
    assert main(["solve", "-i", str(path)]) in (0, 2)
    capsys.readouterr()
    assert main(["solve", "-i", str(path), "--k", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ptype in captured.err and "--k" in captured.err


def _rank2_m_geq_k_w(dimension, top):
    """A `laminar_hyperplane` m_geq_k_w document of rank 2 on the box
    [0, top]^dimension, with convex singleton tables, and its optimal
    value found by enumerating both rank-2 domains directly."""
    labels = [f"e{i}" for i in range(dimension)]

    def table(i, shift):
        slope = (5 * i + shift) % 7 - 3
        return [Fraction(slope * t + t * (t - 1) // 2, 2)
                for t in range(top + 1)]

    tables = {"f1": [table(i, 0) for i in range(dimension)],
              "f2": [table(i, 3) for i in range(dimension)]}
    weights = [-Fraction(i % 3, 3) for i in range(dimension)]
    document = {
        "ground": {"size": dimension, "labels": labels},
        "mconvex": {name: {
            "kind": "laminar_hyperplane", "rank": 2,
            "box": {"lower": [0] * dimension, "upper": [top] * dimension},
            "terms": [{"members": [label], "start": 0,
                       "values": [str(g) for g in values]}
                      for label, values in zip(labels, per_element)]}
            for name, per_element in tables.items()},
        "problem": {"type": "m_geq_k_w", "functions": ["f1", "f2"], "k": 1,
                    "w": [str(w) for w in weights]},
    }
    points = []
    for i in range(dimension):
        for j in range(i, dimension):
            if i < j or top >= 2:
                x = [0] * dimension
                x[i] += 1
                x[j] += 1
                points.append(x)

    def value(name, x):
        return sum(tables[name][v][x[v]] for v in range(dimension))

    best = min(value("f1", x) + value("f2", y)
               + sum(w * min(a, b) for w, a, b in zip(weights, x, y))
               for x in points for y in points
               if sum(map(min, x, y)) >= 1)
    return document, len(points), best


@pytest.mark.parametrize("dimension, top, domain",
                         [(9, 3, 45), (18, 1, 153)])
def test_m_geq_k_w_solves_without_a_box_scan(dimension, top, domain,
                                             tmp_path, capsys):
    # Both boxes hold 262,144 points, more than a witness scan may visit.
    document, points, best = _rank2_m_geq_k_w(dimension, top)
    assert points == domain
    path = tmp_path / "m_geq_k_w.yaml"
    path.write_text(yaml.safe_dump(document, sort_keys=False))
    assert main(["solve", "-i", str(path)]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["status"] == "optimal"
    assert Fraction(report["value"]) == best


@pytest.mark.parametrize("k", [2, 9])
def test_m_geq_k_w_positive_weight_is_invalid_at_any_k(k, tmp_path, capsys):
    path = tmp_path / "m_geq_k_w.yaml"
    assert main(["generate", "--problem", "m_geq_k_w", "--seed", "0",
                 "--out", str(path)]) == 0
    document = yaml.safe_load(path.read_text())
    document["problem"]["w"] = ["3", "-5"]
    document["problem"]["k"] = k
    path.write_text(yaml.safe_dump(document, sort_keys=False))
    assert main(["solve", "-i", str(path)]) == 3
    assert "nonpositive" in capsys.readouterr().err


def test_stock_instances(capsys):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "instances"
    assert main(["solve", "-i", str(root / "sample.yaml"), "--k", "2",
                 "--brute"]) == 0
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["value"] == "9"
    assert main(["solve", "-i", str(root / "pigeonhole.yaml"),
                 "--k", "0"]) == 2


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "vmint.cli", "--help"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "solve" in result.stdout


def test_eq_dual_witness_verifies_via_cli(tmp_path):
    text = """\
ground: {size: 3, labels: [a, b, c]}
matroids:
  M1: {kind: uniform, rank: 2}
valuations:
  v1: {kind: modular_on_matroid, matroid: M1, weights: ["1", "2", "4"]}
  v2: {kind: modular_on_matroid, matroid: M1, weights: ["1", "2", "4"]}
problem: {type: v_eq_k, oracles: [v1, v2], k: 1}
"""
    inst = tmp_path / "eq.yaml"
    inst.write_text(text)
    report = tmp_path / "report.yaml"
    assert main(["solve", "-i", str(inst), "--verify", "--out",
                 str(report)]) == 0
    assert main(["verify", "-i", str(inst), "-s", str(report)]) == 0


LEQ = BASIC.replace("type: v_geq_k, oracles: [v1, v2], k: 2",
                    "type: v_leq_k, oracles: [v1, v2], k: 1")


def test_leq_witness_verifies_via_cli(tmp_path, capsys):
    inst = tmp_path / "leq.yaml"
    inst.write_text(LEQ)
    report_path = tmp_path / "report.yaml"
    assert main(["solve", "-i", str(inst), "--verify", "--out",
                 str(report_path)]) == 0
    report = yaml.safe_load(report_path.read_text())
    assert report["verified"] is True
    assert report["witness"]["mode"] == "leq"
    assert main(["verify", "-i", str(inst), "-s", str(report_path)]) == 0
    report["witness"]["p1"][0] = "1/7"
    report_path.write_text(yaml.dump(report, sort_keys=False))
    assert main(["verify", "-i", str(inst), "-s", str(report_path)]) == 1


def test_report_whose_potential_copies_differ_is_rejected(tmp_path,
                                                          capsys):
    # A report writes one potential twice, as p1 and p2; an eq-dual
    # report with p2 edited alone must not verify.
    inst = tmp_path / "eq.yaml"
    report_path = tmp_path / "report.yaml"
    assert main(["generate", "--problem", "v_eq_k", "--seed", "12",
                 "--out", str(inst)]) == 0
    assert main(["solve", "-i", str(inst), "--out", str(report_path)]) == 0
    assert main(["verify", "-i", str(inst), "-s", str(report_path)]) == 0
    report = yaml.safe_load(report_path.read_text())
    assert report["witness"]["mode"] == "eq-dual"
    assert report["witness"]["p1"] == report["witness"]["p2"]
    report["witness"]["p2"][0] = str(Fraction(report["witness"]["p2"][0])
                                     + 1)
    report_path.write_text(yaml.dump(report, sort_keys=False))
    assert main(["verify", "-i", str(inst), "-s", str(report_path)]) == 1


def test_verify_unsupported_type_is_invalid(tmp_path, capsys):
    inst = tmp_path / "copic.yaml"
    report_path = tmp_path / "report.yaml"
    assert main(["generate", "--problem", "copic", "--seed", "0",
                 "--out", str(inst)]) == 0
    assert main(["solve", "-i", str(inst), "--verify", "--out",
                 str(report_path)]) == 0
    assert "verified" not in yaml.safe_load(report_path.read_text())
    assert main(["verify", "-i", str(inst), "-s", str(report_path)]) == 3
    assert "unsupported" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["status: [optimal\n", "- optimal\n"],
                         ids=["not-yaml", "not-a-mapping"])
def test_malformed_solution_file_is_invalid(basic_instance, tmp_path,
                                            capsys, text):
    report_path = tmp_path / "report.yaml"
    report_path.write_text(text)
    assert main(["verify", "-i", basic_instance, "-s",
                 str(report_path)]) == 3


def test_reported_value_is_verified(basic_instance, tmp_path, capsys):
    report_path = tmp_path / "report.yaml"
    assert main(["solve", "-i", basic_instance, "--out",
                 str(report_path)]) == 0
    report = yaml.safe_load(report_path.read_text())
    report["value"] = "8"
    report_path.write_text(yaml.dump(report, sort_keys=False))
    assert main(["verify", "-i", basic_instance, "-s",
                 str(report_path)]) == 1


def test_witness_for_another_k_is_rejected(basic_instance, tmp_path,
                                           capsys):
    # Optimal for k = 0, but the instance asks for k = 2.
    report_path = tmp_path / "report.yaml"
    assert main(["solve", "-i", basic_instance, "--k", "0", "--out",
                 str(report_path)]) == 0
    assert main(["verify", "-i", basic_instance, "-s",
                 str(report_path)]) == 1


def test_eq_report_off_target_is_rejected(tmp_path, capsys):
    # (ab, ab) with zero potentials certifies the >= 1 optimum, value 6,
    # but its intersection is 2; the = 1 optimum has value 8.
    inst = tmp_path / "eq.yaml"
    inst.write_text(BASIC.replace('["4", "2", "1"]', '["1", "2", "4"]')
                    .replace("type: v_geq_k, oracles: [v1, v2], k: 2",
                             "type: v_eq_k, oracles: [v1, v2], k: 1"))
    report = {"problem": "v_eq_k", "status": "optimal", "value": "6",
              "x1": ["a", "b"], "x2": ["a", "b"],
              "witness": {"p1": ["0"] * 3, "p2": ["0"] * 3,
                          "matched": ["a"], "k": 1, "mode": "eq-direct"}}
    report_path = tmp_path / "report.yaml"
    report_path.write_text(yaml.dump(report, sort_keys=False))
    assert main(["verify", "-i", str(inst), "-s", str(report_path)]) == 1
    assert main(["solve", "-i", str(inst), "--verify"]) == 0
    assert yaml.safe_load(capsys.readouterr().out)["value"] == "8"


@pytest.mark.parametrize("solved, checked", [
    # (ab, ac), value 6, is the <= 1 optimum; the >= 2 optimum is 9.
    (LEQ, BASIC),
    # (ab, ab), value 6, is the >= 1 optimum; the = 1 optimum is 8.
    (BASIC.replace('["4", "2", "1"]', '["1", "2", "4"]')
     .replace("v2], k: 2", "v2], k: 1"),
     BASIC.replace('["4", "2", "1"]', '["1", "2", "4"]')
     .replace("type: v_geq_k, oracles: [v1, v2], k: 2",
              "type: v_eq_k, oracles: [v1, v2], k: 1")),
], ids=["leq-on-geq", "geq-on-eq"])
def test_report_of_another_type_is_invalid(tmp_path, capsys, solved,
                                           checked):
    solved_path, checked_path = tmp_path / "a.yaml", tmp_path / "b.yaml"
    solved_path.write_text(solved)
    checked_path.write_text(checked)
    report_path = tmp_path / "report.yaml"
    assert main(["solve", "-i", str(solved_path), "--verify", "--out",
                 str(report_path)]) == 0
    report = yaml.safe_load(report_path.read_text())
    assert report["value"] == "6"
    capsys.readouterr()
    assert main(["verify", "-i", str(checked_path), "-s",
                 str(report_path)]) == 3
    wanted = yaml.safe_load(checked)["problem"]["type"]
    err = capsys.readouterr().err
    assert f"{report['problem']!r} report on a {wanted!r} instance" in err


@pytest.mark.parametrize("ptype", ["nonsense", "[v_geq_k, v_eq_k]", "3"])
@pytest.mark.parametrize("command", ["solve", "verify", "check"])
def test_unknown_type_is_invalid_under_every_command(basic_instance, tmp_path,
                                                     capsys, ptype, command):
    report_path = tmp_path / "report.yaml"
    assert main(["solve", "-i", basic_instance, "--out",
                 str(report_path)]) == 0
    path = tmp_path / "unknown.yaml"
    path.write_text(BASIC.replace("type: v_geq_k", f"type: {ptype}"))
    extra = {"solve": [], "verify": ["-s", str(report_path)],
             "check": ["--valuation", "v1"]}[command]
    capsys.readouterr()
    assert main([command, "-i", str(path), *extra]) == 3
    assert "problem.type: unknown type" in capsys.readouterr().err


def test_generate_unknown_type_is_invalid(capsys):
    assert main(["generate", "--problem", "bogus"]) == 3
    assert "cannot generate problem type 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["two", "true", "1.9"])
def test_non_integer_k_is_invalid(tmp_path, capsys, k):
    path = tmp_path / "inst.yaml"
    path.write_text(BASIC.replace("v2], k: 2", f"v2], k: {k}"))
    assert main(["solve", "-i", str(path)]) == 3
    assert "problem.k" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["two", True, 1.9])
def test_non_integer_witness_k_is_invalid(basic_instance, tmp_path, capsys,
                                          k):
    report_path = tmp_path / "report.yaml"
    assert main(["solve", "-i", basic_instance, "--out",
                 str(report_path)]) == 0
    report = yaml.safe_load(report_path.read_text())
    report["witness"]["k"] = k
    report_path.write_text(yaml.dump(report, sort_keys=False))
    assert main(["verify", "-i", basic_instance, "-s",
                 str(report_path)]) == 3
    assert "witness.k" in capsys.readouterr().err


SCHEMA_INTS = BASIC.replace("""  M1: {kind: uniform, rank: 2}
""", """  M1: {kind: uniform, rank: 2}
  M2: {kind: partition, blocks: [{members: [a, b], capacity: 1},
                                 {members: [c], capacity: 1}]}
  M3: {kind: graphic, vertices: 3, edges: [[0, 1], [1, 2], [0, 2]]}
""")


@pytest.mark.parametrize("old, new, field", [
    ("rank: 2", "rank: two", "matroids.M1.rank"),
    ("capacity: 1},\n", "capacity: true},\n", "matroids.M2.blocks.capacity"),
    ("vertices: 3", "vertices: 1.5", "matroids.M3.vertices"),
    ("size: 3", "size: two", "ground.size"),
    ("[1, 2], [0, 2]]", "[1, 2], [0, 2.5]]", "matroids.M3.edges"),
    ("blocks: [{members: [a, b], capacity: 1},\n"
     "                                 {members: [c], capacity: 1}]",
     "blocks: [5]", "matroids.M2.blocks"),
    ("edges: [[0, 1], [1, 2], [0, 2]]", "edges: 7", "matroids.M3.edges"),
    ("matroids:\n  M1: {kind: uniform, rank: 2}\n"
     "  M2: {kind: partition, blocks: [{members: [a, b], capacity: 1},\n"
     "                                 {members: [c], capacity: 1}]}\n"
     "  M3: {kind: graphic, vertices: 3, edges: [[0, 1], [1, 2], [0, 2]]}\n",
     "matroids: [1, 2]\n", "matroids"),
    ("matroid: M1, weights: [\"1\"", "matroid: [M1], weights: [\"1\"",
     "valuations.v1"),
], ids=["rank", "capacity", "vertices", "size", "edges", "block-not-mapping",
        "edges-not-list", "matroids-not-mapping", "unhashable-name"])
def test_non_integer_schema_fields_are_invalid(tmp_path, capsys, old, new,
                                               field):
    path = tmp_path / "inst.yaml"
    path.write_text(SCHEMA_INTS)
    assert main(["solve", "-i", str(path)]) == 0
    capsys.readouterr()
    assert SCHEMA_INTS.count(old) == 1
    path.write_text(SCHEMA_INTS.replace(old, new))
    assert main(["solve", "-i", str(path)]) == 3
    assert field in capsys.readouterr().err


def test_both_yaml_back_ends_agree(tmp_path, monkeypatch):
    """libyaml and pure-Python PyYAML read the same document, report a
    syntax error on the same line and write the same report text."""
    good = tmp_path / "good.yaml"
    good.write_text(SCHEMA_INTS)
    bad = tmp_path / "bad.yaml"
    bad.write_text(BASIC.replace('weights: ["4"', 'weights: [["4"'))
    outcomes = []
    for libyaml in (False, True):
        monkeypatch.setattr(yaml, "__with_libyaml__", libyaml)
        document = load_yaml(str(good))
        with pytest.raises(ParseError) as error:
            load_yaml(str(bad))
        line = re.search(r"at line (\d+)", str(error.value)).group(1)
        outcomes.append((document, line, dump_report(document)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:2] == (yaml.safe_load(SCHEMA_INTS), "6")
