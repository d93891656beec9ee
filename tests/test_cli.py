"""End-to-end tests for the command line, driven in-process."""

import io
import json

import pytest

from math import comb

from dellac.bijection import phi, varphi
from dellac.boundary import count_boundary, genocchi_numbers
from dellac.checks import GENOCCHI_PREFIX
from dellac.cli import build_parser, main, parse_partition, render_word
from dellac.grid import Config, Params, enumerate_configs, inversions

EXAMPLE_232 = {"l": 2, "m": 3, "n": 2,
               "columns": [[1, 2, 5], [1, 4, 5], [3, 4, 6], [2, 3, 6]]}
EXAMPLE_132 = {"l": 1, "m": 3, "n": 2, "columns": [[1, 2, 4], [3, 5, 6]]}
BOARD = {"n": 3, "top": [2], "bottom": [2, 1],
         "columns": [[1, 2], [3, 4], [5, 6]]}


def convert_choices(dest):
    """The --from (dest "source") or --to (dest "target") names of convert."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return next(a.choices for a in sub.choices["convert"]._actions
                if a.dest == dest)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, *argv)


def json_lines(out):
    return [json.loads(line) for line in out.splitlines()]


def test_render_word():
    assert render_word((2, 10, 5)) == "2(10)5"
    assert render_word(range(9, 12)) == "9(10)(11)"


def test_parse_partition():
    assert parse_partition("") == ()
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("3,3,1") == (3, 3, 1)
    import argparse
    for bad in ("1,2", "0", "a", "2,-1"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_partition(bad)


def test_enumerate_seven_records(capsys):
    code, out = run(capsys, "enumerate", "--l", "1", "--m", "2", "--n", "3")
    assert code == 0
    lines = json_lines(out)
    assert lines[-1] == {"count": 7}
    assert len(lines) == 8
    assert all(set(rec) == {"l", "m", "n", "columns"} for rec in lines[:-1])


def test_enumerate_single_record(capsys):
    code, out = run(capsys, "enumerate", "--l", "1", "--m", "2", "--n", "1")
    assert code == 0
    lines = json_lines(out)
    assert lines == [{"l": 1, "m": 2, "n": 1, "columns": [[1, 2]]},
                     {"count": 1}]


def test_enumerate_csv_and_limit(capsys):
    code, out = run(capsys, "enumerate", "--l", "1", "--m", "2", "--n", "3",
                    "--format", "csv", "--limit", "2")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "col1,col2,col3"
    assert rows[1] == "1 2,3 4,5 6"
    assert rows[-1] == "count,2"


def test_enumerate_rejects_a_negative_limit(capsys):
    code, out = run(capsys, "enumerate", "--l", "1", "--m", "2", "--n", "3",
                    "--limit", "-1")
    assert code == 2
    assert out == ""


def test_enumerate_is_deterministic(capsys):
    _, first = run(capsys, "enumerate", "--l", "2", "--m", "2", "--n", "2")
    _, second = run(capsys, "enumerate", "--l", "2", "--m", "2", "--n", "2")
    assert first == second


def test_count_matches_library(capsys):
    code, out = run(capsys, "count", "--l", "2", "--m", "2", "--n", "2")
    assert code == 0
    expected = sum(1 for _ in enumerate_configs(Params(2, 2, 2)))
    assert json.loads(out) == {"l": 2, "m": 2, "n": 2, "count": expected}


def test_count_rejects_bad_params(capsys):
    code, _ = run(capsys, "count", "--l", "1", "--m", "1", "--n", "2")
    assert code == 2


def test_convert_config_to_dumont(capsys, monkeypatch):
    code, out = run_stdin(capsys, monkeypatch, json.dumps(EXAMPLE_232),
                          "convert", "--from", "config", "--to", "dumont")
    assert code == 0
    doc = json.loads(out)
    c = Config.from_json_dict(EXAMPLE_232)
    assert tuple(doc["sigma"]) == varphi(c)
    assert tuple(doc["pi"]) == phi(c)
    assert doc["st"] + inversions(c) == comb(10, 2)
    assert "(10)" in doc["sigma_text"]


def test_convert_dumont_round_trip(capsys, monkeypatch):
    _, out = run_stdin(capsys, monkeypatch, json.dumps(EXAMPLE_232),
                       "convert", "--from", "config", "--to", "dumont")
    code, back = run_stdin(capsys, monkeypatch, out,
                           "convert", "--from", "dumont", "--to", "config",
                           "--l", "2", "--m", "3", "--n", "2")
    assert code == 0
    assert json.loads(back) == EXAMPLE_232


def test_convert_dumont_rejects_an_ambiguous_lift(capsys, monkeypatch):
    # varphi maps two (3,2,2) configurations to this word
    sigma = [3, 4, 5, 1, 1, 1, 4, 5, 5, 2, 2, 3, 6, 6, 6, 2, 3, 4]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"sigma": sigma})))
    code = main(["convert", "--from", "dumont", "--to", "config",
                 "--l", "3", "--m", "2", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("invalid input: dumont: lift of ")


def test_convert_config_to_dumont_rejects_an_ambiguous_lift(capsys, monkeypatch):
    # a valid (3,2,2) configuration whose varphi word has two lifts
    source = {"l": 3, "m": 2, "n": 2,
              "columns": [[1, 2], [1, 2], [1, 3], [2, 4], [3, 4], [3, 4]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(source)))
    code = main(["convert", "--from", "config", "--to", "dumont"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("invalid input: dumont: lift of ")


def test_convert_dumont_needs_params(capsys, monkeypatch):
    code, _ = run_stdin(capsys, monkeypatch, '{"sigma": [3, 1, 4, 2]}',
                        "convert", "--from", "dumont", "--to", "config")
    assert code == 2


@pytest.mark.parametrize("source, needs", [
    ("dumont", "--l, --m, --n"), ("tuples-i", "--l, --m, --n"),
    ("tuples-k", "--l, --m, --n"), ("xi1", "--l")],
    ids=["dumont", "tuples-i", "tuples-k", "xi1"])
def test_convert_names_the_flags_a_source_needs(capsys, monkeypatch, source,
                                                needs):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"sigma": [3, 1, 4, 2]}'))
    code = main(["convert", "--from", source, "--to", "config"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"usage error: --from {source} needs {needs}\n"


def test_convert_tuples_round_trips(capsys, monkeypatch):
    for kind in ("tuples-i", "tuples-k"):
        _, out = run_stdin(capsys, monkeypatch, json.dumps(EXAMPLE_232),
                           "convert", "--from", "config", "--to", kind)
        code, back = run_stdin(capsys, monkeypatch, out,
                               "convert", "--from", kind, "--to", "config",
                               "--l", "2", "--m", "3", "--n", "2")
        assert code == 0
        assert json.loads(back) == EXAMPLE_232


def test_convert_embedding_round_trips(capsys, monkeypatch):
    source = {"l": 1, "m": 3, "n": 2, "columns": [[1, 2, 4], [3, 5, 6]]}
    _, out = run_stdin(capsys, monkeypatch, json.dumps(source),
                       "convert", "--from", "config", "--to", "xi1")
    code, back = run_stdin(capsys, monkeypatch, out,
                           "convert", "--from", "xi1", "--to", "config",
                           "--l", "1")
    assert code == 0
    assert json.loads(back) == source

    _, out = run_stdin(capsys, monkeypatch, json.dumps(source),
                       "convert", "--from", "config", "--to", "xi2")
    assert set(json.loads(out)) == {"config", "va"}
    code, back = run_stdin(capsys, monkeypatch, out,
                           "convert", "--from", "xi2", "--to", "config")
    assert code == 0
    assert json.loads(back) == source


@pytest.mark.parametrize("doc, l", [
    ({"l": 1, "m": 3, "n": 2, "columns": [[1, 2, 4], [3, 5, 6]]}, "0"),
    ({"l": 1, "m": 3, "n": 2, "columns": [[1, 2, 4], [3, 5, 6]]}, "3"),
    (EXAMPLE_232, "1"),
])
def test_convert_from_xi1_rejects_a_bad_row_group(capsys, monkeypatch, doc, l):
    # --l 0, an --l that does not divide n, and an image with l != 1
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["convert", "--from", "xi1", "--to", "config", "--l", l])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("invalid input: xi1: ")


@pytest.mark.parametrize("doc, lmn", [
    # validate_i accepts it, but it is the I-collection of no configuration
    ([{"I": [], "J": [0, 0, 0, 0]}, {"I": [1, 2], "J": [1, 1, 0, 0]},
      {"I": [1, 1, 2, 3], "J": [2, 1, 0, 0]},
      {"I": [1, 1, 2, 2, 3, 3], "J": [2, 2, 0, 0]}], (2, 3, 2)),
    # a short counter tuple, which the next step reads as its previous one
    ([{"I": [], "J": [0, 0, 0]}, {"I": [2], "J": [1]},
      {"I": [1, 2], "J": [1, 1, 0]}], (1, 2, 3)),
])
def test_convert_from_tuples_i_rejects_a_bad_collection(capsys, monkeypatch,
                                                         doc, lmn):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    l, m, n = map(str, lmn)
    code = main(["convert", "--from", "tuples-i", "--to", "config",
                 "--l", l, "--m", m, "--n", n])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("invalid input: tuples-i: ")


def test_convert_to_dyck(capsys, monkeypatch):
    source = {"l": 1, "m": 2, "n": 2, "columns": [[1, 2], [3, 4]]}
    code, out = run_stdin(capsys, monkeypatch, json.dumps(source),
                          "convert", "--from", "config", "--to", "dyck")
    assert code == 0
    assert json.loads(out) == {"path": "UUDD", "area": 0}
    # only the two-dots-per-column single-multiplicity family has paths
    code, _ = run_stdin(capsys, monkeypatch, json.dumps(EXAMPLE_232),
                        "convert", "--from", "config", "--to", "dyck")
    assert code == 3


def test_convert_malformed_json(capsys, monkeypatch):
    code, _ = run_stdin(capsys, monkeypatch, "{not json",
                        "convert", "--from", "config", "--to", "dumont")
    assert code == 2


def test_convert_invalid_config(capsys, monkeypatch):
    bad = {"l": 1, "m": 2, "n": 2, "columns": [[1, 2], [1, 2]]}
    code, _ = run_stdin(capsys, monkeypatch, json.dumps(bad),
                        "convert", "--from", "config", "--to", "dumont")
    assert code == 3


@pytest.mark.parametrize("source, to", [
    ("config", "config"), ("config", "dumont"), ("config", "dyck"), ("xi1", "config")])
def test_convert_rejects_a_board_document(capsys, monkeypatch, source, to):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(BOARD)))
    code = main(["convert", "--from", source, "--to", to, "--l", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"invalid input: {source}: "
                            "a board document is not a grid configuration\n")


XI2_IMAGE = {"l": 1, "m": 2, "n": 2, "columns": [[1, 2], [3, 4]]}


@pytest.mark.parametrize("text, argv, code, err", [
    # a va entry with two numbers, and an empty one
    (json.dumps({"config": XI2_IMAGE, "va": [[2, 0]]}), ("--from", "xi2"),
     3, "invalid input: xi2: "),
    (json.dumps({"config": XI2_IMAGE, "va": [[]]}), ("--from", "xi2"),
     3, "invalid input: xi2: "),
    # an xi2 image off the (1,2,n) grid
    (json.dumps({"config": EXAMPLE_132, "va": []}), ("--from", "xi2"),
     3, "invalid input: xi2: "),
    # an impossible grid is a usage error, whatever the document
    ("[]", ("--from", "dumont", "--l", "0", "--m", "2", "--n", "2"),
     2, "usage error: "),
    ("[]", ("--from", "tuples-i", "--l", "0", "--m", "2", "--n", "2"),
     2, "usage error: "),
    ("[]", ("--from", "tuples-k", "--l", "0", "--m", "2", "--n", "2"),
     2, "usage error: "),
    # JSON text that json.loads rejects with other than JSONDecodeError
    ("[" * 100_000, ("--from", "config"), 2, "usage error: malformed JSON: "),
    ("1" * 5000, ("--from", "config"), 2, "usage error: malformed JSON: "),
    # a string, a fraction or a boolean where an integer belongs
    (json.dumps({"l": "1", "m": 2.7, "n": 1, "columns": [["1", 2]]}),
     ("--from", "config"), 3, "invalid input: config: "),
    (json.dumps({"l": True, "m": 2, "n": 1, "columns": [[1, 2]]}),
     ("--from", "config"), 3, "invalid input: config: "),
    (json.dumps({"l": 1, "m": 2, "n": 1, "columns": [[True, 2]]}),
     ("--from", "config"), 3, "invalid input: config: "),
    (json.dumps({"sigma": [4, 1, 5, 2, 6, "3"]}),
     ("--from", "dumont", "--l", "1", "--m", "2", "--n", "2"),
     3, "invalid input: dumont: "),
    (json.dumps([{"I": [], "J": [0, 0]}, {"I": [2.0], "J": [1, 1]}]),
     ("--from", "tuples-i", "--l", "1", "--m", "2", "--n", "2"),
     3, "invalid input: tuples-i: "),
    (json.dumps([["2"]]),
     ("--from", "tuples-k", "--l", "1", "--m", "2", "--n", "2"),
     3, "invalid input: tuples-k: "),
    (json.dumps({"config": XI2_IMAGE, "va": [[2, "0", 0]]}), ("--from", "xi2"),
     3, "invalid input: xi2: "),
], ids=["va-pair", "va-empty", "xi2-off-grid", "dumont-l0", "tuples-i-l0",
        "tuples-k-l0", "json-too-deep", "json-number-too-long",
        "config-string-and-fraction", "config-bool-size", "config-bool-row",
        "dumont-string", "tuples-i-fraction", "tuples-k-string", "xi2-string"])
def test_convert_sends_each_input_fault_to_an_exit_code(
        capsys, monkeypatch, text, argv, code, err):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    status = main(["convert", *argv, "--to", "config"])
    captured = capsys.readouterr()
    assert status == code
    assert captured.out == ""
    assert captured.err.startswith(err)


def test_convert_rejects_an_input_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{}")
    code = main(["convert", "--from", "config", "--to", "config",
                 "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error: malformed JSON: ")


def convert(monkeypatch, doc, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    return main(["convert", *argv])


@pytest.mark.parametrize("target", convert_choices("target"))
@pytest.mark.parametrize("source", convert_choices("source"))
def test_convert_every_pair_exits_zero_or_three(capsys, monkeypatch, source,
                                                target):
    for example in (EXAMPLE_232, EXAMPLE_132):
        flags = [x for k in "lmn" for x in (f"--{k}", str(example[k]))]
        # the worked configuration in the source's form, where it has one
        status = convert(monkeypatch, example, "--from", "config",
                         "--to", source)
        out = capsys.readouterr().out
        doc = json.loads(out) if status == 0 else example
        code = convert(monkeypatch, doc, "--from", source, "--to", target,
                       *flags)
        captured = capsys.readouterr()
        assert code in (0, 3)
        assert (captured.out == "") == (code == 3)
        if code == 3:
            assert captured.err.startswith("invalid input: ")


@pytest.mark.parametrize("doc", [[1], {}, BOARD], ids=["list", "empty", "board"])
@pytest.mark.parametrize("source", convert_choices("source"))
def test_convert_every_source_rejects_a_foreign_document(capsys, monkeypatch,
                                                         source, doc):
    code = convert(monkeypatch, doc, "--from", source, "--to", "config",
                   "--l", "1", "--m", "2", "--n", "3")
    captured = capsys.readouterr()
    assert code in (2, 3)
    assert captured.out == ""


def test_poincare(capsys):
    code, out = run(capsys, "poincare", "--n", "3", "--top", "2,1",
                    "--at-q1")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [1, 2, 3, 1]
    assert doc["bottom"] == [2, 1]
    assert doc["at_q1"] == 7


def test_poincare_explicit_bottom(capsys):
    code, out = run(capsys, "poincare", "--n", "3", "--top", "2",
                    "--bottom", "2,1")
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 2, 3, 2, 1]


def test_poincare_csv(capsys):
    code, out = run(capsys, "poincare", "--n", "2", "--top", "1",
                    "--format", "csv", "--at-q1")
    assert code == 0
    assert out.splitlines() == ["power,coefficient", "0,1", "1,1", "sum,2"]


def test_poincare_domain_errors(capsys):
    code, _ = run(capsys, "poincare", "--n", "2", "--top", "3")
    assert code == 3
    with pytest.raises(SystemExit) as err:
        main(["poincare", "--n", "3", "--top", "1,2"])
    assert err.value.code == 2


def test_poincare_rejects_a_negative_size(capsys):
    for extra in ((), ("--bottom", "")):
        code, out = run(capsys, "poincare", "--n", "-1", *extra)
        assert code == 2
        assert out == ""


def test_poincare_takes_tops_longer_than_n_plus_one(capsys):
    # six parts on a board of size 4 reach below the n + 1 rows of the last
    # column; the DP passes those parts to the smaller board unchanged
    code, out = run(capsys, "poincare", "--n", "4", "--top", "1,1,1,1,1,1",
                    "--at-q1")
    assert code == 0
    assert json.loads(out)["at_q1"] == count_boundary(4, (1,) * 6) > 0


def test_no_dp_flag_is_gone():
    with pytest.raises(SystemExit) as err:
        main(["poincare", "--n", "3", "--no-dp"])
    assert err.value.code == 2


def test_genocchi_stream(capsys):
    code, out = run(capsys, "genocchi", "--max-n", "5")
    assert code == 0
    lines = json_lines(out)
    assert [rec["count"] for rec in lines[:-1]] == [1, 2, 7, 38, 295]
    assert lines[-1] == {"count": 5}


def test_verify_genocchi(capsys):
    code, out = run(capsys, "verify", "genocchi", "--max-n", "5")
    assert code == 0
    assert "1, 2, 7, 38, 295" in out
    assert json_lines(out)[-1] == {"passed": 1, "failed": 0}


def test_verify_recurrences(capsys):
    code, out = run(capsys, "verify", "recurrences", "--max-n", "6")
    assert code == 0
    rows = json_lines(out)
    assert {row["identity"]: row["detail"] for row in rows[:-1]} == {
        "append-one": "129 instances", "free-row": "132 instances",
        "pinned-row": "64 instances", "qtriple": "23 instances",
        "shift1": "98 instances", "shift2": "286 instances",
        "six-term": "562 instances", "split-pair": "111 instances"}
    assert all(row["status"] == "pass" for row in rows[:-1])


def test_verify_all_trivial(capsys):
    code, out = run(capsys, "verify", "all", "--max-n", "1",
                    "--max-params", "4")
    assert code == 0
    assert json_lines(out)[-1]["failed"] == 0


@pytest.mark.parametrize("suite", ["all", "genocchi", "bijection"])
def test_verify_rejects_a_max_n_below_one(capsys, suite):
    code, out = run(capsys, "verify", suite, "--max-n", "0")
    assert code == 2
    assert out == ""


def test_genocchi_prefix_matches_the_dp():
    assert GENOCCHI_PREFIX == tuple(genocchi_numbers(8))


def test_threads_flag_is_gone():
    with pytest.raises(SystemExit) as err:
        main(["verify", "tuples", "--threads", "2"])
    assert err.value.code == 2


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["verify", "everything"])
    assert err.value.code == 2


def test_output_flag(tmp_path, capsys):
    target = tmp_path / "out.jsonl"
    code, out = run(capsys, "count", "--l", "1", "--m", "2", "--n", "2",
                    "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"l": 1, "m": 2, "n": 2,
                                              "count": 2}
