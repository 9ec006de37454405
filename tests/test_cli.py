import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from polarblock import acceptance, cli
from polarblock.cli import _non_negative_int, main, make_parser
from polarblock.spaces import BudgetError

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_space_stats(capsys):
    code, out, _ = run(capsys, "space", "stats", "--kind", "qminus",
                       "--rank", "2", "--q", "2")
    assert code == 0
    assert "points: 27" in out
    assert "generators: 45" in out


def test_space_build_and_stats_json(capsys):
    from polarblock.spaces import build_polar_space

    code, out, _ = run(capsys, "--format", "json", "space", "stats",
                       "--kind", "q", "--rank", "2", "--q", "2")
    assert code == 0
    stats = json.loads(out)
    assert (stats["points"], stats["generators"]) == (15, 15)
    assert stats["hash"] == build_polar_space("q", 2, 2).content_hash()


def test_construct_verify_classify_roundtrip(capsys, tmp_path):
    f = tmp_path / "set.json"
    code, out, _ = run(capsys, "construct", "--kind", "q", "--rank", "2",
                       "--q", "2", "--example", "pencil", "--out", str(f))
    assert code == 0
    saved = f.read_text()
    data = json.loads(saved)
    assert len(data["members"]) == 3
    assert all(isinstance(m, int) for m in data["members"])
    code, out, _ = run(capsys, "verify", "--set", str(f))
    assert code == 0
    assert "blocking: True" in out
    assert "minimal: True" in out
    code, out, _ = run(capsys, "--format", "json", "classify", "--set", str(f))
    assert code == 0
    assert json.loads(out)["label"] == "Pencil"
    # byte-identical round trip of the artifact
    with open(f, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert json.loads(f.read_text()) == data


def test_construct_cone_and_section_cover(capsys, tmp_path):
    f = tmp_path / "cone.json"
    code, out, _ = run(capsys, "construct", "--kind", "q", "--rank", "3",
                       "--q", "2", "--example", "cone:qplus3-spread",
                       "--out", str(f))
    assert code == 0
    code, out, _ = run(capsys, "--format", "json", "classify", "--set", str(f))
    assert json.loads(out)["label"] == "ConeOverQplus3Spread"
    g = tmp_path / "cover.json"
    code, out, _ = run(capsys, "construct", "--kind", "qminus", "--rank", "2",
                       "--q", "2", "--example", "section-cover", "--out", str(g))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--set", str(g))
    assert code == 0


def test_verify_non_blocking_exits_1(capsys, tmp_path):
    from polarblock.spaces import build_polar_space

    sp = build_polar_space("q", 2, 2)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({
        "space": {"kind": "q", "rank": 2, "q": 2, "hash": sp.content_hash()},
        "members": [0],
    }))
    code, out, _ = run(capsys, "verify", "--set", str(f))
    assert code == 1
    assert "blocking: False" in out


def test_verify_profiles_and_validates_once(capsys, tmp_path, monkeypatch):
    from polarblock import analysis

    calls = {"validate": 0, "profile": 0}
    validate, coverage = analysis.validate_members, analysis._coverage

    def counted_validate(space, members):
        calls["validate"] += 1
        return validate(space, members)

    def counted_coverage(space, members):
        calls["profile"] += 1
        return coverage(space, members)

    monkeypatch.setattr(analysis, "validate_members", counted_validate)
    monkeypatch.setattr(analysis, "_coverage", counted_coverage)
    for kind, rank, q, example in [("q", 2, 3, "pencil"),
                                   ("qminus", 2, 2, "section-cover"),
                                   ("q", 3, 2, "cone:qplus3-spread")]:
        f = tmp_path / "set.json"
        run(capsys, "construct", "--kind", kind, "--rank", str(rank),
            "--q", str(q), "--example", example, "--out", str(f))
        calls.update(validate=0, profile=0)
        code, out, _ = run(capsys, "verify", "--set", str(f))
        assert code == 0 and "blocking: True" in out
        assert calls == {"validate": 1, "profile": 1}


def _q42_set(path, members):
    """Write a set file of the given members of Q(4,2)."""
    from polarblock.spaces import build_polar_space

    path.write_text(json.dumps({
        "space": {"kind": "q", "rank": 2, "q": 2,
                  "hash": build_polar_space("q", 2, 2).content_hash()},
        "members": list(members)}))
    return str(path)


def test_classify_non_blocking_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, "classify", "--set",
                         _q42_set(tmp_path / "one.json", [0]))
    assert (code, out) == (1, "")
    assert err == "set is not blocking; nothing to classify\n"


def test_classify_non_minimal_needs_minimize(capsys, tmp_path):
    # the pencil (0, 2, 13) of Q(4,2) with line 1 added
    f = _q42_set(tmp_path / "four.json", [0, 1, 2, 13])
    code, out, err = run(capsys, "classify", "--set", f)
    assert (code, out) == (1, "")
    assert err == "set is not minimal (re-run with --minimize to strip it)\n"
    code, out, err = run(capsys, "classify", "--set", f, "--minimize")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "label: Pencil"
    assert out.splitlines()[-1] == "minimized from 4 to 3 members"
    code, out, _ = run(capsys, "--format", "json", "classify", "--set", f,
                       "--minimize")
    assert code == 0 and json.loads(out)["members"] == [0, 2, 13]
    # a spread cannot lose a member, but no generator outside it meets only
    # one member, so --minimize is no advice: the members are named instead
    f = _q42_set(tmp_path / "spread.json", [0, 3, 8, 9, 12])
    for flags in [(), ("--minimize",)]:
        code, out, err = run(capsys, "classify", "--set", f, *flags)
        assert (code, out) == (1, "")
        assert err == ("set is not minimal: no outside generator is tangent "
                       "to member(s) 0, 3, 8, 9, 12; none can be stripped\n")


def test_construct_unknown_example_exits_2(capsys):
    code, out, err = run(capsys, "construct", "--kind", "q", "--rank", "2",
                         "--q", "2", "--example", "nonsense")
    assert (code, out) == (2, "")
    assert err == "unknown example 'nonsense'\n"


def test_search_out_writes_the_json_payload(capsys, tmp_path):
    f = tmp_path / "res.json"
    argv = ["search", "min-blocking", "--kind", "q", "--rank", "2", "--q", "2",
            "--budget-secs", "30"]
    code, out, _ = run(capsys, "--format", "json", *argv, "--out", str(f))
    assert code == 0
    printed, written = json.loads(out), json.loads(f.read_text())
    assert written == printed
    assert (written["optimum"], written["complete"]) == (3, True)


def test_hash_mismatch_rejected(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({
        "space": {"kind": "q", "rank": 2, "q": 2, "hash": "deadbeef"},
        "members": [0, 1, 2],
    }))
    code, _, err = run(capsys, "verify", "--set", str(f))
    assert code == 1
    assert "hash mismatch" in err


def test_search_subcommands(capsys):
    code, out, _ = run(capsys, "search", "min-blocking", "--kind", "q",
                       "--rank", "2", "--q", "2")
    assert code == 0
    assert "optimum 3" in out
    code, out, _ = run(capsys, "--format", "json", "search", "min-cover",
                       "--kind", "qplus3", "--rank", "2", "--q", "2")
    assert code == 0
    assert json.loads(out)["optimum"] == 3
    code, out, _ = run(capsys, "search", "enumerate-minimal", "--kind", "q",
                       "--rank", "2", "--q", "2", "--bound", "3")
    assert code == 0
    assert "35 minimal blocking sets" in out


def test_search_budget_exit_code(capsys):
    code, out, _ = run(capsys, "search", "min-blocking", "--kind", "h",
                       "--rank", "2", "--q", "2", "--budget-nodes", "100")
    assert code == 3


def test_enumerate_requires_bound(capsys):
    code, _, err = run(capsys, "search", "enumerate-minimal", "--kind", "q",
                       "--rank", "2", "--q", "2")
    assert code == 2
    assert "bound" in err


@pytest.mark.parametrize("cmd,flags,message", [
    (["construct"], ["--example", "bogus"], "unknown example 'bogus'"),
    (["search", "enumerate-minimal"], [],
     "enumerate-minimal requires --bound"),
])
def test_usage_errors_before_the_build(capsys, monkeypatch, cmd, flags,
                                       message):
    # Q(10,3) is over the build guard: built, it would exit 3, not 2
    def no_build(*args):
        raise AssertionError("space built before the usage check")

    monkeypatch.setattr(cli, "build_polar_space", no_build)
    code, out, err = run(capsys, *cmd, "--kind", "q", "--rank", "5",
                         "--q", "3", *flags)
    assert (code, out, err) == (2, "", message + "\n")


def test_thresholds(capsys):
    code, out, _ = run(capsys, "--format", "json", "thresholds", "--q", "3")
    assert code == 0
    data = json.loads(out)
    assert data["qminus"]["max_delta"] == 0
    assert data["epsilon"]["epsilon"] == 2
    assert data["base_q"] == 3 and "max_delta" in data["q"]


# sha256 of the stdout of `--format json thresholds --q Q`, recorded once q
# had its own "base_q" key (the oracle-run-twice output, q missing, carried
# the same thresholds); q = 7 was recorded while the plane oracle searched
# without symmetry.  q = 2 was re-recorded when the "h" max_delta there was
# clamped from -2 to -1 ("none"), its only changed line.
PINNED_THRESHOLDS = {
    2: "257b6b90699b1af862536bc2e3ddca5eb4ff380ab850673c298963d2bc2844f1",
    3: "b589d5d0982b0962f37f51b4e5d36cc4876799ad536c7733c8990c996d623db6",
    4: "1eef05b76ad82cfff0716b5cc0a8e9dd3dc1d2a0432eec499ed0e431cb5a8dc3",
    5: "1fce9449c4cae29e0533296127104a5290aa297d49d02b8fb3bf86e534e6e369",
    7: "89c3d630ccf6e70fdea95c0487bb8350b4b3469b404c15d62c0af570da4eaa8b",
    # beyond the oracle range: the prime formula, and no "size" key
    11: "51717a3cea3bc1a45a51465ab1edb97ad35dfec5d4a32ff8186849b2f5fdcc62",
    13: "a3ce885777b796e9d7c9d3e52a2fa09d9d3f651bd5fedf7f0fb6198a6ee06efd",
}


@pytest.mark.parametrize("q", sorted(PINNED_THRESHOLDS))
def test_thresholds_json_pinned(capsys, q):
    code, out, _ = run(capsys, "--format", "json", "thresholds", "--q", str(q))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_THRESHOLDS[q]


@pytest.mark.parametrize("q,text", [
    (3, "q = 3\n"
        "qminus: delta <= (3q - sqrt(5q^2+2q+1))/2; admissible delta up to 0\n"
        "h: delta < q-3; admissible delta up to -1\n"
        "q: delta < min((q-1)/2, eps); admissible delta up to 0\n"
        "epsilon: {'exists': True, 'size': 6, 'epsilon': 2, "
        "'source': 'search'}\n"),
    (11, "q = 11\n"
         "qminus: delta <= (3q - sqrt(5q^2+2q+1))/2; admissible delta up to 3\n"
         "h: delta < q-3; admissible delta up to 7\n"
         "q: delta < min((q-1)/2, eps); admissible delta up to 4\n"
         "epsilon: {'exists': True, 'epsilon': 6, 'source': 'prime-formula'}\n"),
])
def test_thresholds_text_pinned(capsys, q, text):
    code, out, _ = run(capsys, "thresholds", "--q", str(q))
    assert code == 0
    assert out == text


# primes whose trial division takes seconds; the prime formula applies
@pytest.mark.parametrize("q,md", [
    (99999999999973, ("38196601124999", "99999999999969", "49999999999985",
                      "49999999999987")),
    (9999999999999937, ("3819660112501027", "9999999999999933",
                        "4999999999999967", "4999999999999969")),
])
def test_thresholds_of_large_prime_in_bounded_time(capsys, q, md):
    start = time.perf_counter()
    code, out, _ = run(capsys, "thresholds", "--q", str(q))
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == (
        f"q = {q}\n"
        "qminus: delta <= (3q - sqrt(5q^2+2q+1))/2; admissible delta up to "
        f"{md[0]}\n"
        f"h: delta < q-3; admissible delta up to {md[1]}\n"
        f"q: delta < min((q-1)/2, eps); admissible delta up to {md[2]}\n"
        f"epsilon: {{'exists': True, 'epsilon': {md[3]}, "
        "'source': 'prime-formula'}\n")


def test_thresholds_without_epsilon_exits_1(capsys):
    # 16 is past the oracle range and not prime: no epsilon, no "q" threshold
    code, out, err = run(capsys, "--format", "json", "thresholds", "--q", "16")
    assert code == 1
    assert out == ""
    assert err == ("error: q = 16 outside the oracle range and not prime: "
                   "no epsilon\n")


def test_thresholds_runs_oracle_once(capsys, monkeypatch):
    from polarblock import search

    calls = []
    oracle = search.smallest_nontrivial_pg2

    def counting(q, *args, **kwargs):
        calls.append(q)
        return oracle(q, *args, **kwargs)

    monkeypatch.setattr(search, "smallest_nontrivial_pg2", counting)
    code, _, _ = run(capsys, "--format", "json", "thresholds", "--q", "4")
    assert code == 0
    assert calls == [4]


def test_thresholds_oracle_budget_exits_3(capsys, monkeypatch):
    # a deadline already past stops the PG(2,8) oracle at its first poll
    monkeypatch.setenv("POLARBLOCK_BUDGET_SECS", "0")
    code, out, err = run(capsys, "--format", "json", "thresholds", "--q", "8")
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("budget exceeded: PG(2,8) plane oracle stopped at "
                          "target size ") and err.count("\n") == 1


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["space", "stats", "--kind", "nope", "--rank", "2", "--q", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("option,value", [
    ("--budget-nodes", "-5"), ("--budget-nodes", "x"),
    ("--budget-secs", "-1"), ("--budget-secs", "nan"),
    ("--budget-secs", "inf"), ("--budget-secs", "abc")])
def test_bad_search_budget_is_usage_error(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["search", "min-blocking", "--kind", "q", "--rank", "2",
              "--q", "2", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and option in err


@pytest.mark.parametrize("cmd", ["min-blocking", "enumerate-minimal",
                                 "min-cover", "min-maximal-spread"])
@pytest.mark.parametrize("value", ["-1", "x"])
def test_bad_search_bound_is_usage_error(capsys, cmd, value):
    with pytest.raises(SystemExit) as exc:
        main(["search", cmd, "--kind", "q", "--rank", "2", "--q", "2",
              "--bound", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--bound" in err


def test_construct_with_seed_vertex(capsys, tmp_path):
    f = tmp_path / "set.json"
    code, out, _ = run(capsys, "construct", "--kind", "q", "--rank", "2",
                       "--q", "2", "--example", "pencil",
                       "--seed-vertex", "0,1,0,0,0", "--out", str(f))
    assert code == 0
    data = json.loads(f.read_text())
    assert len(data["members"]) == 3


@pytest.mark.parametrize("example,flags", [
    ("ruling", ["--seed-vertex", "0,1,0,0,0"]),
    ("section-cover", ["--seed-vertex", "0,1,0,0,0"]),
    ("pencil", ["--which", "0"]),
    ("section-cover", ["--which", "1"]),
    ("cone:conic-pencil", ["--which", "1"]),
])
def test_construct_rejects_flags_it_ignores(capsys, example, flags):
    # refused before the build: rank 999 is over the guard
    code, out, err = run(capsys, "construct", "--kind", "q", "--rank", "999",
                         "--q", "2", "--example", example, *flags)
    assert (code, out) == (2, "")
    assert err == f"{flags[0]} does not apply to --example {example}\n"


def test_construct_ruling_defaults_to_the_first(capsys):
    argv = ["construct", "--kind", "qplus3", "--rank", "2", "--q", "2",
            "--example", "ruling"]
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, *argv, "--which", "0") == first
    assert run(capsys, *argv, "--which", "1") != first


@pytest.mark.parametrize("entry", ["9", "3", "2", "-1"])
def test_seed_vertex_entry_out_of_field_exits_1(capsys, entry):
    code, out, err = run(capsys, "construct", "--kind", "q", "--rank", "3",
                         "--q", "2", "--example", "pencil",
                         f"--seed-vertex={entry},0,0,0,0,0,0")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "GF(2)" in err


@pytest.mark.parametrize("example,rank,message", [
    ("pencil", 2, "pencil vertex must have dimension 0, got -1"),
    ("cone:qplus3-spread", 3,
     "row 'qplus3-spread' needs a vertex of dimension 0, got -1"),
])
@pytest.mark.parametrize("value", ["", ";", " "])
def test_empty_seed_vertex_is_refused(capsys, example, rank, message, value):
    # an empty value is the empty vertex, not the default one
    code, out, err = run(capsys, "construct", "--kind", "q", "--rank",
                         str(rank), "--q", "2", "--example", example,
                         f"--seed-vertex={value}")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("rank,example", [(2, "section-cover"),
                                          (3, "cone:q4-cover")])
def test_section_cover_budget_exit_code(capsys, monkeypatch, rank, example):
    from polarblock import constructions

    real = constructions.search.min_cover

    def one_node(*args, **kwargs):
        return real(*args, **{**kwargs, "budget_nodes": 1})

    monkeypatch.setattr(constructions.search, "min_cover", one_node)
    code, out, err = run(capsys, "construct", "--kind", "qminus", "--rank",
                         str(rank), "--q", "2", "--example", example)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("budget exceeded:") and err.count("\n") == 1


def test_internal_check_failure_exits_1(capsys, monkeypatch):
    from polarblock import constructions

    def broken(space, vertex=None):
        raise AssertionError("pencil has 2 generators, expected 3")

    monkeypatch.setattr(constructions, "pencil", broken)
    code, out, err = run(capsys, "construct", "--kind", "q", "--rank", "2",
                         "--q", "2", "--example", "pencil")
    assert code == 1
    assert "Traceback" not in err
    assert err == "internal check failed: pencil has 2 generators, expected 3\n"


_SPACE_Q42 = {"kind": "q", "rank": 2, "q": 2}


@pytest.mark.parametrize("data", [
    {},
    {"space": _SPACE_Q42},
    [1, 2],
    {"space": "q", "members": [0]},
    {"space": _SPACE_Q42, "members": [None]},
    {"space": {**_SPACE_Q42, "rank": "2"}, "members": [0]},
], ids=["empty", "no-members", "list", "space-str", "member-null",
        "rank-str"])
def test_malformed_set_file_exits_1(capsys, tmp_path, data):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--set", str(f))
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def _stub_criteria(monkeypatch, statuses, limits=()):
    """Replace CRITERIA by stubs numbered from 1, each filed by _criterion
    with its status and limit (None past the given limits)."""
    monkeypatch.setattr(acceptance, "CRITERIA", [])
    for cid, status in enumerate(statuses, 1):
        limit = limits[cid - 1] if cid <= len(limits) else None

        @acceptance._criterion(cid, f"stub {cid}", limit)
        def criterion(cid=cid, status=status):
            if status == "budget":
                raise BudgetError(f"criterion {cid} over its guard")
            return status, f"{status} detail"


@pytest.mark.parametrize("statuses, code, summary", [
    (("pass", "pass"), 0, "2 pass, 0 fail, 0 skip"),
    (("pass", "fail", "pass"), 1, "2 pass, 1 fail, 0 skip"),
    (("pass", "budget"), 0, "1 pass, 0 fail, 1 skip"),
], ids=["all-pass", "one-fail", "budget-skip"])
def test_accept_exit_codes(capsys, monkeypatch, statuses, code, summary):
    _stub_criteria(monkeypatch, statuses)
    got, out, err = run(capsys, "accept")
    assert (got, err) == (code, "")
    assert out.splitlines()[-1] == f"summary: {summary}"


def test_accept_json_lists_each_criterion(capsys, monkeypatch):
    _stub_criteria(monkeypatch, ("pass", "fail", "budget"), (60.0,))
    code, out, _ = run(capsys, "--format", "json", "accept")
    assert code == 1
    rows = json.loads(out)
    assert [(r["cid"], r["status"], r["detail"]) for r in rows] == [
        (1, "pass", "pass detail"), (2, "fail", "fail detail"),
        (3, "skip", "criterion 3 over its guard")]
    assert [r["limit"] for r in rows] == [60.0, None, None]
    assert all(r["seconds"] >= 0 for r in rows)


def test_accept_skip_row_keeps_number_and_title(monkeypatch):
    def over_guard(*args):
        raise BudgetError("over the guard")

    monkeypatch.setattr(acceptance, "build_polar_space", over_guard)
    monkeypatch.setattr(acceptance, "CRITERIA", acceptance.CRITERIA[4:5])
    [row] = acceptance.run_acceptance()
    assert (row.cid, row.title, row.status, row.detail) == (
        5, "Q(6,2): all size-3 minimal sets are the two cone examples",
        "skip", "over the guard")


def _subcommands(parser, prefix=()):
    """(argv prefix, parser) for every subcommand below parser; a
    positional with choices (the search subcommands) counts as one."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    for action in subs:
        for name, sub in action.choices.items():
            yield from _subcommands(sub, prefix + (name,))
    if not subs:
        chosen = [a for a in parser._actions
                  if not a.option_strings and a.choices]
        for action in chosen:
            for name in action.choices:
                yield prefix + (name,), parser
        if not chosen:
            yield prefix, parser


_BASELINE = {"--kind": "q", "--rank": "2", "--q": "2", "--example": "pencil",
             "--bound": "3"}


def test_every_integer_option_and_set_file_exits_cleanly(capsys, tmp_path,
                                                        monkeypatch):
    # 0, -1, 10**12 and 400 digits for each integer option on Q(4,2), and
    # broken or oversized --set files: a documented exit code, at most one
    # stderr line, and no form built for a space over the guard
    from polarblock import spaces

    early, form = [], spaces.standard_form

    def spy(kind, rank, q):
        # each rank fed here from 100 up is over the guard
        if rank >= 100:
            early.append((kind, rank, q))
            raise BudgetError("form built before the guard")
        return form(kind, rank, q)

    monkeypatch.setattr(spaces, "standard_form", spy)
    files = {}
    for name, content in [("not-utf8", b"\xff\xfe{"), ("not-json", b"{"),
                          ("rank-999", b""), ("rank-1000000", b"")]:
        if name.startswith("rank-"):
            content = json.dumps({"space": {"kind": "q", "rank": int(name[5:]),
                                            "q": 2}, "members": [0]}).encode()
        files[name] = tmp_path / name
        files[name].write_bytes(content)
    files["missing"] = tmp_path / "missing"
    runs = []
    for prefix, parser in _subcommands(make_parser()):
        base = list(prefix)
        numeric = []
        for action in parser._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if flag in _BASELINE and (action.required or flag == "--bound"):
                base += [flag, _BASELINE[flag]]
            if action.type in (int, _non_negative_int):
                numeric.append(flag)
        for flag in numeric:
            values = ["0", "-1", str(10 ** 12), "9" * 400]
            values += ["999"] if flag == "--rank" else []
            runs += [base + [flag, v] for v in values]
        if any(a.option_strings == ["--set"] for a in parser._actions):
            runs += [base + ["--set", str(f)] for f in files.values()]
    assert {tuple(r[:2]) for r in runs} == {
        ("space", "stats"), ("construct", "--kind"), ("verify", "--set"),
        ("classify", "--set"), ("thresholds", "--q"),
        *(("search", cmd) for cmd in ("min-blocking", "enumerate-minimal",
                                      "min-cover", "min-maximal-spread"))}
    t0 = time.perf_counter()
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err and err.count("\n") <= 1, (argv, err)
    assert early == []
    assert time.perf_counter() - t0 < 2


def test_gf1024_space_refused_in_bounded_time():
    # H(4,1024) needs GF(2^10) before its size guard refuses it; a fresh
    # process, so that no field built by another test is reused
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "polarblock.cli", "space",
                          "stats", "--kind", "h", "--rank", "2", "--q", "32"],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=60)
    assert time.perf_counter() - start < 3
    assert (res.returncode, res.stdout) == (3, "")
    assert res.stderr == ("budget exceeded: H(4,1024) needs more than "
                          "140746086810112.1 GiB of bitmasks, over the guard "
                          "of 1 GiB\n")
