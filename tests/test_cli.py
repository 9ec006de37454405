import hashlib
import json

import pytest

from polarblock.cli import main


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


def test_thresholds(capsys):
    code, out, _ = run(capsys, "--format", "json", "thresholds", "--q", "3")
    assert code == 0
    data = json.loads(out)
    assert data["qminus"]["max_delta"] == 0
    assert data["epsilon"]["epsilon"] == 2


# sha256 of the stdout of `--format json thresholds --q Q`, recorded while
# the command still ran the PG(2,q) oracle twice.
PINNED_THRESHOLDS = {
    2: "c9b51bd7855076a904ebbbd436a48021d2a449cfef142c2a0ec707d10fea01e9",
    3: "4357b8d9d12be2ff25c06cf553626e607961c5ead72d3adc32d7ce125197adaa",
    4: "c60cc3570702db19dc3fad632b2c46f8109e15010ec6aa33c20cd7c1d5dac4f5",
    5: "c467052ca662bb7a5df11bd700ceb031a5da32741cca847eea4f0c53a82120df",
}


@pytest.mark.parametrize("q", sorted(PINNED_THRESHOLDS))
def test_thresholds_json_pinned(capsys, q):
    code, out, _ = run(capsys, "--format", "json", "thresholds", "--q", str(q))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_THRESHOLDS[q]


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
    ("--budget-secs", "inf")])
def test_bad_search_budget_is_usage_error(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["search", "min-blocking", "--kind", "q", "--rank", "2",
              "--q", "2", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and option in err


def test_construct_with_seed_vertex(capsys, tmp_path):
    f = tmp_path / "set.json"
    code, out, _ = run(capsys, "construct", "--kind", "q", "--rank", "2",
                       "--q", "2", "--example", "pencil",
                       "--seed-vertex", "0,1,0,0,0", "--out", str(f))
    assert code == 0
    data = json.loads(f.read_text())
    assert len(data["members"]) == 3


@pytest.mark.parametrize("entry", ["9", "3", "2", "-1"])
def test_seed_vertex_entry_out_of_field_exits_1(capsys, entry):
    code, out, err = run(capsys, "construct", "--kind", "q", "--rank", "3",
                         "--q", "2", "--example", "pencil",
                         f"--seed-vertex={entry},0,0,0,0,0,0")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "GF(2)" in err


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
