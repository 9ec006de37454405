"""Golden CLI outputs: each row is an argv, the sha256 of its stdout and its
exit code.  A `construct` row writes its stdout, the set's JSON, to a file
that the rows after it name as {set}.  JSON output is hashed after every
"seconds" key is removed, so that timings do not enter a digest.

The digests of the set rows were recorded at commit 203d1f8, those of the
space and search rows at bfe6b7a.  A change that moves one must say in
CHANGES.md which output changed and why.  To print the table anew:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from polarblock.analysis import CONE_ROWS
from polarblock.cli import main


# (kind, rank, q, example): every cone row at rank 3, and the pencil, the
# ruling and the section cover at rank 2
SETS = [
    ("q", 3, 2, "cone:conic-pencil"),
    ("q", 3, 2, "cone:qplus3-spread"),
    ("qminus", 3, 2, "cone:elliptic-pencil"),
    ("qminus", 3, 2, "cone:q4-cover"),
    ("h", 3, 2, "cone:hermitian-pencil"),
    ("q", 2, 3, "pencil"),
    ("q", 2, 3, "ruling"),
    ("qminus", 2, 2, "section-cover"),
]


# (kind, rank, q): the benchmark's ladder of spaces
LADDER = [("q", 2, 3), ("qminus", 2, 3), ("h", 2, 2), ("q", 3, 2),
          ("qminus", 3, 2), ("q", 4, 2)]

# (search, kind, rank, q, extra arguments): the benchmark's exact searches
# on polar spaces, H(4,4) stopped at its node budget as there
SEARCHES = [
    ("min-blocking", "q", 2, 3, ()),
    ("min-blocking", "qminus", 2, 2, ()),
    ("min-blocking", "q", 3, 2, ()),
    ("enumerate-minimal", "q", 2, 3, ("--bound", "6")),
    ("enumerate-minimal", "qminus", 2, 2, ("--bound", "6")),
    ("min-cover", "q", 2, 3, ()),
    ("min-cover", "qminus", 2, 2, ()),
    ("min-maximal-spread", "q", 3, 2, ()),
    ("min-blocking", "h", 2, 2, ("--budget-nodes", "2000000")),
]


def _space_args(kind, rank, q):
    return ("--kind", kind, "--rank", str(rank), "--q", str(q))


def _argvs():
    for kind, rank, q, example in SETS:
        yield ("construct", *_space_args(kind, rank, q), "--example", example)
        yield ("verify", "--set", "{set}")
        yield ("--format", "json", "verify", "--set", "{set}")
        yield ("--format", "json", "classify", "--set", "{set}")
        yield ("classify", "--minimize", "--set", "{set}")
    for space in LADDER:
        yield ("--format", "json", "space", "stats", *_space_args(*space))
    for cmd, kind, rank, q, extra in SEARCHES:
        yield ("--format", "json", "search", cmd, *_space_args(kind, rank, q),
               *extra)


def _without_seconds(x):
    if isinstance(x, dict):
        return {k: _without_seconds(v) for k, v in x.items() if k != "seconds"}
    if isinstance(x, list):
        return [_without_seconds(v) for v in x]
    return x


def _digest(out: str) -> str:
    try:
        data = json.loads(out)
    except ValueError:
        data = None
    if data is not None:
        out = json.dumps(_without_seconds(data), indent=2)
    return hashlib.sha256(out.encode()).hexdigest()


def _run(argvs, workdir: Path):
    """(argv, digest, exit code) of each argv, run in order."""
    set_path = workdir / "set.json"
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([str(set_path) if a == "{set}" else a for a in argv])
        if argv[0] == "construct":
            set_path.write_text(buf.getvalue(), encoding="utf-8")
        yield argv, _digest(buf.getvalue()), code


GOLDEN = [
    (("construct", "--kind", "q", "--rank", "3", "--q", "2", "--example", "cone:conic-pencil"),
     "1f0de0c68b31d70720d43da29aec1f18c5d269fcff89e6f529dfea7a40db5e27", 0),
    (("verify", "--set", "{set}"),
     "551709cea3c472653fa349d17af419930626c62c547095e6c2fc532996870e5c", 0),
    (("--format", "json", "verify", "--set", "{set}"),
     "0e58ed2bd1352f12ce28f2b3920215e746dadf50c2f64ee77a06f466087d72fe", 0),
    (("--format", "json", "classify", "--set", "{set}"),
     "9d446cd1c8d1e3d8de304c6d568ae7e1eb65ce39860ad4bee7275a68483e30a3", 0),
    (("classify", "--minimize", "--set", "{set}"),
     "1b4ca7d60a4a38508fd052819514529a693d879d86839863820bbb709619b8c3", 0),
    (("construct", "--kind", "q", "--rank", "3", "--q", "2", "--example", "cone:qplus3-spread"),
     "bd0fbbd97fe7005d07da66097f1e79b84308507819f3a254ff570cdf8b05a14c", 0),
    (("verify", "--set", "{set}"),
     "389f714c2d7ddcc2c8e52936f1c282e73c6f9dc7f3d925356ec323816f8ea771", 0),
    (("--format", "json", "verify", "--set", "{set}"),
     "d2c551e21dbfe98ed907fb45906fde1c7790a53cf9488f652ee129c3ae492ee4", 0),
    (("--format", "json", "classify", "--set", "{set}"),
     "29bc0af3f1a9361217c764b2ccfb8f9f6b6c8375c1b8bca4c8f4a4c07975f203", 0),
    (("classify", "--minimize", "--set", "{set}"),
     "b46d0021f086955f8876b88c2149c36f9b88efee7db959b5d9ba20a6a7093ce4", 0),
    (("construct", "--kind", "qminus", "--rank", "3", "--q", "2", "--example", "cone:elliptic-pencil"),
     "71995fe055cc418c6572bdf330877cebf65755841984148ec7a1705038c6ed99", 0),
    (("verify", "--set", "{set}"),
     "bbbaf53aa0d013a6c4360252528d6c89f550666e43e09ff369b6bd0e91b68ef3", 0),
    (("--format", "json", "verify", "--set", "{set}"),
     "497b5b4882928c16d37428ced63417d742a7b5363285b77478371019bd04d4cd", 0),
    (("--format", "json", "classify", "--set", "{set}"),
     "ad62a8147b29387fc73c19b1b8cd385ff7d84817f3623750fcbf1a40af3837e9", 0),
    (("classify", "--minimize", "--set", "{set}"),
     "568e4cd52c972c20dc00bdc929dffe585883cfb7768bcf26f07239a8d413a5cb", 0),
    (("construct", "--kind", "qminus", "--rank", "3", "--q", "2", "--example", "cone:q4-cover"),
     "cfa09af2e434b8e82d37a09192ad3bfcdf17f4c888120489f25bc98eab9f6165", 0),
    (("verify", "--set", "{set}"),
     "5cc2c20ff621b07e050e4a202bbf25e22df297b400d63e84ad9d31a2ef0a5ca0", 0),
    (("--format", "json", "verify", "--set", "{set}"),
     "74a2866ae1bba63f30343e9d17e6b72a60262e41a5e0dac43586fee7b2f9a98d", 0),
    (("--format", "json", "classify", "--set", "{set}"),
     "b1af3b8abed8b98ade0e069ec2b2bc73aaacf0357fe913f3894375667deb2f48", 0),
    (("classify", "--minimize", "--set", "{set}"),
     "864265fd5e5660f1dd788913648a78cfdb3ad7aff75138fcef3b0819642d1d82", 0),
    (("construct", "--kind", "h", "--rank", "3", "--q", "2", "--example", "cone:hermitian-pencil"),
     "ace51d04f944fe4f852519c293735749ee476ce104b8f5aed2c067071478b768", 0),
    (("verify", "--set", "{set}"),
     "644634cb54404c6ef356086c47a46096579081cbdd078fc06d5e6f5da240638e", 0),
    (("--format", "json", "verify", "--set", "{set}"),
     "ebf8fc6b47e16604359ee1cf4d6f33642d263ba1a11f2547ec8cd6d0182a16da", 0),
    (("--format", "json", "classify", "--set", "{set}"),
     "5f124961cf36b16918705fb33ef593731c068eedddcefff4625894db4fe06306", 0),
    (("classify", "--minimize", "--set", "{set}"),
     "74a7f55c14f5767cfc8bf88416cdd35bb66a07b753543507ddc8002bcea86eb5", 0),
    (("construct", "--kind", "q", "--rank", "2", "--q", "3", "--example", "pencil"),
     "6c619f231ba676bb82e7605c2a789fe6c3146e5760850bdb3b83b4dbf917644e", 0),
    (("verify", "--set", "{set}"),
     "629b4cb5900ab397fab53032a4f0dd2c7d3bb757f6404a793afc5a25fa7c2293", 0),
    (("--format", "json", "verify", "--set", "{set}"),
     "22c8e87ae9deccff5ca77be4ca6cd43c393e8a7d1e687074a89bf4098193ba95", 0),
    (("--format", "json", "classify", "--set", "{set}"),
     "0dbb971bf816faa49adbe54e4f7e697c83ca6ea545ad3f6420ba8579123533d5", 0),
    (("classify", "--minimize", "--set", "{set}"),
     "060ec3e6a2b5166b952011e2bb45de66aa7496fd243f9ad27248cb457ab6677f", 0),
    (("construct", "--kind", "q", "--rank", "2", "--q", "3", "--example", "ruling"),
     "4a610c045e37abe42b9107a6cb5a23126ad29c111f626ca91227474a56289787", 0),
    (("verify", "--set", "{set}"),
     "b9b17d49b6ef8d1fc833ece538186177e8e2ea01dbee034b60cc5c7a6eb8dd85", 0),
    (("--format", "json", "verify", "--set", "{set}"),
     "4adaf02cd292d27c4d53b948b596957c025921880db3141aa58e4a3d2a812073", 0),
    (("--format", "json", "classify", "--set", "{set}"),
     "0bb3e682ac19e6cdacaa37a40b7c87127e803e5ba99cbfd99a4af2468e2d7713", 0),
    (("classify", "--minimize", "--set", "{set}"),
     "7e9cafab3d39277784b4ae2eb0d29e667deca9b98e8fdb4b3d6944a633a30865", 0),
    (("construct", "--kind", "qminus", "--rank", "2", "--q", "2", "--example", "section-cover"),
     "a8d4ffceb81b3c3c052a09461a09aaf3ad975cb6b41f77ac7bced33fcd490138", 0),
    (("verify", "--set", "{set}"),
     "101309f10a23266c09d2fed2564b627d851a4727954d2e5dcad6ffb57067bb41", 0),
    (("--format", "json", "verify", "--set", "{set}"),
     "bafad9d47ab41d776019c8db1d18ca584dae50631d703e9faab3da0752212706", 0),
    (("--format", "json", "classify", "--set", "{set}"),
     "cf7b2160271933cc42d71c1d563ddfb789a4e38f71e5ce2df0e6eed6b563eb58", 0),
    (("classify", "--minimize", "--set", "{set}"),
     "3771d3de75c8afe3ba496cb7395cafcb38bd0445b060f33e8f56bcd62c72202d", 0),
    (("--format", "json", "space", "stats", "--kind", "q", "--rank", "2", "--q", "3"),
     "8381b4fa710fba144b77802cb36794ac0f826f447e383844c30a86f8e2ab02fb", 0),
    (("--format", "json", "space", "stats", "--kind", "qminus", "--rank", "2", "--q", "3"),
     "f28425401e137ba3902f347a8a176768d9752cbab2d605f53f26f410c975823d", 0),
    (("--format", "json", "space", "stats", "--kind", "h", "--rank", "2", "--q", "2"),
     "72e9d2d872ff800852912727f0186b045201e06d2450a3d28f6b22dda6fa020d", 0),
    (("--format", "json", "space", "stats", "--kind", "q", "--rank", "3", "--q", "2"),
     "00a503e904ff1049f5adfc98ffc56ce4743f4d7ffb70a9f066d6c855aeac7b8b", 0),
    (("--format", "json", "space", "stats", "--kind", "qminus", "--rank", "3", "--q", "2"),
     "d131324a1b2e3819f3aaf23e4395422bf741a1945c089cd0171c4a21ece1958c", 0),
    (("--format", "json", "space", "stats", "--kind", "q", "--rank", "4", "--q", "2"),
     "b3870e7f4c656630d41dc8cfa2c05959f35ee2e251af2f5fbd98a10c7e3c3071", 0),
    (("--format", "json", "search", "min-blocking", "--kind", "q", "--rank", "2", "--q", "3"),
     "7e49796820669f2b8956fe123a0e4b4452eced3b572440dd3c0e850fb00a7467", 0),
    (("--format", "json", "search", "min-blocking", "--kind", "qminus", "--rank", "2", "--q", "2"),
     "a1a006f971b3380fe8d2e50bdb2a2a56c3d91b3a827e9528a73c7dbc90fc0f86", 0),
    (("--format", "json", "search", "min-blocking", "--kind", "q", "--rank", "3", "--q", "2"),
     "763abeef2a708dd2428af375632404f8cc4e7434021c5ebae4051b821a943d7e", 0),
    (("--format", "json", "search", "enumerate-minimal", "--kind", "q", "--rank", "2", "--q", "3", "--bound", "6"),
     "8872bad4579f5f4f9c64757243c3e85c6fb037de7aa9535a93ac1f55b51fdb16", 0),
    (("--format", "json", "search", "enumerate-minimal", "--kind", "qminus", "--rank", "2", "--q", "2", "--bound", "6"),
     "45b93e6a0b47b4fbd34992c7915ea40e5e695b5aff45ca5299bf35944c5ea855", 0),
    (("--format", "json", "search", "min-cover", "--kind", "q", "--rank", "2", "--q", "3"),
     "7885f4a6393f77e964c6c9caa5cb6f605d92d7fa6503c6bd5eaeefc6a3a033d3", 0),
    (("--format", "json", "search", "min-cover", "--kind", "qminus", "--rank", "2", "--q", "2"),
     "15a45e0f5d3be174a834c056d9e86857615a21c7dd2f1d237bd68092af865e2e", 0),
    (("--format", "json", "search", "min-maximal-spread", "--kind", "q", "--rank", "3", "--q", "2"),
     "f71f29fd50a7f3797b5febbe01a20877a0271d04c312614fee0fb2b08831eb57", 0),
    (("--format", "json", "search", "min-blocking", "--kind", "h", "--rank", "2", "--q", "2", "--budget-nodes", "2000000"),
     "78d628bdd9163501939688963a14a3a13c93e29a381bdedfcc1661c1fbd50de9", 0),
]


def test_golden_cli_outputs(tmp_path):
    assert {e for *_, e in SETS if e.startswith("cone:")} == {
        f"cone:{row}" for row in CONE_ROWS}
    assert [g[0] for g in GOLDEN] == list(_argvs())
    got = list(_run([g[0] for g in GOLDEN], tmp_path))
    assert got == GOLDEN


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        for row in _run(list(_argvs()), Path(d)):
            print(f"    ({row[0]!r},\n     {row[1]!r}, {row[2]}),")
