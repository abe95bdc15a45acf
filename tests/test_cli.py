import hashlib
import json

import pytest

from fuglede.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_counterexample_z3_5(capsys):
    code, out = run(capsys, "counterexample", "z3-5")
    assert code == 0
    assert "PASS" in out and "6 does not divide 243" in out


@pytest.mark.parametrize("variant", ["z2-12", "z3-6", "z2-11"])
def test_counterexample_variants(capsys, variant):
    code, out = run(capsys, "--json", "counterexample", variant)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert all(c["pass"] for c in payload["checks"])


def test_counterexample_lattice(capsys):
    code, out = run(capsys, "--json", "counterexample", "lattice", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == 192 and payload["pairs"] == 18336


def test_counterexample_continuum_small(capsys):
    code, out = run(
        capsys,
        "--json",
        "counterexample",
        "continuum",
        "--m",
        "1",
        "--k-radius",
        "1",
        "--pair-budget",
        "5000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["measure"] == 6 and payload["sampled"]


def test_scan_z8(capsys):
    code, out = run(capsys, "--json", "scan", "8")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["spectral_non_tiles"] == []
    assert summary["tiles_non_spectral"] == []


def test_scan_z4_size3(capsys):
    code, out = run(capsys, "--json", "scan", "4", "--size", "3")
    assert code == 0
    lines = out.strip().splitlines()
    record = json.loads(lines[0])
    assert record["spectral"] is False and record["tiles"] is False


def test_verify_matrix(capsys):
    code, out = run(capsys, "verify", "--matrix", "h12")
    assert code == 0
    code, _ = run(capsys, "verify", "--matrix", "h6")
    assert code == 0


def test_verify_bad_tiling(capsys):
    code, out = run(
        capsys,
        "--json",
        "verify",
        "--group",
        "4",
        "--set",
        "{0,1}",
        "--complement",
        "{0,1}",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False and payload["witness"] == [1]


def test_verify_good_tiling(capsys):
    code, _ = run(
        capsys, "verify", "--group", "4", "--set", "{0,1}", "--complement", "{0,2}"
    )
    assert code == 0


def test_verify_spectrum_files(capsys, tmp_path):
    from fuglede.groups import element_set_to_json
    from fuglede.hadamard import descend, paper_h6, spectrum_from_butson

    g6, T6, L6 = spectrum_from_butson(paper_h6())
    _, T5, L5 = descend(g6, T6, L6)
    s = tmp_path / "set.json"
    l = tmp_path / "spec.json"
    s.write_text(json.dumps(element_set_to_json(T5)))
    l.write_text(json.dumps(element_set_to_json(L5)))
    code, _ = run(
        capsys,
        "verify",
        "--group",
        "3^5",
        "--set",
        str(s),
        "--spectrum",
        str(l),
    )
    assert code == 0


def test_export(capsys, tmp_path):
    out_file = tmp_path / "geom.json"
    code, _ = run(capsys, "export", "--m", "1", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["measure"] == 6


def test_density_small(capsys):
    code, out = run(capsys, "--json", "density", "--m", "4", "--l", "6", "--stride", "3")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_json_determinism(capsys):
    _, out1 = run(capsys, "--json", "counterexample", "z3-5")
    _, out2 = run(capsys, "--json", "counterexample", "z3-5")
    assert out1 == out2


def test_error_path_json(capsys):
    code, out = run(capsys, "--json", "verify", "--matrix", "/nonexistent.json")
    assert code == 2
    assert "error" in json.loads(out)


def test_corrupted_matrix_witness_bytes_are_pinned(capsys, tmp_path):
    from fuglede.hadamard import paper_h12

    h = paper_h12().to_json()
    h["logs"][0][0] ^= 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(h))
    code, out = run(capsys, "--json", "verify", "--matrix", str(path))
    assert code == 1
    assert json.loads(out)["failing_rows"] == [0, 1]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a0ac5e0a7e85f98eed72602c2350215c8e7a44cf84a31aa122aa5b23688d818a"
    )


def test_spectrum_witness_bytes_are_pinned(capsys):
    argv = "verify --group 4 --set {0,1,2} --spectrum {0,1,2}".split()
    code, out = run(capsys, "--json", *argv)
    assert code == 1
    assert json.loads(out)["witness"] == [[0], [1]]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9ddd890499d1500d767821f524b85369612c412c0122819296ff504a57278bb4"
    )


@pytest.mark.parametrize(
    "group,complement,witness",
    [("6", "{2,3}", [3]), ("4", "{0}", [2]), ("4", "{0,2}", None)],
)
def test_verify_tiling_witness(capsys, group, complement, witness):
    argv = ["verify", "--group", group, "--set", "{0,1}", "--complement", complement]
    code, out = run(capsys, "--json", *argv)
    assert code == (0 if witness is None else 1)
    assert json.loads(out)["witness"] == witness


@pytest.mark.parametrize(
    "stage,argv",
    [
        ("pair_verdicts_direct", ["counterexample", "lattice", "--m", "1"]),
        ("_lift", ["export", "--m", "1", "--out", "unused.json"]),
    ],
)
def test_out_of_memory_is_bad_input(capsys, monkeypatch, tmp_path, stage, argv):
    """A stage that cannot allocate its arrays exits 2, not 1 (a failed
    verification); the patched stage raises before anything is allocated."""
    from fuglede import lattice

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.0 GiB for an array")

    monkeypatch.setattr(lattice, stage, out_of_memory)
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "--json", *argv)
    assert code == 2
    assert json.loads(out) == {"error": "Unable to allocate 72.0 GiB for an array"}
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: Unable to allocate 72.0 GiB for an array\n"
    assert not (tmp_path / "unused.json").exists()


def test_corrupted_matrix_fails(capsys, tmp_path):
    from fuglede.hadamard import paper_h12

    h = paper_h12().to_json()
    h["logs"][0][0] ^= 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(h))
    code, out = run(capsys, "verify", "--matrix", str(path))
    assert code == 1
    assert "not orthogonal" in out


@pytest.mark.parametrize(
    "budget,argv,code,fragment",
    [
        ("1", ["scan", "8"], 3, "cover search exceeded 1 nodes"),
        ("1", ["scan", "4", "--size", "2"], 3, "clique search exceeded 1 nodes"),
        (None, ["verify", "--group", "4", "--spectrum", "{0,2}"], 2, "--set"),
        (None, ["density", "--stride", "0"], 2, "--stride: must be >= 1"),
        (None, ["density", "--m", "0"], 2, "--m: must be >= 1"),
        (None, ["density", "--l", "0"], 2, "--l: must be >= 1"),
        (
            None,
            "counterexample continuum --m 1 --k-radius 0 --pair-budget 0".split(),
            2,
            "--pair-budget: must be >= 1",
        ),
        (None, ["counterexample", "continuum", "--k-radius", "-1"], 2, "--k-radius"),
        (None, ["counterexample", "lattice", "--m", "22"], 2, "root order 3M = 66"),
        (None, ["counterexample", "continuum", "--m", "22"], 2, "root order 3M = 66"),
        (None, ["scan", "4", "--size", "0"], 2, "--size: must be >= 1"),
        (None, ["scan", "4", "--size", "-1"], 2, "--size: must be >= 1"),
        (None, ["scan", "4", "--size", "9"], 2, "--size 9 exceeds the group order 4"),
        (None, ["scan", "25"], 2, "group of order 25 beyond subset enumeration"),
        (
            None,
            ["verify", "--group", "4", "--set", "[1,2]", "--spectrum", "[[0]]"],
            2,
            "element set must be a JSON list of lists of integers",
        ),
        (
            None,
            ["verify", "--group", "4", "--set", "{0,1}", "--spectrum", "[[0.5],[2]]"],
            2,
            "element set must be a JSON list of lists of integers",
        ),
        (None, ["verify", "--matrix", "no_q.json"], 2, 'integer "q"'),
        (None, ["verify", "--matrix", "list.json"], 2, 'integer "q"'),
    ],
)
def test_failures_exit_cleanly_with_json(
    capsys, monkeypatch, tmp_path, budget, argv, code, fragment
):
    if budget is not None:
        monkeypatch.setenv("FUGLEDE_BUDGET", budget)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "no_q.json").write_text('{"logs": [[0, 0], [0, 1]]}')
    (tmp_path / "list.json").write_text("[[0, 0], [0, 1]]")
    got, out = run(capsys, "--json", *argv)
    assert got == code
    error = json.loads(out)
    assert fragment in error["error"]
    if code == 3:
        assert error["budget"] == int(budget)


# SHA-256 of the --json stdout; a refactor must leave these bytes unchanged.
GOLDEN_STDOUT = {
    "counterexample z3-5": "9cb6c3d63595103db9fc7c529cb074dbcad1ac2972340cc8429affb736fac0ca",
    "counterexample lattice --m 2": "294645ceec72e5740790aa27c0919a8504dcdd8d641787a7b50e3afc68016063",
    "counterexample lattice --m 3": "2d92fa85249275d813ebca9b3bddb327a0029079004301650c664c9d13f47f92",
    "counterexample z2-12": "2d3a318044205396c833894816938fb356ec8cf54daad37ab471237c0cdaa38e",
    "counterexample z2-11": "e7c260f9d2b5af4b4de8d5d9e2d4b22fc76f49f6c965ff775f8682f9db8c1c11",
    "scan 12": "016e424036f29cb52da5afb2f37ccd1dd9340ba41866ba7f657a3e7c610f0c44",
    "scan 2^4": "261536e3206c3cc0d660652348c15b9ebc37bef1e36ba9a88cb64f2f6168ac8e",
    "scan 3x3": "0ecf9f18138d299284cf68288a2a0208ed7cb34f8adfa762c66721c4594ba26f",
    "scan 2x4": "e1c5281346cb5a4cdbeb5ee927afbe25de8959e95b356c5a6f165989e4a47299",
    "verify --matrix h12": "5fa5fd4b747f91d8a4bcbd5918cf05442dc804d79b1d5257e7fdd93df4127f58",
    "counterexample continuum --m 2 --k-radius 1 --pair-budget 100000": "474574eb15ece6496555108bd48157a6cd511117016828f09084d3d01765d6cd",
    "counterexample continuum --m 2 --k-radius 0": "275dd49bdc1c49f9a71a82890b85d8d18058cc3ddef73196bf511c33d54bbcbb",
    "counterexample continuum --m 1 --k-radius 1 --pair-budget 5000": "1a3368d4c300cf53e24bd622d6ff7ae5fb688c1c57b68068cd75a2fec8702145",
    "density --m 10 --l 8 --stride 4": "1407191453401cef97ccac525fdc86de23e3bb9d7d022b1f59f7c393ba9be11b",
    "density --m 4 --l 6 --stride 3": "f65316fb421c02b6b086d09e32b770bbc74cbd7a64e8ecd758f2a507b96f334f",
}
GOLDEN_EXPORT_M2 = "3b84a355593fa3f82c736b3496728bfc04258dfafe4ba9b4d39d9c50c2e233f1"
# 6,144 cubes; two-digit coordinates and numerators (up to 11) pin the order.
GOLDEN_EXPORT_M4 = "2042686ab4ab3c20c86e89d202abf244536f8788c139068f4c8810ffee70105b"


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_json_stdout_bytes_are_pinned(capsys, command):
    code, out = run(capsys, "--json", *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


def test_export_file_bytes_are_pinned(capsys, tmp_path):
    path = tmp_path / "geometry.json"
    for m, golden in (("2", GOLDEN_EXPORT_M2), ("4", GOLDEN_EXPORT_M4)):
        code, _ = run(capsys, "--json", "export", "--m", m, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == golden
