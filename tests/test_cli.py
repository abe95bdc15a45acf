import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuglede
from fuglede import cli, continuum, lattice, spectra, tiling
from fuglede.cli import _finite_counterexample, build_parser, main
from fuglede.groups import GroupSpec


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


def test_density_at_scales_past_a_window_scan(capsys):
    # 185^5 windows at M = 64 and about 2.4e32 at M = 10^6 (stride 1): the
    # report comes from the corner residues mod 3 and counts no window.
    code, _ = run(capsys, "--json", "density", "--m", "64", "--l", "8", "--stride", "1")
    assert code == 0
    m, window = 10**6, 9
    for stride in (1, 4):
        start = time.perf_counter()
        code, out = run(
            capsys, "--json", "density", "--m", str(m), "--l", str(window),
            "--stride", str(stride),
        )
        assert code == 0 and time.perf_counter() - start < 1
        payload = json.loads(out)
        windows = len(range(0, 3 * m - window + 1, stride)) ** 5
        assert payload["windows"] == payload["nonzero_windows"] == windows
    _, t5, _ = _finite_counterexample("z3-5")
    o1 = lattice.build_omega1(t5, m)
    assert lattice.density_check(o1, window).ok
    assert "points" not in vars(o1)


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
        ("build_lambda1", ["counterexample", "lattice", "--m", "1"]),
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


def test_lattice_scale_past_the_table_budget_exits_at_once(
    capsys, monkeypatch, tmp_path
):
    """Every lift command has one refusal, the row charge: a certificate
    (lattice, continuum) from --m 14, export, which also holds the points and
    CubeUnion's copies, from --m 13.  A refused scale exits 2 in under 1 s,
    before a point or a frequency is built or a file is opened; the largest
    admitted scale gets past the guard."""
    built = []

    def stop(base, m):
        built.append(m)
        raise MemoryError("stopped after the scale guard")

    for name in ("build_omega1", "build_lambda1"):
        monkeypatch.setattr(lattice, name, stop)
    monkeypatch.chdir(tmp_path)
    # MiB charged at each refused scale: 6·m^5 rows of 12 int64 words for a
    # certificate, of 21 for export.
    certificate = {14: 295, 16: 576, 21: 2243, 22: 2830}
    for command, label, refused, admitted in (
        (["counterexample", "lattice"], "the lattice certificate", certificate, 13),
        (["counterexample", "continuum"], "the continuum certificate", certificate, 13),
        (
            ["export", "--out", "big.json"],
            "export",
            {13: 356, 14: 517, 16: 1008, 21: 3926, 22: 4954},
            12,
        ),
    ):
        for m, need in refused.items():
            argv = [*command, "--m", str(m)]
            message = f"--m {m}: {label} needs about {need} MiB, "
            message += "beyond its 256 MiB budget"
            start = time.perf_counter()
            code, out = run(capsys, "--json", *argv)
            assert time.perf_counter() - start < 1
            assert code == 2 and json.loads(out) == {"error": message}
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == f"error: {message}\n"
        assert built == []
        code, out = run(capsys, "--json", *command, "--m", str(admitted))
        assert code == 2
        assert json.loads(out) == {"error": "stopped after the scale guard"}
        assert built == [admitted]
        built.clear()
    assert not (tmp_path / "big.json").exists()


def test_corrupted_matrix_fails(capsys, tmp_path):
    from fuglede.hadamard import paper_h12

    h = paper_h12().to_json()
    h["logs"][0][0] ^= 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(h))
    code, out = run(capsys, "verify", "--matrix", str(path))
    assert code == 1
    assert "not orthogonal" in out


# Each case keeps the id pytest gave it when the ids were positional, so that
# adding or deleting a case renames no other; new cases get their own name.
@pytest.mark.parametrize(
    "budget,argv,code,fragment",
    [
        pytest.param(
            "1", ["scan", "8"], 3, "cover search exceeded 1 nodes",
            id="1-argv0-3-cover search exceeded 1 nodes",
        ),
        pytest.param(
            "1", ["scan", "4", "--size", "2"], 3, "clique search exceeded 1 nodes",
            id="1-argv1-3-clique search exceeded 1 nodes",
        ),
        pytest.param(
            None, ["verify", "--group", "4", "--spectrum", "{0,2}"], 2, "--set",
            id="None-argv2-2---set",
        ),
        pytest.param(
            None, ["density", "--stride", "0"], 2, "--stride: must be >= 1",
            id="None-argv3-2---stride: must be >= 1",
        ),
        pytest.param(
            None, ["density", "--m", "0"], 2, "--m: must be >= 1",
            id="None-argv4-2---m: must be >= 1",
        ),
        pytest.param(
            None, ["density", "--l", "0"], 2, "--l: must be >= 1",
            id="None-argv5-2---l: must be >= 1",
        ),
        pytest.param(
            None,
            "counterexample continuum --m 1 --k-radius 0 --pair-budget 0".split(),
            2,
            "--pair-budget: must be >= 1",
            id="None-argv6-2---pair-budget: must be >= 1",
        ),
        pytest.param(
            None, ["counterexample", "continuum", "--k-radius", "-1"], 2, "--k-radius",
            id="None-argv7-2---k-radius",
        ),
        # The ids of the next two name the root-order refusal that these scales
        # met before the row charge became the only refusal of a lift scale.
        pytest.param(
            None,
            ["counterexample", "lattice", "--m", "22"],
            2,
            "--m 22: the lattice certificate needs about 2830 MiB, "
            "beyond its 256 MiB budget",
            id="None-argv8-2-root order 3M = 66",
        ),
        pytest.param(
            None,
            ["counterexample", "continuum", "--m", "22"],
            2,
            "--m 22: the continuum certificate needs about 2830 MiB, "
            "beyond its 256 MiB budget",
            id="None-argv9-2-root order 3M = 66",
        ),
        # A certificate's rows, sort copy and codes pass the 256 MiB budget from
        # --m 14.
        pytest.param(
            None,
            ["counterexample", "continuum", "--m", "14"],
            2,
            "--m 14: the continuum certificate needs about 295 MiB, "
            "beyond its 256 MiB budget",
            id="continuum --m 14 past the row budget",
        ),
        pytest.param(
            None,
            ["counterexample", "continuum", "--m", "21"],
            2,
            "--m 21: the continuum certificate needs about 2243 MiB, "
            "beyond its 256 MiB budget",
            id="continuum --m 21 past the row budget",
        ),
        # export is charged for its rows, points and CubeUnion's copies, before
        # the file is opened.
        pytest.param(
            None,
            ["export", "--m", "14", "--out", "big.json"],
            2,
            "--m 14: export needs about 517 MiB, "
            "beyond its 256 MiB budget",
            id="export --m 14 past the row budget",
        ),
        pytest.param(
            None,
            ["export", "--m", "21", "--out", "big.json"],
            2,
            "--m 21: export needs about 3926 MiB, "
            "beyond its 256 MiB budget",
            id="export --m 21 past the row budget",
        ),
        pytest.param(
            None, ["scan", "4", "--size", "0"], 2, "--size: must be >= 1",
            id="None-argv10-2---size: must be >= 1",
        ),
        pytest.param(
            None, ["scan", "4", "--size", "-1"], 2, "--size: must be >= 1",
            id="None-argv11-2---size: must be >= 1",
        ),
        pytest.param(
            None, ["scan", "4", "--size", "9"], 2, "--size 9 exceeds the group order 4",
            id="None-argv12-2---size 9 exceeds the group order 4",
        ),
        pytest.param(
            None, ["scan", "25"], 2, "group of order 25 beyond subset enumeration",
            id="None-argv13-2-group of order 25 beyond subset enumeration",
        ),
        pytest.param(
            None,
            ["verify", "--group", "4", "--set", "[1,2]", "--spectrum", "[[0]]"],
            2,
            "element set must be a JSON list of lists of integers",
            id="None-argv14-2-element set must be a JSON list of lists of integers",
        ),
        pytest.param(
            None,
            ["verify", "--group", "4", "--set", "{0,1}", "--spectrum", "[[0.5],[2]]"],
            2,
            "element set must be a JSON list of lists of integers",
            id="None-argv15-2-element set must be a JSON list of lists of integers",
        ),
        pytest.param(
            None, ["verify", "--matrix", "no_q.json"], 2, 'integer "q"',
            id='None-argv16-2-integer "q"',
        ),
        pytest.param(
            None, ["verify", "--matrix", "list.json"], 2, 'integer "q"',
            id='None-argv17-2-integer "q"',
        ),
        # With no node budget the first search raises before any record: the
        # cover search of {0}, the clique search of {0, 1, 2}.
        pytest.param(
            "0", ["scan", "4"], 3, "cover search exceeded 0 nodes",
            id="0-argv18-3-cover search exceeded 0 nodes",
        ),
        pytest.param(
            "0", ["scan", "12", "--size", "3"], 3, "clique search exceeded 0 nodes",
            id="0-argv19-3-clique search exceeded 0 nodes",
        ),
        pytest.param(
            None, ["counterexample", "bogus"], 2, "invalid choice",
            id="None-argv20-2-invalid choice",
        ),
        pytest.param(
            None, ["scan", "5x5"], 2, "group of order 25 beyond subset enumeration",
            id="None-argv21-2-group of order 25 beyond subset enumeration",
        ),
        pytest.param(
            None, ["scan", "3x2^-1"], 2, "exponent of '2^-1' must be in 1..2^20",
            id="None-argv22-2-exponent of '2^-1' must be in 1..2^20",
        ),
        pytest.param(
            None, ["scan", "2^0x3"], 2, "exponent of '2^0' must be in 1..2^20",
            id="None-argv23-2-exponent of '2^0' must be in 1..2^20",
        ),
        pytest.param(
            None, ["scan", "2^99999999999999999999"], 2, "must be in 1..2^20",
            id="None-argv24-2-must be in 1..2^20",
        ),
        # The order is multiplied out only up to the limit, and never printed.
        pytest.param(
            None, ["scan", "2^14000"], 2, "group of order above 24 beyond subset",
            id="None-argv25-2-group of order above 24 beyond subset",
        ),
        pytest.param(
            None, ["scan", "2^200000"], 2, "group of order above 24 beyond subset",
            id="None-argv26-2-group of order above 24 beyond subset",
        ),
        pytest.param(
            None, ["scan", "2^200000", "--size", "3"], 2, "group of order above 24",
            id="None-argv27-2-group of order above 24",
        ),
        pytest.param(
            None, ["scan", "7" * 4400], 2, "(4400 characters) is not a decimal integer",
            id="None-argv28-2-(4400 characters) is not a decimal integer",
        ),
        pytest.param(
            None, ["scan", "25", "--size", "2"], 2, "group of order 25 beyond subset",
            id="None-argv29-2-group of order 25 beyond subset",
        ),
    ],
)
def test_failures_exit_cleanly_with_json(
    capsys, monkeypatch, tmp_path, budget, argv, code, fragment
):
    if budget is not None:
        monkeypatch.setattr(tiling, "NODE_BUDGET", int(budget))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "no_q.json").write_text('{"logs": [[0, 0], [0, 1]]}')
    (tmp_path / "list.json").write_text("[[0, 0], [0, 1]]")
    got, out = run(capsys, "--json", *argv)
    assert got == code
    error = json.loads(out)
    assert fragment in error["error"]
    if code == 3:
        assert error["budget"] == int(budget)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["list.json", "no_q.json"]


def test_cover_search_dead_at_its_first_node_is_settled_in_the_block(
    capsys, monkeypatch
):
    # The cover searches of the first two classes would die at node 1, so
    # the block gives their records without running them, whatever the
    # budget; at budget 0 the clique search of the third class runs out.
    monkeypatch.setattr(tiling, "NODE_BUDGET", 0)
    code, out = run(capsys, "--json", "scan", "2x6", "--size", "4")
    assert code == 3
    assert out.splitlines() == [
        '{"set":[[0,0],[0,1],[0,2],[0,3]],"spectral":false,"tiles":false}',
        '{"set":[[0,0],[0,1],[0,2],[0,4]],"spectral":false,"tiles":false}',
        '{"budget": 0, "error": "clique search exceeded 0 nodes"}',
    ]


def test_budget_exhausted_mid_scan_keeps_the_printed_records(capsys, monkeypatch):
    argv = ["--json", "scan", "10", "--size", "4"]
    _, full = run(capsys, *argv)
    monkeypatch.setattr(tiling, "NODE_BUDGET", 1)
    code, out = run(capsys, *argv)
    assert code == 3
    lines = out.splitlines()
    *records, error = [json.loads(line) for line in lines]
    assert error == {"budget": 1, "error": "clique search exceeded 1 nodes"}
    # Records are printed as they are made, so those before the class whose
    # search ran out are already out, and equal the unbudgeted scan's.
    assert 0 < len(records) < len(full.splitlines()) - 1
    assert lines[:-1] == full.splitlines()[: len(records)]


def test_budget_exhausted_mid_human_scan_keeps_the_printed_lines(capsys, monkeypatch):
    argv = ["scan", "10", "--size", "4"]
    _, full = run(capsys, *argv)
    monkeypatch.setattr(tiling, "NODE_BUDGET", 1)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err == "error: clique search exceeded 1 nodes\n"
    # The lines before the class whose search ran out, exactly as unbudgeted.
    lines = out.splitlines()
    assert 0 < len(lines) < len(full.splitlines()) - 1
    assert out == "".join(full.splitlines(keepends=True)[: len(lines)])


@pytest.mark.parametrize("blocks", ["default", "small"])
@pytest.mark.parametrize("descriptor", ["15", "2^4", "3x3", "12", "2x4"])
def test_scan_block_route_matches_the_record_route(
    capsys, monkeypatch, descriptor, blocks
):
    """cmd_scan writes a block's settled lines from membership rows; they,
    the searched classes' lines and the summary must equal what the records
    of spectra.scan_records give, line by line, in both formats."""
    if blocks == "small":
        monkeypatch.setattr(spectra, "_MASK_BLOCK", 7)
        monkeypatch.setattr(spectra, "_CLASS_BLOCK", 3)
    g = GroupSpec.from_descriptor(descriptor)
    line = cli.scan_line_writer(g)
    for size in [None, *range(1, g.order + 1)]:
        records, summary = spectra.fuglede_scan(g, size)
        by_size = [] if size is None else ["--size", str(size)]
        code, out = run(capsys, "--json", "scan", descriptor, *by_size)
        assert code == 0 and out.splitlines(keepends=True)[:-1] == [
            f"{line(rec)}\n" for rec in records
        ]
        assert json.loads(out.splitlines()[-1]) == json.loads(json.dumps(vars(summary)))
        human = [
            f"set {list(rec.elements)}: spectral={rec.spectral} tiles={rec.tiles}\n"
            for rec in records
        ]
        code, out = run(capsys, "scan", descriptor, *by_size)
        assert code == 0 and out.splitlines(keepends=True)[:-1] == human
        assert out.splitlines()[-1].startswith(f"scanned {summary.classes} classes")


def test_scan_writes_once_per_block(monkeypatch):
    """scan 15 --json writes its 2,191 records in one write per class block
    (22), then main prints the summary; no class gets a write of its own."""
    g = GroupSpec.cyclic(15)
    blocks = sum(1 for _ in spectra._class_blocks(g, None))
    writes = []
    monkeypatch.setattr(sys, "stdout", mock.Mock(write=writes.append))
    assert main(["--json", "scan", "15"]) == 0
    summary = json.loads("".join(writes[blocks:]))
    assert blocks == 22 and summary["classes"] == 2191
    assert sum(chunk.count("\n") for chunk in writes[:blocks]) == 2191


# SHA-256 of the --json stdout; a refactor must leave these bytes unchanged.
GOLDEN_STDOUT = {
    "counterexample z3-5": "9cb6c3d63595103db9fc7c529cb074dbcad1ac2972340cc8429affb736fac0ca",
    "counterexample lattice --m 2": "294645ceec72e5740790aa27c0919a8504dcdd8d641787a7b50e3afc68016063",
    "counterexample lattice --m 3": "2d92fa85249275d813ebca9b3bddb327a0029079004301650c664c9d13f47f92",
    "counterexample lattice --m 4": "4e254171b2cbc5fd2fd2286439b4aaff8fa12e8e0c212e0c0125793c8a20d5e8",
    # 196,608 frequencies in 32,768 cell classes of six.
    "counterexample lattice --m 8": "f315a214bba1164e117a184b2ba49513e116eea813b7e02c406dfa34cc9eac64",
    "counterexample z2-12": "2d3a318044205396c833894816938fb356ec8cf54daad37ab471237c0cdaa38e",
    "counterexample z2-11": "e7c260f9d2b5af4b4de8d5d9e2d4b22fc76f49f6c965ff775f8682f9db8c1c11",
    "scan 12": "016e424036f29cb52da5afb2f37ccd1dd9340ba41866ba7f657a3e7c610f0c44",
    "scan 15": "399816b5fca1f96bb303def0e4b6c99ec74cf4a6dcc7604a84e2f100272681e9",
    "scan 18": "4bbc0049743781d3305d613c78245bfe803a614db5ddc5409f2b66a44c6efb7d",
    "scan 16 --size 4": "061b683fa91823d8b2fae614f15603088bacc9f8fe49370a8bfba39d1abd305f",
    "scan 2^4": "261536e3206c3cc0d660652348c15b9ebc37bef1e36ba9a88cb64f2f6168ac8e",
    "scan 3x3": "0ecf9f18138d299284cf68288a2a0208ed7cb34f8adfa762c66721c4594ba26f",
    "scan 2x4": "e1c5281346cb5a4cdbeb5ee927afbe25de8959e95b356c5a6f165989e4a47299",
    "scan 2x3x3": "8843a08a1059a020b46179efc441a2023819f4ea46606f023890e4224990622e",
    "scan 20 --size 3": "e33f9e6c4e070fe4879d788fb17d4efdb06a6fdf7a7debab3b847fafd3fd17fb",
    "scan 24 --size 2": "a5d185bebce53988276ce22f7f1f8393acfa5fd2315b25397c9976280efb8c61",
    # Order 24: the canonical test's float32 product reaches bit 23.
    "scan 24 --size 3": "c6bad67734f326ea1e2ec05baa10f352d7d70b372050884466e620aa99b6b80d",
    "scan 2x3x4 --size 5": "681d9fe1b4dc45dadfd6355f6885b784ab0338c268a2d6c5668feb3c486bab0f",
    "verify --matrix h12": "5fa5fd4b747f91d8a4bcbd5918cf05442dc804d79b1d5257e7fdd93df4127f58",
    "counterexample continuum --m 2 --k-radius 1 --pair-budget 100000": "474574eb15ece6496555108bd48157a6cd511117016828f09084d3d01765d6cd",
    "counterexample continuum --m 2 --k-radius 0": "275dd49bdc1c49f9a71a82890b85d8d18058cc3ddef73196bf511c33d54bbcbb",
    "counterexample continuum --m 2 --k-radius 1": "5a0971eded0e4c24f35bd7c7416876de0c74c66893f01d695bbae9f18b1b107f",
    "counterexample continuum --m 3 --k-radius 0": "751a9ec23d6fa875e6166d28563142543900326c362d8dd80dfa22a572b85815",
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


# SHA-256 of the stdout without --json, for every GOLDEN_STDOUT command.
GOLDEN_HUMAN_STDOUT = {
    "counterexample continuum --m 1 --k-radius 1 --pair-budget 5000": "0d25b59b51195383b8a4a4a7da302f0da2270a6b03ee7d7957248f42b5cca2a7",
    "counterexample continuum --m 2 --k-radius 0": "b18aa5c9b11dc6975b9394e2eb206a2c2958f415c8dace2295d6110078f50705",
    "counterexample continuum --m 2 --k-radius 1": "5e9aa02aa8ecc03f588af60d3c5b7f8da88a9fdecffa7767a31e38bf43692f02",
    "counterexample continuum --m 2 --k-radius 1 --pair-budget 100000": "0db1026e27f3ba444c332581e92d20c4fde1a53502c9cfe86b152ab096a84653",
    "counterexample continuum --m 3 --k-radius 0": "756ccd039a2aa8a0f694a671fb8e0976a662d034c12c352dfab279557201023c",
    "counterexample lattice --m 2": "ad1208656de175bf5fc7a649f76a6f44712518236dcc6a6e7d91fbd8d5fad011",
    "counterexample lattice --m 3": "1cbf17fb56c5935a70d752d86e2c6c0b701f31fc61a8cb2e05f60057415133e6",
    "counterexample lattice --m 4": "1f4bdc5144952198c0341a5f2aba94f7a58a831c8ca6ff168d30dfd70974de14",
    "counterexample lattice --m 8": "99c18e91ef2154fec596e24159903c37cf671e7d8bc5d73c96beafa627e803d0",
    "counterexample z2-11": "01fa404a1f249d393c440712355cf6996606f14f4f0110eecb6efd607ba23fce",
    "counterexample z2-12": "ec9a3ed2c34c79763837051c7f638dd207aecec5c2358e5495546f5eefb8f201",
    "counterexample z3-5": "bb8b8d785bad778532b6b1a29664dfec26b723a8b01c38d5d76458c0b88bfc50",
    "density --m 10 --l 8 --stride 4": "193d0d938299c0da9bf092970a2cf9406327d7f80086bb7cb6f6b29831e356d0",
    "density --m 4 --l 6 --stride 3": "91d4920aafc149260f8c77b5c12e609e19a8163232f7229e1a4fa04533620d98",
    "scan 12": "1994fc75dd59321dea27b33efed004b104b4dec36261d40baba901e62f92ec0f",
    "scan 15": "74886992f00a13a1a837fdccb56a8328be266d8505122da33e6b21b777766eec",
    "scan 16 --size 4": "bcd3fd63b35ea3f7bc4be2f62f05a1834ad289a8a7f99edda191018cf8b5e0d0",
    "scan 18": "8e8c3497c47f3fed2289c9b63a6f65d4f6cb9bbe76222646f90d24f61d7860e8",
    "scan 20 --size 3": "5fec7175064903c538020dd1997ebf143215a980d4e8ae11183ee7a10430d507",
    "scan 24 --size 2": "4349dc9b94f0086c54cef65806669bb0ce329a00e2cc678584ddd1ca9fac4699",
    "scan 24 --size 3": "8c80b64068d96109c9ca5c131ec3abd068cb4f045d5e90059d6d773b68c55174",
    "scan 2x3x4 --size 5": "a172371b9b0d7408e6c2e80004e9cec28e695219348a185c89f02c2377f4bdc6",
    "scan 2^4": "9f8f08388ef2374a3580c16ca6a297985199865b69e18bb14f364ad04b2386a4",
    "scan 2x3x3": "a8d9e9d9e51421d2f35154a5e5ff0f93d97a15d0a7ee0dfbea2cbf059ea2e0d1",
    "scan 2x4": "ce7866a5315a58cd93fea7738c679e2e5b15204166450dbe09efdad1147582d0",
    "scan 3x3": "bd2aae19057757a20389ba4846e07dd95cfd98e942a0c0953aad59ed48e0e770",
    "verify --matrix h12": "a20ce259d36919a694f529be4b3215922bf018abfe1d09b55e1846d2a0e7435b",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_human_stdout_bytes_are_pinned(capsys, command):
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_HUMAN_STDOUT[command]


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (
            "verify --group 4 --set {0,1,2} --spectrum {0,1,2}",
            1,
            "spectrum invalid: non-orthogonal pair ((0,), (1,))\n",
            "",
        ),
        (
            "verify --group 4 --set {0,1,2} --spectrum {0,1}",
            1,
            "spectrum invalid: cardinality mismatch\n",
            "",
        ),
        ("verify --group 3 --set {0} --spectrum {0}", 0, "spectrum valid\n", ""),
        (
            "verify --group 4 --set {0,1} --complement {0}",
            1,
            "tiling invalid: element (2,) not covered exactly once\n",
            "",
        ),
        ("verify --group 4 --set {0,1} --complement {0,2}", 0, "tiling valid\n", ""),
        (
            "verify --matrix h6",
            0,
            "matrix of order 6 over 3-th roots: orthogonal\n",
            "",
        ),
        (
            "density --stride 0",
            2,
            "",
            "error: fuglede density: argument --stride: must be >= 1, got 0\n",
        ),
        (
            "verify --group 4 --set {0,1}",
            2,
            "",
            "error: verify: need --spectrum or --complement with --set\n",
        ),
    ],
)
def test_human_verdicts_and_errors_are_pinned(capsys, argv, code, out, err):
    assert main(argv.split()) == code
    assert capsys.readouterr() == (out, err)


def test_human_failing_matrix_and_budget_are_pinned(capsys, monkeypatch, tmp_path):
    from fuglede.hadamard import paper_h12

    h = paper_h12().to_json()
    h["logs"][0][0] ^= 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(h))
    assert main(["verify", "--matrix", str(path)]) == 1
    assert capsys.readouterr() == ("rows (0, 1) are not orthogonal\n", "")
    monkeypatch.setattr(tiling, "NODE_BUDGET", 1)
    assert main(["scan", "4", "--size", "2"]) == 3
    assert capsys.readouterr() == ("", "error: clique search exceeded 1 nodes\n")


def test_export_file_bytes_are_pinned(capsys, tmp_path):
    assert 6144 > continuum._BLOCK  # the M=4 file (6,144 rows) spans two blocks
    path = tmp_path / "geometry.json"
    for m, golden in (("2", GOLDEN_EXPORT_M2), ("4", GOLDEN_EXPORT_M4)):
        code, _ = run(capsys, "--json", "export", "--m", m, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == golden


def run_python(*args: str, **environ: str) -> subprocess.CompletedProcess:
    """python with args in a fresh interpreter that imports fuglede from
    this checkout, with environ added to the environment."""
    src = str(Path(fuglede.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, **environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def test_root_orders_past_the_kernel_exit_before_allocating(tmp_path):
    """An order that the kernel refuses exits 2 before its root-count bins
    are allocated, on the spectrum path and on the matrix path: at order
    8,000,000 the whole process stays below 60 MiB resident (about 90 MB
    when the bins came first).  A child's ru_maxrss counts the pages of the
    process it was forked from, so a fresh interpreter starts the command."""
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"q": 8_000_000, "logs": [[0, 0], [0, 4_000_000]]}))
    spectrum = ["--group", "8000000", "--set", "[[1],[2]]", "--spectrum", "[[0],[1]]"]
    script = (
        "import json, os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "out = proc.stdout.read().decode()\n"
        "print(json.dumps([os.waitstatus_to_exitcode(status), out, usage.ru_maxrss]))\n"
    )
    for argv in (spectrum, ["--matrix", str(matrix)]):
        cli = [sys.executable, "-m", "fuglede.cli", "--json", "verify", *argv]
        proc = run_python("-c", script, *cli)
        assert proc.returncode == 0, proc.stderr
        code, out, peak = json.loads(proc.stdout)
        assert code == 2 and json.loads(out) == {"error": "unsupported root order 8000000"}
        assert peak < 60 * 1024, peak  # KiB on Linux


def test_optimized_run_keeps_the_pinned_bytes():
    # Under -O every assert is gone; no check of a command may be one.
    command = "counterexample z3-5"
    proc = run_python("-O", "-m", "fuglede.cli", "--json", *command.split())
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == GOLDEN_STDOUT[command]


def test_main_freezes_the_start_up_heap():
    # The imports' objects live until exit, so main takes them out of every
    # later collection, the ones at shutdown included; stdout is unchanged.
    argv = ["--json", "density", "--m", "2", "--l", "3", "--stride", "1"]
    script = (
        "import gc, sys\n"
        "from fuglede.cli import main\n"
        f"main({argv!r})\n"
        "print(gc.get_freeze_count(), file=sys.stderr)\n"
    )
    frozen = run_python("-c", script)
    plain = run_python("-m", "fuglede.cli", *argv)
    assert frozen.returncode == plain.returncode == 0, frozen.stderr + plain.stderr
    assert int(frozen.stderr.split()[-1]) > 0
    assert frozen.stdout == plain.stdout


def test_the_environment_does_not_change_a_scan(monkeypatch):
    # The node budget is the constant tiling.NODE_BUDGET, so a FUGLEDE_BUDGET
    # variable, bad or zero, leaves the run as it is.
    monkeypatch.delenv("FUGLEDE_BUDGET", raising=False)
    argv = ("-m", "fuglede.cli", "--json", "scan", "8")
    plain = run_python(*argv)
    assert plain.returncode == 0, plain.stderr
    for value in ("abc", "0"):
        proc = run_python(*argv, FUGLEDE_BUDGET=value)
        assert (proc.returncode, proc.stdout) == (0, plain.stdout), proc.stderr


def test_no_module_reads_the_environment():
    """--json output depends on argv alone: no module of the package reads
    os.environ or os.getenv, by attribute or by import."""
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(fuglede.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.alias) and node.name in names
    ]
    assert reads == []


def test_sampled_continuum_does_not_import_numpy_random():
    # numpy.random would add its import time and resident memory to every
    # sampled continuum run; the sample is drawn from the stdlib generator.
    # numpy.ma likewise (a bare np.unique imports it): neither is imported
    # by the four benchmark commands at their smoke sizes either.
    commands = [
        "counterexample lattice --m 1",
        "counterexample continuum --m 1 --k-radius 0",
        "density --m 2 --l 3 --stride 1",
        "scan 8",
        "counterexample continuum --m 1 --k-radius 1 --pair-budget 50",
    ]
    script = (
        "import sys\n"
        "from fuglede.cli import main\n"
        f"for command in {commands!r}:\n"
        "    assert main(['--json', *command.split()]) == 0, command\n"
        "for name in ('numpy.random', 'numpy.ma'):\n"
        "    assert name not in sys.modules, name\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["sampled"] is True


@pytest.mark.parametrize(
    "command,unloaded",
    [
        (
            "scan 8",
            ["fuglede.hadamard", "fuglede.lattice", "fuglede.continuum", "fractions"],
        ),
        ("counterexample lattice --m 1", ["fuglede.continuum"]),
        ("density --m 2 --l 3 --stride 1", ["fuglede.continuum"]),
    ],
)
def test_commands_import_only_the_modules_they_run(command, unloaded):
    script = (
        "import sys\n"
        "from fuglede.cli import main\n"
        f"assert main(['--json', *{command.split()!r}]) == 0\n"
        f"print([name for name in {unloaded!r} if name in sys.modules])\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# The names `from fuglede import *` gave when the package imported every
# submodule eagerly.
PUBLIC_NAMES = """
    ButsonMatrix CubeUnion CyclotomicInt DivisibilityObstruction ExtendedFrequency
    FrequencySet GroupSpec LatticeSet SpectrumSearch SpectrumVerification
    TilingResult build_lambda1 build_omega1 build_omega2 cell_count_check
    cyclotomic_polynomial density_check descend divisibility_check
    export_geometry find_spectrum find_tiling fourier_zero_set fuglede_scan
    inner_product_is_zero is_spectrum load_geometry paper_h6 paper_h12
    spectrum_from_butson torus_non_tiling verify_butson verify_ortho_lattice
    verify_spectrum_truncation
""".split()


def test_lazy_exports_are_the_submodules_objects():
    script = (
        "import importlib\n"
        "import fuglede\n"
        "names = {}\n"
        "exec('from fuglede import *', names)\n"
        "del names['__builtins__']\n"
        "for name, value in names.items():\n"
        "    module = importlib.import_module(value.__module__)\n"
        "    assert getattr(module, name) is value, name\n"
        "try:\n"
        "    fuglede.nonexistent\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(sorted(names))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    error, names = proc.stdout.splitlines()
    assert error == "module 'fuglede' has no attribute 'nonexistent'"
    assert names == str(sorted(PUBLIC_NAMES))
    assert len(PUBLIC_NAMES) == 34


def test_continuum_sample_at_the_largest_radius(capsys):
    # 6 * 4337^5 frequencies fit the int64 indices (6 * 4339^5 do not); no
    # array grows with the (2K+1)^5 shifts, so K = 2168 runs in the memory
    # of K = 0.
    argv = "--json counterexample continuum --m 1 --pair-budget 1000".split()
    code, out = run(capsys, *argv, "--k-radius", "2168")
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs_checked"] == 1000 and payload["sampled"] is True
    code, out = run(capsys, *argv, "--k-radius", "2169")
    assert code == 2
    assert "at most 2^63 - 1" in json.loads(out)["error"]


def test_continuum_builds_no_point_set_of_the_lift(capsys, monkeypatch):
    # Verdicts come from the factorization and the measure from (base, M):
    # only the one-cell set (M = 1) of the cell sums has its points read.
    cached = lattice.LatticeSet.points

    def points(self):
        if self.m != 1:
            raise AssertionError(f"point set of the lift at M = {self.m}")
        return cached.func(self)

    monkeypatch.setattr(lattice.LatticeSet, "points", property(points))
    command = "counterexample continuum --m 2 --k-radius 1 --pair-budget 100000"
    code, out = run(capsys, "--json", *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


def test_lattice_builds_no_point_set_of_the_lift(capsys, monkeypatch):
    # B comes from the base alone, the cell counts and `points` from
    # (base, M): no LatticeSet has its points read.
    def points(self):
        raise AssertionError(f"point set of the lift at M = {self.m}")

    monkeypatch.setattr(lattice.LatticeSet, "points", property(points))
    command = "counterexample lattice --m 3"
    code, out = run(capsys, "--json", *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


# The exit contract, with argv generated from the parser.  Each argument of
# each subcommand has boundary values (drawn, refused): a refused value must
# end in exit 2 wherever it is given.  Every value is cheap: scan orders are
# at most 12 or above 24, lift scales 1, 2 or refused by the row charge, and a
# counterexample always gets a --pair-budget of at most 1000.
_NOT_AN_INTEGER = ["x", "", "9" * 5000]
_SCAN_ORDERS = {"2": 2, "4": 4, "6": 6, "8": 8, "12": 12, "2x2": 4, "2x6": 12, "3^2": 9}
_SETS = ["{0,1}", "{0,2}", "{0}", "{}", "{x}", "{99}", "[[0],[1]]", "[[0.5]]", "[1,2]"]
_SETS += ["[", "{dir}/set.json", "{dir}/missing.json"]
_CONTRACT_VALUES = {
    ("counterexample", "m"): (
        ["1", "2", "14", "16", "21", "22", "1000000"],
        ["0", "-1", *_NOT_AN_INTEGER],
    ),
    ("counterexample", "k_radius"): (
        ["0", "1", "2", "40", "2168", "2169", "1000000000"],
        ["-1", *_NOT_AN_INTEGER],
    ),
    ("counterexample", "pair_budget"): (["1", "2", "1000"], ["0", "-1", *_NOT_AN_INTEGER]),
    ("scan", "group"): (
        list(_SCAN_ORDERS),
        ["0", "1", "25", "5x5", "2^200000", "3x2^-1", "x", "7" * 4400],
    ),
    ("scan", "size"): (["1", "2", "3", "9", "13", "25"], ["0", "-1", *_NOT_AN_INTEGER]),
    ("verify", "matrix"): (
        ["h6", "h12", "{dir}/h6.json", "{dir}/h6-broken.json"],
        ["{dir}/missing.json", "{dir}/bad.json", "{dir}/list.json"],
    ),
    ("verify", "group"): (["4", "6", "2x2", "1", "x"], []),
    ("verify", "set"): (_SETS, []),
    ("verify", "spectrum"): (_SETS, []),
    ("verify", "complement"): (_SETS, []),
    ("export", "m"): (["1", "2"], ["0", "-1", *_NOT_AN_INTEGER, "13", "14", "22"]),
    ("export", "out"): (["{dir}/out.json"], ["{dir}/missing/out.json"]),
    ("density", "m"): (["1", "2", "16", "1000000"], ["0", "-1", *_NOT_AN_INTEGER]),
    ("density", "l"): (["1", "2", "3", "8", "1000000"], ["0", "-1", *_NOT_AN_INTEGER]),
    ("density", "stride"): (["1", "4", "1000000"], ["0", "-1", *_NOT_AN_INTEGER]),
}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return sub.choices


def _arguments(command: str) -> list[argparse.Action]:
    """The subcommand's arguments; -h exits through argparse by design."""
    actions = _subcommands()[command]._actions
    return [a for a in actions if not isinstance(a, argparse._HelpAction)]


def test_the_exit_contract_has_values_for_every_argument():
    named = {
        (command, a.dest)
        for command in _subcommands()
        for a in _arguments(command)
        if not a.choices
    }
    assert named == set(_CONTRACT_VALUES)


def _refused_together(command: str, given: dict[str, str]) -> bool:
    """A lift scale past the row charge, or a scan --size above the order."""
    if command == "counterexample" and given["variant"] in ("lattice", "continuum"):
        return int(given.get("m", "2")) >= 14
    if command == "scan" and given.get("group") in _SCAN_ORDERS and "size" in given:
        return int(given["size"]) > _SCAN_ORDERS[given["group"]]
    return False


@st.composite
def _contract_argv(draw):
    """(argv, command, refused), with {dir} standing for the test files."""
    argv = ["--json"] if draw(st.booleans()) else []
    command = draw(st.sampled_from([*_subcommands(), "bogus", None]))
    if command not in _subcommands():
        return argv + ([command] if command else []), None, True
    given, positionals, options, refused = {}, [], [], False
    for action in _arguments(command):
        if action.choices:
            drawn, bad = list(action.choices), ["bogus"]
        else:
            drawn, bad = _CONTRACT_VALUES[command, action.dest]
        if action.dest == "pair_budget":  # so no continuum checks over 1000 pairs
            given_at_all = True
        elif action.required:  # positionals and --out, left out now and then
            given_at_all = draw(st.integers(0, 3)) > 0
        else:
            given_at_all = draw(st.booleans())
        if not given_at_all:
            refused |= action.required
            continue
        value = draw(st.sampled_from(drawn + bad))
        refused |= value in bad
        given[action.dest] = value
        if action.option_strings:
            options.append([action.option_strings[0], value])
        else:
            positionals.append(value)
    refused = refused or _refused_together(command, given)
    options = draw(st.permutations(options))
    return [*argv, command, *positionals, *sum(options, [])], command, refused


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    from fuglede.hadamard import paper_h6

    files = tmp_path_factory.mktemp("contract")
    h6 = paper_h6().to_json()
    (files / "h6.json").write_text(json.dumps(h6))
    h6["logs"][1][1] = (h6["logs"][1][1] + 1) % h6["q"]
    (files / "h6-broken.json").write_text(json.dumps(h6))
    (files / "bad.json").write_text("{not json")
    (files / "list.json").write_text("[[0, 0], [0, 1]]")
    (files / "set.json").write_text("[[0], [2]]")
    return files


@settings(max_examples=300, deadline=None)
@given(case=_contract_argv(), out_of_memory=st.sampled_from([False] * 3 + [True]))
def test_every_argv_keeps_the_exit_contract(contract_dir, case, out_of_memory):
    """main returns 0, 1, 2 or 3 and raises nothing; under --json its last
    stdout line is one JSON object, with "error" exactly on 2 and 3.  A
    refused argument, or a command that runs out of memory, exits 2.  Lambda_1
    is never built past --m 2, so a scale that the row charge should refuse
    fails here instead of allocating."""
    argv, command, refused = case
    argv = [a.replace("{dir}", str(contract_dir)) for a in argv]
    build_lambda1 = lattice.build_lambda1

    def cheap_only(base, m):
        assert m <= 2, f"Lambda_1 built at --m {m}"
        return build_lambda1(base, m)

    def no_memory(args):
        raise MemoryError("Unable to allocate 1.00 PiB for an array")

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(lattice, "build_lambda1", cheap_only))
        if out_of_memory and command:
            stack.enter_context(mock.patch.object(cli, f"cmd_{command}", no_memory))
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if refused or (out_of_memory and command):
        assert code == 2
    if argv[:1] == ["--json"]:
        payload = json.loads(stdout.getvalue().splitlines()[-1])
        assert isinstance(payload, dict) and ("error" in payload) == (code in (2, 3))
    elif code in (2, 3):
        assert stderr.getvalue().startswith("error: ")
