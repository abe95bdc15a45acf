"""Benchmark of the fuglede CLI pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; see perfbench/README.md for the
workloads, every metric and its unit, and how the layers map onto them.

Closed loop, one client: each invocation is one fresh `fuglede --json ...`
process (perfbench/child.py), started only after the previous one exited,
for `--seconds` seconds: the next one starts only if it is likely to end
in time, and there is always at least one.  Every invocation's
verdicts are checked against the workload's invariants.  With `--trace 1`
one more, traced invocation follows and gives the per-layer metrics; its
numbers never enter the end-to-end metrics.

A fixed reference process (perfbench/reference.py) runs before every timed
child and after the last.  The timings are scaled by REFERENCE_S over the
median reference time, so they read as seconds at the speed of the host
the benchmark was sized on (README.md, "Host-speed normalisation").

The workloads are fixed by the paper's construction and take no seed: the
continuum sampler's seed is fixed inside the program.  `--seed` is accepted
and recorded, and the same seed always gives the same inputs.

The second-to-last stdout line is the full record of the run (environment,
quartiles, sample counts, failures); the last line is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from child import LAYERS, MARKER, SRC
from reference import CHECKSUM

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.py"
ROOT = SRC.parent
SETUP_SPAWNS = 5  # import-only processes per run, for the set-up median
# Median wall time of one reference process on the host the benchmark was
# sized on (2 vCPUs, Python 3.11.7, numpy 2.4.6).  Timings are reported in
# seconds at that host speed: see README.md, "Host-speed normalisation".
REFERENCE_S = 0.55


@dataclass(frozen=True)
class Size:
    argv: tuple[str, ...]
    items: str  # payload key whose value counts the certified items
    expect: dict  # payload invariants; "digest" is the scan digest


@dataclass(frozen=True)
class Workload:
    full: Size
    smoke: Size


WORKLOADS = {
    "lattice-m3": Workload(
        Size(
            ("counterexample", "lattice", "--m", "3"),
            "pairs",
            {"points": 1458, "pairs": 1062153},
        ),
        Size(
            ("counterexample", "lattice", "--m", "1"),
            "pairs",
            {"points": 6, "pairs": 15},
        ),
    ),
    "continuum-m2-k1-p100k": Workload(
        Size(
            (
                "counterexample",
                "continuum",
                "--m",
                "2",
                "--k-radius",
                "1",
                "--pair-budget",
                "100000",
            ),
            "pairs_checked",
            {"measure": 192, "pairs_checked": 100000},
        ),
        Size(
            ("counterexample", "continuum", "--m", "1", "--k-radius", "0"),
            "pairs_checked",
            {"measure": 6, "pairs_checked": 15},
        ),
    ),
    "density-m10": Workload(
        Size(
            ("density", "--m", "10", "--l", "8", "--stride", "4"),
            "windows",
            {
                "windows": 7776,
                "nonzero_windows": 7776,
                "min_density": "17/2048",
                "max_density": "729/16384",
            },
        ),
        Size(
            ("density", "--m", "2", "--l", "3", "--stride", "1"),
            "windows",
            {
                "windows": 1024,
                "nonzero_windows": 1024,
                "min_density": "2/81",
                "max_density": "2/81",
            },
        ),
    ),
    "scan-z15": Workload(
        Size(
            ("scan", "15"),
            "classes",
            {
                "classes": 2191,
                "spectral_non_tiles": [],
                "tiles_non_spectral": [],
                "digest": "98e72e3abb74b0b306f56ead8d24ce3b"
                "df097a1ab8c6e56e81d7a54beff90e9b",
            },
        ),
        Size(
            ("scan", "8"),
            "classes",
            {
                "classes": 35,
                "spectral_non_tiles": [],
                "tiles_non_spectral": [],
                "digest": "33a4c1c3b6a94f69f3338b469bb3a204"
                "df9912eea32af530efc8dd8af967663a",
            },
        ),
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
}


# -- one process ------------------------------------------------------------


def scan_digest(records: list[dict]) -> str:
    """sha256 over the sorted per-class (set, spectral, tiles) triples; the
    found spectra and complements are deliberately left out."""
    triples = sorted(
        json.dumps([r["set"], r["spectral"], r["tiles"]], separators=(",", ":"))
        for r in records
    )
    return hashlib.sha256("\n".join(triples).encode()).hexdigest()


def check_payload(lines: list[str], size: Size) -> tuple[dict, list[str]]:
    """Parse the CLI's --json output and compare it with the invariants.
    Returns the summary payload and the list of problems found."""
    try:
        docs = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        return {}, [f"output is not JSON: {exc}"]
    if not docs:
        return {}, ["no output"]
    payload = docs[-1]
    problems = [
        f"{key} is {payload[key]!r}"
        for key in ("pass", "ok")
        if key in payload and payload[key] is not True
    ]
    if "digest" in size.expect:
        payload["digest"] = scan_digest(docs[:-1])
        payload["obstructed"] = sum("obstruction" in r for r in docs[:-1])
        if len(docs) - 1 != payload.get("classes"):
            problems.append(f"{len(docs) - 1} class records")
    for key, want in size.expect.items():
        if payload.get(key) != want:
            problems.append(f"{key} is {payload.get(key)!r}, expected {want!r}")
    return payload, problems


def spawn(mode: str, argv: tuple[str, ...]) -> dict:
    """Run one child to exit; return wall and set-up time, peak RSS, exit
    code and stdout lines without the child's own marker line."""
    cmd = [sys.executable, str(CHILD), mode, "--json", *argv]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.decode().splitlines()
    marker = {}
    if lines and lines[-1].startswith(MARKER):
        marker = json.loads(lines.pop()[len(MARKER) :])
    return {
        "rc": proc.returncode,
        "wall_s": wall - marker.get("property_s", 0.0),
        "setup_s": marker["imported_at"] - start if marker else None,
        "peak_rss_mb": marker.get("peak_rss_mb"),
        "lines": lines,
        "marker": marker,
    }


def reference() -> float:
    """Wall time of one reference process (perfbench/reference.py)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(REFERENCE)],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0 or proc.stdout.split() != [str(CHECKSUM).encode()]:
        raise RuntimeError(f"reference process failed: {proc.stdout!r}")
    return wall


def invoke(mode: str, size: Size) -> dict:
    """One checked invocation of the workload."""
    run = spawn(mode, size.argv)
    payload, problems = check_payload(run.pop("lines"), size)
    if run["rc"] != 0:
        problems.insert(0, f"exit code {run['rc']}")
    if not run["marker"]:
        problems.append("child wrote no marker line")
    run.update(payload=payload, problems=problems)
    return run


# -- one run ----------------------------------------------------------------


def quartiles(values: list) -> dict:
    """Median, quartiles and count of the values a failed child did report
    (0 when there are none; such a run is already marked incorrect)."""
    values = [v for v in values if v is not None] or [0.0]
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return out.stdout.strip() or None


def src_digest() -> str:
    """sha256 over src/ so runs of a checkout without .git stay comparable."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def layer_metrics(traced: dict, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced invocation; see README.md."""
    trace = traced["marker"].get("trace", {})
    functions = trace.get("functions", {})
    payload = traced["payload"]
    out = {}
    for module, names in LAYERS.items():
        for name in names:
            key = f"{module}.{name}"
            stat = functions.get(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            out[f"{key}.calls"] = (stat["calls"], "count")
            out[f"{key}.total_s"] = (stat["total_s"], "s")
            out[f"{key}.self_s"] = (stat["self_s"], "s")
    pairs = payload.get("pairs", 0)
    distinct = trace.get("distinct_differences", 0)
    out["lattice.distinct_diff_share"] = (distinct / pairs if pairs else 0.0, "ratio")
    checked = payload.get("pairs_checked", 0)
    misses = functions.get("continuum.inner_product_is_zero", {}).get("calls", 0)
    out["continuum.cache_miss_share"] = (misses / checked if checked else 0.0, "ratio")
    classes = payload.get("classes", 0)
    obstructed = payload.get("obstructed", 0)
    out["tiling.divisibility_share"] = (
        obstructed / classes if classes else 0.0,
        "ratio",
    )
    out["spectra.find_spectrum.nodes"] = (trace.get("find_spectrum_nodes", 0), "count")
    out["trace_overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
    return out


def run_workload(size: Size, seconds: float, trace: bool, setup_spawns: int) -> dict:
    """Closed loop for `seconds`, then the traced invocation if asked."""
    load_start = os.getloadavg()[0]
    warm = spawn("import", ())  # compiles bytecode once, not timed
    # A reference process runs before every timed child and after the last,
    # so the references sample the host's speed over the whole run.
    refs, setup, runs = [], [], []
    for _ in range(setup_spawns):
        refs.append(reference())
        setup.append(spawn("import", ())["setup_s"])
    start = time.perf_counter()
    while True:
        refs.append(reference())
        runs.append(invoke("run", size))
        # Stop before a pair that would likely end past `seconds`, so a run
        # lasts about `seconds` whatever the invocation's length.
        if time.perf_counter() - start + refs[-1] + runs[-1]["wall_s"] > seconds:
            break
    refs.append(reference())
    traced = invoke("trace", size) if trace else None
    checked = runs + ([traced] if traced else [])
    failures = [r["problems"] for r in checked if r["problems"]]
    setup = [s for s in setup + [r["setup_s"] for r in runs] if s is not None]
    items = size.expect[size.items]
    walls = [r["wall_s"] for r in runs]
    scale = REFERENCE_S / statistics.median(refs)
    raw = {
        "wall_s": quartiles(walls),
        "setup_s": quartiles(setup),
        "reference_s": quartiles(refs),
    }
    summary = {
        "wall_s": quartiles([w * scale for w in walls]),
        "setup_s": quartiles([s * scale for s in setup]),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in runs]),
        "items_per_s": quartiles([items / (w * scale) for w in walls]),
    }
    for name, unit in END_TO_END_UNITS.items():
        summary[name]["unit"] = unit
    layers = {}
    if traced:
        layers = layer_metrics(traced, raw["wall_s"]["median"])
    return {
        "argv": ["fuglede", "--json", *size.argv],
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": warm["marker"].get("numpy"),
            "git_sha": git_sha(),
            "src_sha256": src_digest(),
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0],
        },
        "attempted": len(checked),
        "failed": len(failures),
        "fail_ratio": len(failures) / len(checked),
        "failures": failures,
        "end_to_end": summary,
        "raw": raw,
        "host_scale": scale,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }


def result_line(record: dict, trace: bool) -> dict:
    if trace:
        metrics = record["per_layer"]
    else:
        metrics = {
            name: {"value": m["median"], "unit": m["unit"]}
            for name, m in record["end_to_end"].items()
        }
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def smoke() -> int:
    """Every workload at its smallest size, traced and untraced, checked."""
    ok = True
    for name, workload in WORKLOADS.items():
        record = run_workload(workload.smoke, 0, trace=True, setup_spawns=1)
        record["workload"] = name
        line = result_line(record, trace=False)
        line["metrics"].update(result_line(record, trace=True)["metrics"])
        line["workload"] = name
        print(json.dumps(record, sort_keys=True))
        print(json.dumps(line, sort_keys=True))
        ok = ok and line["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="all workloads at the smallest sizes"
    )
    args = parser.parse_args(argv)
    if not (SRC / "fuglede" / "cli.py").is_file():
        print(f"perfbench: no fuglede sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required without --smoke")
    record = run_workload(
        WORKLOADS[args.workload].full, args.seconds, bool(args.trace), SETUP_SPAWNS
    )
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
