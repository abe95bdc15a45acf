"""One fresh `fuglede` CLI process, as perfbench/run.py spawns it.

    python3 perfbench/child.py run|trace|import <fuglede argv...>

Imports `fuglede.cli` from the checkout's `src/`, runs `main(argv)` exactly
as the `fuglede` console script does (`import` stops after the import), and
appends one line to stdout:

    PERFBENCH {"imported_at": ..., ...}

`imported_at` is `time.perf_counter()` (CLOCK_MONOTONIC, shared by every
process on the host) right after `fuglede.cli` and numpy are imported, so
run.py can subtract its own spawn timestamp to get the set-up time.

With `trace` the child wraps the public functions listed in `LAYERS`
before calling `main`, from outside the package: no file under `src/`
changes.  Each wrapper counts calls, total time and self time (total minus
the time of wrapped children).  Generators are not wrapped: the time of
`spectra.canonical_classes` lands in `spectra.fuglede_scan` self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MARKER = "PERFBENCH "

# module -> functions (or Class.method) whose calls the traced run times.
LAYERS = {
    "hadamard": ["spectrum_from_butson", "descend", "verify_butson"],
    "lattice": [
        "build_omega1",
        "build_lambda1",
        "verify_ortho_lattice",
        "pair_verdicts_direct",
        "cell_count_check",
        "density_check",
        "torus_non_tiling",
        "character_sum_lattice",
    ],
    "continuum": [
        "build_omega2",
        "verify_spectrum_truncation",
        "inner_product_is_zero",
    ],
    "spectra": ["fuglede_scan", "find_spectrum", "fourier_zero_set", "is_spectrum"],
    "tiling": ["find_tiling"],
    "groups": ["GroupSpec.character_sum"],
    "cyclotomic": ["CyclotomicInt.is_zero"],
    "cli": ["main"],
}


class Tracer:
    """Call counts, total and self time per wrapped function."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.nodes = 0  # sum of SpectrumSearch.nodes over find_spectrum calls
        self.direct_args: list = []  # lambda1 of each pair_verdicts_direct call
        self._stack: list[float] = []  # child time of each open call

    def wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if key == "spectra.find_spectrum":
                self.nodes += result.nodes
            elif key == "lattice.pair_verdicts_direct":
                self.direct_args.append(args[1])
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYERS and rebind each module global that
        holds the original.  Two names are imported by value and would
        otherwise go uncounted: `continuum.character_sum_lattice` and
        `hadamard.is_spectrum`."""
        modules = [
            importlib.import_module(f"fuglede.{name}") for name in LAYERS
        ]
        for module, (name, functions) in zip(modules, LAYERS.items()):
            for qualname in functions:
                owner = module
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = self.wrap(f"{name}.{qualname}", original)
                setattr(owner, attr, wrapped)
                for other in modules:
                    for alias, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, alias, wrapped)

    def to_json(self) -> dict:
        return {
            "functions": {
                key: {"calls": c, "total_s": t, "self_s": s}
                for key, (c, t, s) in self.stats.items()
            },
            "find_spectrum_nodes": self.nodes,
        }


def distinct_differences(lambda1) -> int:
    """Number of distinct (nu_j - nu_i) mod denominator over pairs i < j."""
    import numpy as np

    denom = lambda1.denominator
    nums = np.asarray(lambda1.numerators, dtype=np.int64)
    weights = denom ** np.arange(nums.shape[1], dtype=np.int64)
    codes = [
        ((nums[i + 1 :] - nums[i]) % denom) @ weights for i in range(len(nums) - 1)
    ]
    return len(np.unique(np.concatenate(codes))) if codes else 0


def peak_rss_mb() -> float:
    """This process's own peak resident memory (VmHWM).  `ru_maxrss` from
    wait4 is not used: a child also inherits its parent's peak at exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    mode, argv = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    import fuglede.cli

    record: dict = {"imported_at": time.perf_counter()}
    if mode == "import":
        import numpy

        record["numpy"] = numpy.__version__
        print(MARKER + json.dumps(record), flush=True)
        return 0
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    rc = fuglede.cli.main(argv)
    sys.stdout.flush()
    record["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        start = time.perf_counter()
        record["trace"] = tracer.to_json()
        if tracer.direct_args:
            lambda1 = tracer.direct_args[0]
            record["trace"]["distinct_differences"] = distinct_differences(lambda1)
        # run.py subtracts this from the traced wall time.
        record["property_s"] = time.perf_counter() - start
    print(MARKER + json.dumps(record), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
