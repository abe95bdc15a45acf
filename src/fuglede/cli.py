"""Command-line front end: build the counterexample pipeline, scan small
groups, verify user-supplied certificates, export geometry.

Each cmd_* returns (ok, payload, lines) and prints only scan's streamed
records; main alone prints the report or error and picks the exit status:
0 when every verification in the invoked pipeline passes, 1 when one fails,
2 on bad input or out of memory, 3 when a search node budget runs out.  With
--json the output is deterministic machine-readable JSON on every path,
including failures.  On exit 3, scan has already printed the records it made
before the budget ran out.

Each command imports the modules it runs when it runs: `scan` loads only
`cyclotomic`, `groups`, `tiling` and `spectra`, and the lattice and density
commands never load `continuum`.

main calls gc.freeze() first: the imports' objects live until the process
exits, and frozen objects skip every later collection, the interpreter's at
shutdown included.  Of one fresh process per command (start about 29 ms,
import about 65 ms, then the command) the exit drops from 17 ms to 5 ms.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from . import spectra, tiling
from .groups import GroupSpec, element_set_from_json, element_set_to_json

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _finite_counterexample(variant: str):
    """z2-12 and z3-6 from the Butson matrices; z2-11 and z3-5 one descent down.
    z3-5 is also the pair that the lattice, export and density commands lift."""
    from . import hadamard

    matrix = hadamard.paper_h12() if variant.startswith("z2") else hadamard.paper_h6()
    found = hadamard.spectrum_from_butson(matrix)
    return hadamard.descend(*found) if variant in ("z2-11", "z3-5") else found


def _lifted_pair(m: int, what: str):
    """Omega_1 and Lambda_1 at scale m, built only if TABLE_BUDGET holds the int64
    words kept per frequency row, 6·m^5 rows: 2n + 2 for a certificate (row, sort
    copy, 2 codes), 4n + 1 for export (row, point, CubeUnion's 2 copies, sort index)."""
    from . import lattice

    g5, t5, l5 = _finite_counterexample("z3-5")
    words = 4 * g5.ndim + 1 if what == "export" else 2 * g5.ndim + 2
    if (need := 8 * len(l5) * m**g5.ndim * words) > lattice.TABLE_BUDGET:
        raise ValueError(
            f"--m {m}: {what} needs about {need >> 20} MiB, "
            f"beyond its {lattice.TABLE_BUDGET >> 20} MiB budget"
        )
    return lattice.build_omega1(t5, m), lattice.build_lambda1(l5, m)


def cmd_counterexample(args) -> tuple[bool, dict, list[str]]:
    checks: list[tuple[str, bool, str]] = []
    payload: dict = {"variant": args.variant}

    if args.variant in ("z2-12", "z3-6", "z3-5", "z2-11"):
        g, T, L = _finite_counterexample(args.variant)
        ver = spectra.is_spectrum(g, T, L)
        checks.append(
            (f"spectrum of the {len(T)}-point set in Z_{g}", ver.valid, "is_spectrum")
        )
        tile = tiling.find_tiling(g, T)
        checks.append(
            (
                f"non-tiling of Z_{g} ({tile.obstruction})",
                not tile.tiles and tile.obstruction is not None,
                "find_tiling",
            )
        )
        payload.update(
            {
                "group": g.to_json(),
                "set": element_set_to_json(T),
                "spectrum": element_set_to_json(L),
                "obstruction": tile.obstruction.to_json()
                if tile.obstruction
                else None,
            }
        )
    else:
        from . import lattice

        omega1, lambda1 = _lifted_pair(args.m, f"the {args.variant} certificate")
        obstruction = lattice.torus_non_tiling(omega1)
        payload["m"] = args.m
        # The lift has #base·M^n distinct points, one unit cube each in Omega_2.
        size = len(omega1.base) * args.m**omega1.dimension
        if args.variant == "lattice":
            ortho = lattice.verify_ortho_lattice(omega1, lambda1)
            cells = lattice.cell_count_check(omega1)
            what = f"orthogonality of {len(lambda1.numerators)} lifted frequencies"
            checks += [
                (f"{what} ({ortho.pairs} pairs)", ortho.valid, "verify_ortho_lattice"),
                ("cell counts (6 points per aligned cell)", cells, "cell_count_check"),
            ]
            payload.update(points=size, pairs=ortho.pairs)
            payload["obstruction"] = obstruction.to_json() if obstruction else None
        else:
            from . import continuum

            budget = args.pair_budget
            if budget is None:  # not given
                budget = continuum.DEFAULT_PAIR_BUDGET
            result = continuum.verify_spectrum_truncation(
                omega1, lambda1, args.k_radius, pair_budget=budget
            )
            checks.append(
                (
                    f"orthogonality of the truncated spectrum "
                    f"(k radius {args.k_radius}, {result.pairs_checked} pairs"
                    + (", sampled)" if result.sampled else ")"),
                    result.valid,
                    "verify_spectrum_truncation",
                )
            )
            payload.update(
                k_radius=args.k_radius,
                measure=size,
                pairs_checked=result.pairs_checked,
                sampled=result.sampled,
            )
        checks.append(
            (
                f"torus divisibility obstruction ({obstruction})",
                obstruction is not None,
                "torus_non_tiling",
            )
        )

    ok = all(passed for _, passed, _ in checks)
    payload["checks"] = [
        {"name": op, "description": desc, "pass": passed}
        for desc, passed, op in checks
    ]
    payload["pass"] = ok
    lines = [
        f"{'PASS' if passed else 'FAIL'}  {desc}" for desc, passed, _ in checks
    ]
    failures = (f"FAILED at {op}: {desc}" for desc, passed, op in checks if not passed)
    lines.append(next(failures, "all checks passed"))
    return ok, payload, lines


def scan_line_writer(g: GroupSpec):
    """rec -> its --json line, json.dumps(fields, sort_keys=True, separators=(",",
    ":")), assembled from the text of each element, made once per scan."""
    text = {x: f"[{','.join(map(str, x))}]" for x in map(tuple, g.coords.tolist())}
    boolean = ("false", "true")

    def field(key: str, xs) -> str:
        return "" if xs is None else f'"{key}":[{",".join(map(text.get, xs))}],'

    def line(rec: spectra.ScanRecord) -> str:
        out = "{" + field("complement", rec.complement)  # keys in sorted order
        if (ob := rec.obstruction) is not None:
            out += f'"obstruction":{{"group_order":{ob.group_order},'
            out += f'"set_size":{ob.set_size}}},'
        out += f'{field("set", rec.elements)}"spectral":{boolean[rec.spectral]},'
        return f'{out}{field("spectrum", rec.spectrum)}"tiles":{boolean[rec.tiles]}}}'

    return line


def cmd_scan(args) -> tuple[bool, dict, list[str]]:
    g = GroupSpec.from_descriptor(args.group)
    if (args.size or 0) > (order := spectra.scan_order(g)):  # before g.coords
        raise ValueError(f"--size {args.size} exceeds the group order {order}")
    summary = spectra.ScanSummary()
    write, line = sys.stdout.write, scan_line_writer(g)
    for rec in spectra.scan_records(g, size_filter=args.size):
        summary.add(rec)
        if args.json:
            write(line(rec) + "\n")
        else:
            print(f"set {list(rec.elements)}: spectral={rec.spectral} tiles={rec.tiles}")
    total = (
        f"scanned {summary.classes} classes of Z_{g}: "
        f"{len(summary.spectral_non_tiles)} spectral non-tiles, "
        f"{len(summary.tiles_non_spectral)} tiles non-spectral"
    )
    return True, summary.to_json(), [total]


def _load_set(g: GroupSpec, text: str):
    """Accept a path to JSON, inline JSON, or a brace literal of ranks."""
    if text.startswith("{") and text.endswith("}"):
        ranks = [int(v) for v in text[1:-1].split(",") if v.strip()]
        return frozenset(g.unrank(r) for r in ranks)
    if text.startswith("["):
        return element_set_from_json(g, json.loads(text))
    return element_set_from_json(g, json.loads(Path(text).read_text()))


def _load_matrix(text: str):
    from . import hadamard

    if text == "h12":
        return hadamard.paper_h12()
    if text == "h6":
        return hadamard.paper_h6()
    return hadamard.ButsonMatrix.from_json(json.loads(Path(text).read_text()))


def cmd_verify(args) -> tuple[bool, dict, list[str]]:
    if args.matrix is not None:
        from . import hadamard

        H = _load_matrix(args.matrix)
        check = hadamard.verify_butson(H)
        ok = check.ok
        fields = {
            "kind": "butson",
            "failing_rows": list(check.failing_pair) if check.failing_pair else None,
        }
        line = (
            f"matrix of order {H.size} over {H.q}-th roots: orthogonal"
            if ok
            else f"rows {check.failing_pair} are not orthogonal"
        )
    else:
        if args.group is None or args.set is None:
            raise ValueError("verify: need --matrix, or --group with --set")
        g = GroupSpec.from_descriptor(args.group)
        T = _load_set(g, args.set)
        if args.spectrum is not None:
            ver = spectra.is_spectrum(g, T, _load_set(g, args.spectrum))
            ok = ver.valid
            fields = {
                "kind": "spectrum",
                "witness": [list(x) for x in ver.witness] if ver.witness else None,
                "reason": ver.reason,
            }
            line = (
                "spectrum valid"
                if ok
                else f"spectrum invalid: {ver.reason} {ver.witness or ''}".rstrip()
            )
        elif args.complement is not None:
            witness = tiling.cover_defect(g, T, _load_set(g, args.complement))
            ok = witness is None
            fields = {"kind": "tiling", "witness": None if ok else list(witness)}
            line = (
                "tiling valid"
                if ok
                else f"tiling invalid: element {witness} not covered exactly once"
            )
        else:
            raise ValueError("verify: need --spectrum or --complement with --set")
    return ok, {**fields, "valid": ok}, [line]


def cmd_export(args) -> tuple[bool, dict, list[str]]:
    from . import continuum

    omega1, lambda1 = _lifted_pair(args.m, "export")
    omega2 = continuum.build_omega2(omega1)
    continuum.export_geometry(omega2, lambda1, args.out)
    return (
        True,
        {"out": str(args.out), "measure": omega2.measure, "m": args.m},
        [f"wrote {omega2.measure} unit cubes and the spectrum to {args.out}"],
    )


def cmd_density(args) -> tuple[bool, dict, list[str]]:
    from . import lattice

    _, t5, _ = _finite_counterexample("z3-5")
    omega1 = lattice.build_omega1(t5, args.m)
    report = lattice.density_check(omega1, args.l, stride=args.stride)
    lines = [
        f"windows: {report.windows} ({report.nonzero_windows} nonzero)",
        f"density range [{report.min_density}, {report.max_density}], "
        f"target {report.target} +/- {report.tolerance}",
        "PASS" if report.ok else "FAIL",
    ]
    return report.ok, report.to_json(), lines


class _Parser(argparse.ArgumentParser):
    """Usage errors surface as ValueError, so main reports them like any
    other bad input (as a JSON error object under --json)."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _at_least(lo: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fuglede",
        description=(
            "Exact constructions and certificates for spectral sets and "
            "translational tilings in finite abelian groups, Z^n, and R^n."
        ),
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counterexample", help="build and verify a named construction")
    p.add_argument(
        "variant",
        choices=["z2-12", "z3-6", "z3-5", "z2-11", "lattice", "continuum"],
    )
    p.add_argument("--m", type=_at_least(1), default=2, help="lattice truncation scale")
    p.add_argument("--k-radius", type=_at_least(0), default=1, dest="k_radius")
    p.add_argument(
        "--pair-budget",
        type=_at_least(1),
        dest="pair_budget",
    )
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser(
        "scan",
        help="scan all subset classes of a small group",
        description=(
            "Decide spectrality and tiling for every nonempty subset of the "
            "group up to translation. The scan walks the 2^(n-1) subsets "
            "that contain 0, so the group order n is limited to "
            f"{spectra.SCAN_ORDER_LIMIT}; a larger group exits with status 2."
        ),
    )
    p.add_argument("group", help="group descriptor: n, p^k, or n1xn2x...")
    p.add_argument("--size", type=_at_least(1), help="restrict subset size")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="verify a matrix, spectrum, or tiling")
    p.add_argument("--matrix", help="'h12', 'h6', or a JSON matrix file")
    p.add_argument("--group", help="group descriptor")
    p.add_argument("--set", help="set: JSON file, inline JSON, or {ranks}")
    p.add_argument("--spectrum", help="candidate spectrum, same formats")
    p.add_argument("--complement", help="candidate tiling complement")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="export the cube-union geometry")
    p.add_argument("--m", type=_at_least(1), default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "density",
        help="window density report for the lifted set",
        description=(
            "Exact densities of the lifted set in every window of side L "
            "(corners on a stride grid) inside [0,3M)^5, checked against "
            "6/3^5 within 12/L. On each axis such a window holds floor(L/3) "
            "or ceil(L/3) integers of each residue mod 3, so every density d "
            "obeys |d - 6/3^5| <= 2n/(3L) with n = 5, inside 12/L, and exit "
            "status 1 cannot occur. The report records the exact extreme "
            "densities."
        ),
    )
    p.add_argument(
        "--m", type=_at_least(1), default=16, help="lattice truncation scale"
    )
    p.add_argument("--l", type=_at_least(1), default=8, help="window side")
    p.add_argument("--stride", type=_at_least(1), default=4, help="corner spacing")
    p.set_defaults(func=cmd_density)

    return parser


def main(argv=None) -> int:
    gc.freeze()  # the imports' objects live to exit: keep every collection off them
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        ok, payload, lines = args.func(args)
        print(_ENCODER.encode(payload) if args.json else "\n".join(lines))
        return 0 if ok else 1
    except tiling.BudgetExceeded as exc:
        code, error = 3, {"error": str(exc), "budget": exc.budget}
    except (ValueError, OSError, MemoryError) as exc:
        code, error = 2, {"error": str(exc)}
    # Read from argv, not args, so usage errors are JSON under --json too.
    if "--json" in argv:
        print(json.dumps(error, sort_keys=True))
    else:
        print(f"error: {error['error']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
