"""Command-line front end: build the counterexample pipeline, scan small
groups, verify user-supplied certificates, export geometry.

Exit status: 0 when every verification in the invoked pipeline passes,
1 when one fails, 2 on bad input or out of memory, 3 when a search node
budget runs out.  With --json the output is deterministic machine-readable
JSON on every path, including failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import continuum, hadamard, lattice, spectra, tiling
from .cyclotomic import MAX_ORDER
from .groups import GroupSpec, element_set_from_json, element_set_to_json


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in human_lines:
            print(line)


def _descended_pair():
    g6, t6, l6 = hadamard.spectrum_from_butson(hadamard.paper_h6())
    return hadamard.descend(g6, t6, l6)


def _lifted_pair(m: int):
    """Omega_1 and Lambda_1 at scale m; scales whose order-3m zero tests the
    cyclotomic kernel refuses are rejected before any point is built."""
    if 3 * m > MAX_ORDER:
        raise ValueError(f"--m {m}: root order 3M = {3 * m} exceeds {MAX_ORDER}")
    _, t5, l5 = _descended_pair()
    return lattice.build_omega1(t5, m), lattice.build_lambda1(l5, m)


def _finite_counterexample(variant: str):
    if variant == "z2-12":
        return hadamard.spectrum_from_butson(hadamard.paper_h12())
    if variant == "z3-6":
        return hadamard.spectrum_from_butson(hadamard.paper_h6())
    if variant == "z3-5":
        return _descended_pair()
    if variant == "z2-11":
        g, t, l = hadamard.spectrum_from_butson(hadamard.paper_h12())
        return hadamard.descend(g, t, l)
    raise ValueError(variant)


def cmd_counterexample(args) -> int:
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
    elif args.variant == "lattice":
        omega1, lambda1 = _lifted_pair(args.m)
        ortho = lattice.verify_ortho_lattice(omega1, lambda1)
        checks.append(
            (
                f"orthogonality of {len(lambda1.numerators)} lifted frequencies "
                f"({ortho.pairs} pairs)",
                ortho.valid,
                "verify_ortho_lattice",
            )
        )
        cells = lattice.cell_count_check(omega1)
        checks.append(("cell counts (6 points per aligned cell)", cells, "cell_count_check"))
        obstruction = lattice.torus_non_tiling(omega1)
        checks.append(
            (
                f"torus divisibility obstruction ({obstruction})",
                obstruction is not None,
                "torus_non_tiling",
            )
        )
        payload.update(
            {
                "m": args.m,
                "points": len(omega1.points),
                "pairs": ortho.pairs,
                "obstruction": obstruction.to_json() if obstruction else None,
            }
        )
    elif args.variant == "continuum":
        omega1, lambda1 = _lifted_pair(args.m)
        omega2 = continuum.build_omega2(omega1)
        result = continuum.verify_spectrum_truncation(
            omega1, lambda1, args.k_radius, pair_budget=args.pair_budget
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
        obstruction = lattice.torus_non_tiling(omega1)
        checks.append(
            (
                f"torus divisibility obstruction ({obstruction})",
                obstruction is not None,
                "torus_non_tiling",
            )
        )
        payload.update(
            {
                "m": args.m,
                "k_radius": args.k_radius,
                "measure": omega2.measure,
                "pairs_checked": result.pairs_checked,
                "sampled": result.sampled,
            }
        )
    else:
        raise ValueError(args.variant)

    ok = all(passed for _, passed, _ in checks)
    payload["checks"] = [
        {"name": op, "description": desc, "pass": passed}
        for desc, passed, op in checks
    ]
    payload["pass"] = ok
    lines = [
        f"{'PASS' if passed else 'FAIL'}  {desc}" for desc, passed, _ in checks
    ]
    lines.append("all checks passed" if ok else _first_failure(checks))
    _emit(args, payload, lines)
    return 0 if ok else 1


def _first_failure(checks) -> str:
    for desc, passed, op in checks:
        if not passed:
            return f"FAILED at {op}: {desc}"
    return "all checks passed"


def cmd_scan(args) -> int:
    g = GroupSpec.from_descriptor(args.group)
    if args.size is not None and args.size > g.order:
        raise ValueError(f"--size {args.size} exceeds the group order {g.order}")
    records, summary = spectra.fuglede_scan(g, size_filter=args.size)
    if args.json:
        for rec in records:
            print(json.dumps(rec.to_json(), sort_keys=True, separators=(",", ":")))
        print(json.dumps(summary.to_json(), sort_keys=True, separators=(",", ":")))
    else:
        for rec in records:
            print(
                f"set {sorted(rec.elements)}: spectral={rec.spectral} "
                f"tiles={rec.tiles}"
            )
        print(
            f"scanned {summary.classes} classes of Z_{g}: "
            f"{len(summary.spectral_non_tiles)} spectral non-tiles, "
            f"{len(summary.tiles_non_spectral)} tiles non-spectral"
        )
    return 0


def _load_set(g: GroupSpec, text: str):
    """Accept a path to JSON, inline JSON, or a brace literal of ranks."""
    if text.startswith("{") and text.endswith("}"):
        ranks = [int(v) for v in text[1:-1].split(",") if v.strip()]
        return frozenset(g.unrank(r) for r in ranks)
    if text.startswith("["):
        return element_set_from_json(g, json.loads(text))
    return element_set_from_json(g, json.loads(Path(text).read_text()))


def _load_matrix(text: str) -> hadamard.ButsonMatrix:
    if text == "h12":
        return hadamard.paper_h12()
    if text == "h6":
        return hadamard.paper_h6()
    return hadamard.ButsonMatrix.from_json(json.loads(Path(text).read_text()))


def cmd_verify(args) -> int:
    if args.matrix is not None:
        H = _load_matrix(args.matrix)
        check = hadamard.verify_butson(H)
        payload = {
            "kind": "butson",
            "valid": check.ok,
            "failing_rows": list(check.failing_pair) if check.failing_pair else None,
        }
        lines = (
            [f"matrix of order {H.size} over {H.q}-th roots: orthogonal"]
            if check.ok
            else [f"rows {check.failing_pair} are not orthogonal"]
        )
        _emit(args, payload, lines)
        return 0 if check.ok else 1

    if args.group is None or args.set is None:
        raise ValueError("verify: need --matrix, or --group with --set")
    g = GroupSpec.from_descriptor(args.group)
    T = _load_set(g, args.set)
    if args.spectrum is not None:
        L = _load_set(g, args.spectrum)
        ver = spectra.is_spectrum(g, T, L)
        payload = {
            "kind": "spectrum",
            "valid": ver.valid,
            "witness": [list(x) for x in ver.witness] if ver.witness else None,
            "reason": ver.reason,
        }
        lines = (
            ["spectrum valid"]
            if ver.valid
            else [f"spectrum invalid: {ver.reason} {ver.witness or ''}".rstrip()]
        )
        _emit(args, payload, lines)
        return 0 if ver.valid else 1
    if args.complement is not None:
        sigma = _load_set(g, args.complement)
        witness = tiling.cover_defect(g, T, sigma)
        ok = witness is None
        payload = {
            "kind": "tiling",
            "valid": ok,
            "witness": list(witness) if witness is not None else None,
        }
        lines = (
            ["tiling valid"]
            if ok
            else [f"tiling invalid: element {witness} not covered exactly once"]
        )
        _emit(args, payload, lines)
        return 0 if ok else 1
    raise ValueError("verify: need --spectrum or --complement with --set")


def cmd_export(args) -> int:
    _, t5, l5 = _descended_pair()
    omega1 = lattice.build_omega1(t5, args.m)
    lambda1 = lattice.build_lambda1(l5, args.m)
    omega2 = continuum.build_omega2(omega1)
    continuum.export_geometry(omega2, lambda1, args.out)
    _emit(
        args,
        {"out": str(args.out), "measure": omega2.measure, "m": args.m},
        [f"wrote {omega2.measure} unit cubes and the spectrum to {args.out}"],
    )
    return 0


def cmd_density(args) -> int:
    _, t5, _ = _descended_pair()
    omega1 = lattice.build_omega1(t5, args.m)
    report = lattice.density_check(omega1, args.l, stride=args.stride)
    lines = [
        f"windows: {report.windows} ({report.nonzero_windows} nonzero)",
        f"density range [{report.min_density}, {report.max_density}], "
        f"target {report.target} +/- {report.tolerance}",
        "PASS" if report.ok else "FAIL",
    ]
    _emit(args, report.to_json(), lines)
    return 0 if report.ok else 1


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
        "--pair-budget", type=_at_least(1), default=1_000_000, dest="pair_budget"
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (spectra.SearchBudgetExceeded, tiling.CoverBudgetExceeded) as exc:
        code = 3
        error = {"error": str(exc), "budget": tiling.resolve_node_budget()}
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
