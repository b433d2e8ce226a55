"""Command-line front end.

Every subcommand is deterministic: identical inputs and seeds produce
byte-identical outputs.  Exit codes: 0 success, 1 failed validation or a
failed verification suite, 2 input/parse errors, 3 simplicial errors,
4 homology errors, 5 calculus errors, 6 polar/degeneracy errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import calculus as cal
from . import fileio, homology as hom
from . import polar, sw, verify
from .errors import InputError, NotEulerError, PolarError, WhitneyError
from .simplicial import barycentric_subdivision, validate_map


def _load_fn(path: Optional[str], k):
    if path is None:
        return cal.constant(k, 1)
    return fileio.function_from_dict(fileio.load_json(path), k)


def _check_targets(*paths: Optional[str]) -> None:
    """Fail before the first write, so that a command writes all of its files or none.

    Each target must not be a directory and its parent directory must
    exist; the error reads as the failed write itself would.
    """
    for path in filter(None, paths):
        if Path(path).is_dir():
            code = errno.EISDIR
        elif not Path(path).parent.is_dir():
            code = errno.ENOENT
        else:
            continue
        raise InputError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(fileio.dump_json(report, None))
    else:
        for key, value in sorted(report.items()):
            print(f"{key}: {value}")


def cmd_validate(args) -> int:
    if bool(args.domain) != bool(args.codomain):
        raise InputError("--domain and --codomain must be given together")
    context_complex = fileio.load_complex(args.complex) if args.complex else None
    if args.domain:
        domain, codomain = fileio.load_complex(args.domain), fileio.load_complex(args.codomain)
    failures = 0
    for path in args.files:
        try:
            data = fileio.load_json(path)
            kind = _detect_kind(data)
            if kind == "complex":
                fileio.complex_from_dict(data)
            elif kind == "map":
                vm = fileio.vertex_map_from_dict(data)
                if args.domain:
                    validate_map(domain, codomain, vm)
            elif kind == "function":
                if context_complex is None:
                    raise InputError("function file needs --complex for validation")
                fileio.function_from_dict(data, context_complex)
            elif kind == "chain":
                fileio.chain_from_dict(data, context_complex)
            elif kind == "basis":
                fileio.basis_from_dict(data)
            elif kind == "affine_map":
                if context_complex is None:
                    raise InputError("affine map file needs --complex for validation")
                fileio.affine_map_from_dict(data, context_complex)
            else:
                raise InputError(f"{path}: unrecognized file type")
            print(f"ok: {path} ({kind})")
        except WhitneyError as e:
            failures += 1
            print(json.dumps({"file": str(path), "error": str(e)}), file=sys.stderr)
    return 1 if failures else 0


def _detect_kind(data: dict) -> str:
    if "maximal_simplices" in data:
        return "complex"
    if "vertex_map" in data:
        return "map"
    if "ring" in data:
        return "function"
    if "vectors" in data:
        return "basis"
    if "images" in data:
        return "affine_map"
    if "simplices" in data and "dim" in data:
        return "chain"
    return "unknown"


def cmd_chi(args) -> int:
    k = fileio.load_complex(args.complex)
    a = _load_fn(args.fn, k)
    print(cal.chi(a))
    return 0


def cmd_dual(args) -> int:
    k = fileio.load_complex(args.complex)
    a = _load_fn(args.fn, k)
    fileio.dump_json(fileio.function_to_dict(cal.dual(a)), args.out)
    return 0


def _load_simplicial_map(args):
    dom = fileio.load_complex(args.domain)
    cod = fileio.load_complex(args.codomain)
    vm = fileio.vertex_map_from_dict(fileio.load_json(args.map))
    return validate_map(dom, cod, vm)


def cmd_push(args) -> int:
    f = _load_simplicial_map(args)
    a = _load_fn(args.fn, f.domain)
    fileio.dump_json(fileio.function_to_dict(cal.pushforward(f, a)), args.out)
    return 0


def cmd_pull(args) -> int:
    f = _load_simplicial_map(args)
    b = _load_fn(args.fn, f.codomain)
    fileio.dump_json(fileio.function_to_dict(cal.pullback(f, b)), args.out)
    return 0


def cmd_euler_check(args) -> int:
    k = fileio.load_complex(args.complex)
    offenders = cal.euler_offenders(_load_fn(args.fn, k))
    _emit({"euler": not offenders, "offenders": [list(s) for s in offenders]}, args.format)
    return 0


def cmd_subdivide(args) -> int:
    k = fileio.load_complex(args.complex)
    sub = barycentric_subdivision(k)
    _check_targets(args.out, args.manifest)
    fileio.dump_json(fileio.complex_to_dict(sub.complex), args.out)
    if args.manifest:
        fileio.dump_json(fileio.subdivision_manifest(sub), args.manifest)
    return 0


def cmd_stiefel(args) -> int:
    k = fileio.load_complex(args.complex)
    sub = barycentric_subdivision(k)
    if args.fn is None:
        c = sw.stiefel_chain(sub, args.dim)
    else:
        a = _load_fn(args.fn, k)
        c = sw.sw_representative(sub, a, args.dim)
    provenance = {"construction": "stiefel", "complex": Path(args.complex).name, "i": args.dim}
    fileio.dump_json(fileio.chain_to_dict(c, provenance), args.out)
    return 0


def cmd_homology(args) -> int:
    k = fileio.load_complex(args.complex)
    summary = hom.betti_mod2(k)
    _emit(
        {
            "boundary_ranks": list(summary.ranks),
            "betti_mod2": list(summary.betti),
            "euler_characteristic": sum(
                (-1) ** d * b for d, b in enumerate(summary.betti)
            ),
        },
        args.format,
    )
    return 0


def cmd_bounds(args) -> int:
    k = fileio.load_complex(args.complex)
    c = fileio.chain_from_dict(fileio.load_json(args.chain), k)
    bounds, witness = hom.is_boundary(k, c)
    if bounds:
        _check_targets(args.witness)
    _emit({"bounds": bounds}, args.format)
    if bounds and args.witness:
        fileio.dump_json(fileio.chain_to_dict(witness), args.witness)
    return 0


def cmd_polar(args) -> int:
    k = fileio.load_complex(args.complex)
    i = args.dim
    a = _load_fn(args.fn, k)
    if args.moment:
        sub = barycentric_subdivision(k)
        c = polar.moment_chain(sub, a, i)
        construction = "moment"
    elif args.random_plane:
        f, c = polar.sample_generic_subspace(a, i + 1, args.seed)
        construction = "projection"
    else:
        if args.map:
            f = fileio.affine_map_from_dict(fileio.load_json(args.map), k)
            construction = "map"
        else:
            basis = fileio.basis_from_dict(fileio.load_json(args.project))
            f = polar.projection_map(k, basis)
            construction = "projection"
        if f.target_dim != i + 1:
            raise PolarError(f"target dimension {f.target_dim} does not match i+1={i + 1}")
        c = polar.polar_chain(f, a)
    # after the chain, so a degenerate map or an out-of-range --dim (exit 6)
    # wins; on the function as given on --complex: duality commutes with
    # subdivision, so for --moment this decides the subdivided function too
    if not cal.is_euler_function(a):
        raise NotEulerError("singularity chain requires an Euler function")
    provenance = {"construction": construction, "complex": Path(args.complex).name, "i": i}
    if args.random_plane:
        provenance["seed"] = args.seed
    _check_targets(args.out, args.report)
    if args.report:
        if args.moment:
            f, a = polar.moment_map(sub, i), cal.subdivide_function(sub, a)
        census = polar.polar_census(f, a)
    fileio.dump_json(fileio.chain_to_dict(c, provenance), args.out)
    if args.report:
        fileio.dump_half_links(census, args.report)
    return 0


def cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, args.seed, args.trials, args.complexes)
    payload = {**dataclasses.asdict(report), "ok": report.ok}
    if args.format == "json":
        sys.stdout.write(fileio.dump_json(payload, None))
    else:
        for p in report.properties:
            status = "ok" if p.failures == 0 else "FAIL"
            print(f"{status}: {p.name} ({p.trials} trials, {p.failures} failures)")
        print(f"suite {report.suite}: {'ok' if report.ok else 'FAILED'} (seed {report.seed})")
    if not report.ok:
        first = next(p for p in report.properties if p.failures)
        out = Path(f"counterexample_{report.suite}_{report.seed}.json")
        try:
            fileio.dump_json(first.counterexample, out)
            print(f"counterexample written to {out}", file=sys.stderr)
        except InputError as e:  # the suite's verdict stands
            print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitney",
        description="Stiefel-Whitney homology classes of triangulated mod 2 Euler spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        if name in ("euler-check", "homology", "bounds", "verify"):
            # only the subcommands that print a report read --format
            p.add_argument("--format", choices=["json", "text"], default="text")
        return p

    p = add("validate", cmd_validate, help="parse and validate artifact files")
    p.add_argument("files", nargs="+")
    p.add_argument("--complex", help="context complex for functions/chains")
    p.add_argument("--domain")
    p.add_argument("--codomain")

    p = add("chi", cmd_chi, help="Euler integral of a constructible function")
    p.add_argument("--complex", required=True)
    p.add_argument("--fn")

    p = add("dual", cmd_dual, help="duality operator")
    p.add_argument("--complex", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--out", required=True)

    for name, func in (("push", cmd_push), ("pull", cmd_pull)):
        p = add(name, func, help=f"{name} a constructible function along a map")
        p.add_argument("--domain", required=True)
        p.add_argument("--codomain", required=True)
        p.add_argument("--map", required=True)
        p.add_argument("--fn", required=True)
        p.add_argument("--out", required=True)

    p = add("euler-check", cmd_euler_check, help="Euler space / Euler function test")
    p.add_argument("--complex", required=True)
    p.add_argument("--fn")

    p = add("subdivide", cmd_subdivide, help="barycentric subdivision")
    p.add_argument("--complex", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")

    p = add("stiefel", cmd_stiefel, help="Stiefel chain / class representative")
    p.add_argument("--complex", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--fn")
    p.add_argument("--out", required=True)

    p = add("homology", cmd_homology, help="mod 2 Betti numbers")
    p.add_argument("--complex", required=True)

    p = add("bounds", cmd_bounds, help="decide whether a cycle bounds")
    p.add_argument("--complex", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--witness")

    p = add("polar", cmd_polar, help="Euler-singularity (polar) chain")
    p.add_argument("--complex", required=True)
    p.add_argument("--dim", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--moment", action="store_true")
    group.add_argument("--map")
    group.add_argument("--project")
    group.add_argument("--random-plane", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fn")
    p.add_argument("--out", required=True)
    p.add_argument("--report")

    p = add("verify", cmd_verify, help="run a seeded property suite")
    p.add_argument("--suite", required=True, choices=["calculus", "stiefel", "polar", "axioms"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=nonnegative_int, default=100)
    p.add_argument("--complexes", help="directory of complex files (default: bundled corpus)")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WhitneyError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
