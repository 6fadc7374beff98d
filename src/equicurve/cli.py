"""Command-line interface.

Subcommands: aut, delta, embed, preset, planar-normalize, verify-extension,
plane-extend, cor25.  All arithmetic is exact; every construction is
re-verified and the full certificate is part of the report (--certificate
prints the clause-by-clause transcript, --format json the same content as
one JSON object).

Exit status: 0 all certificates pass, 1 a certificate failed, 2 malformed
input, 3 a construction precondition failed.
"""
from __future__ import annotations

import argparse
import sys

from . import cyclotomic
from .certificates import Certificate
from .embed3 import build_embedding, preset_family
from .equivariant import (
    selfmap_with_fixed_locus,
    verify_fixed_locus,
    verify_locus_invariance,
    verify_selfmap_equivariance,
)
from .errors import (
    ConductorCapError,
    ConstructionError,
    EquicurveError,
    ParseError,
)
from .parsing import (
    parse_constants,
    parse_generators,
    parse_matrix2,
    parse_pairs,
    parse_points,
    parse_poly3_triple,
    parse_ratfun,
    parse_ratfun_triple,
    parse_upoly,
)
from .planar import PlanarEmbedding, normalize_planar, verify_extension
from .plane import (
    CurveAut,
    Extendable,
    Obstructed,
    cube_symmetric_family,
    decide_extendability,
    verify_cube_symmetry,
)
from .projline import (
    GroupKind,
    Moebius,
    P1Point,
    aut_of_lambda,
    group_closure,
    sort_points,
)

# the json module, imported by the first JSON report so that a text report,
# the default, never loads it; a module-level name, since bench/tracer.py
# replaces it to time JSON rendering
json = None


def _points(text: str) -> list[P1Point]:
    return [P1Point(a, b) for a, b in parse_points(text)]


def _group_for(args, pts: list[P1Point]):
    if getattr(args, "gens", None):
        return group_closure([Moebius(*m) for m in parse_generators(args.gens)],
                             cap=args.group_cap)
    if len(pts) >= 3:
        return aut_of_lambda(pts, cap=args.group_cap)
    return group_closure([], cap=args.group_cap)


def _cmd_aut(args) -> dict:
    pts = _points(args.lam)
    h = aut_of_lambda(pts, cap=args.group_cap)
    cert = Certificate("stabilizer checks")
    point_set = set(pts)
    for g in h.elements:
        cert.check(f"{g} preserves the set",
                   all(g.apply(p) in point_set for p in pts))
    return {
        "command": "aut",
        "lambda": [str(p) for p in sort_points(pts)],
        "kind": str(h.kind),
        "order": h.order,
        "generators": [str(g) for g in h.generators],
        "elements": [str(g) for g in h.elements],
        "certificates": [cert.to_json()],
    }


def _cmd_delta(args) -> dict:
    pts = _points(args.lam)
    h = _group_for(args, pts)
    sm, orbits, _ = selfmap_with_fixed_locus(h, pts)
    certs = [
        verify_selfmap_equivariance(sm, h),
        verify_fixed_locus(sm, pts),
        verify_locus_invariance(h, pts),
    ]
    return {
        "command": "delta",
        "lambda": [str(p) for p in sort_points(pts)],
        "group": str(h.kind),
        "orbits": [
            {
                "points": [str(p) for p in o.points],
                "orbit_polynomial": str(o.p),
                "invariant_power": o.d,
                "pair": [str(o.pair.f1), str(o.pair.f2)],
            }
            for o in orbits
        ],
        "map": [str(sm.reduced1), str(sm.reduced2)],
        "certificates": [c.to_json() for c in certs],
    }


def _cmd_embed(args) -> dict:
    pts = _points(args.lam)
    h = _group_for(args, pts)
    emb, cert = build_embedding(h, points=pts)
    return {
        "command": "embed",
        "lambda": [str(p) for p in sort_points(pts)],
        "group": str(h.kind),
        "removed_form": str(emb.lambda_poly),
        **_embedding_fields(emb),
        "certificates": [cert.to_json()],
    }


def _embedding_fields(emb) -> dict:
    """An A^3 embedding's coordinates and its generators' 3x3 matrices."""
    return {
        "components": {name: f"({num}) / ({emb.den})"
                       for name, num in zip("xyz", emb.nums)},
        "generator_actions": [
            {"generator": str(g), "matrix": _mat3_str(m)}
            for g, m in emb.reps
        ],
    }


def _mat3_str(m) -> str:
    rows = ["[" + ", ".join(str(m[3 * i + j]) for j in range(3)) + "]"
            for i in range(3)]
    return "[" + ", ".join(rows) + "]"


def _cmd_preset(args) -> dict:
    if args.kind == "tetrahedral" and args.n is not None:
        raise ParseError("--n applies to the cyclic and dihedral presets only")
    if args.kind != "tetrahedral" and args.n is None:
        raise ParseError(f"the {args.kind} preset needs --n")
    order = GroupKind(args.kind.capitalize(), args.n).order
    if order > args.group_cap:
        raise ParseError(
            f"--n must be at most --group-cap ({args.group_cap}), got {args.n}"
            if args.kind == "cyclic" else
            f"the {args.kind} group has order {order}, more than "
            f"--group-cap ({args.group_cap})")
    fam = preset_family(args.kind, args.n, parse_pairs(args.pairs),
                        require_squarefree=not args.allow_multiplicity)
    return {
        "command": "preset",
        "kind": fam.kind,
        "n": fam.n,
        "parameters": [f"({a}, {b})" for a, b in fam.params],
        "group": str(fam.h.kind),
        "removed_form": str(fam.embedding.lambda_poly),
        "orbit_forms": [str(o.p) for o in fam.orbits],
        **_embedding_fields(fam.embedding),
        "certificates": [fam.certificate.to_json()],
    }


def _cmd_planar_normalize(args) -> dict:
    emb = PlanarEmbedding(parse_upoly(args.p), parse_ratfun(args.q),
                          parse_ratfun(args.r))
    chain, cert = normalize_planar(emb, degree_cap=args.cap)
    return {
        "command": "planar-normalize",
        "P": str(emb.P),
        "Q": str(emb.Q),
        "R": str(emb.R),
        "chain": [
            {
                "label": step.label,
                "forward": [str(f) for f in step.forward],
                "inverse": [str(f) for f in step.inverse],
            }
            for step in chain
        ],
        "certificates": [cert.to_json()],
    }


def _cmd_verify_extension(args) -> dict:
    forward = parse_poly3_triple(args.f)
    tau = parse_ratfun_triple(args.tau)
    phi = Moebius(*parse_matrix2(args.phi))
    cert = verify_extension(forward, tau, phi)
    return {
        "command": "verify-extension",
        "F": [str(f) for f in forward],
        "tau": [str(t) for t in tau],
        "phi": str(phi),
        "certificates": [cert.to_json()],
    }


def _cmd_plane_extend(args) -> dict:
    pts = _points(args.lam)
    g = Moebius(*parse_matrix2(args.g))
    aut = CurveAut(pts, g)
    verdict = decide_extendability(aut)
    out = {
        "command": "plane-extend",
        "lambda": [str(p) for p in sort_points(pts)],
        "g": str(g),
        "order": str(aut.order),
        "fixed_points_on_curve": aut.fixed_on_curve,
    }
    if isinstance(verdict, Extendable):
        out["verdict"] = "Extendable"
        out["embedding"] = [str(c) for c in verdict.embedding]
        out["extension"] = verdict.extension_desc
        out["certificates"] = [verdict.certificate.to_json()]
    elif isinstance(verdict, Obstructed):
        out["verdict"] = "Obstructed"
        out["reason"] = verdict.reason
        out["fixed_form"] = str(verdict.fixed_form)
        out["certificates"] = []
    else:
        out["verdict"] = "OpenCase"
        out["reason"] = verdict.reason
        out["certificates"] = []
    return out


def _cmd_cor25(args) -> dict:
    a_vals = parse_constants(args.a)
    pts = cube_symmetric_family(args.k, a_vals)
    cert = verify_cube_symmetry(pts)
    return {
        "command": "cor25",
        "k": args.k,
        "a": [str(v) for v in a_vals],
        "points": [str(p) for p in pts],
        "certificates": [cert.to_json()],
    }


_HANDLERS = {
    "aut": _cmd_aut,
    "delta": _cmd_delta,
    "embed": _cmd_embed,
    "preset": _cmd_preset,
    "planar-normalize": _cmd_planar_normalize,
    "verify-extension": _cmd_verify_extension,
    "plane-extend": _cmd_plane_extend,
    "cor25": _cmd_cor25,
}


class _UsageError(Exception):
    """An argparse error, raised so that run() reports it in one line."""


class _Parser(argparse.ArgumentParser):
    # subparsers are built from the parent's class, so they raise too
    def error(self, message):
        raise _UsageError(message)


def _usage_line(message: str, argv) -> str:
    """argparse's message as one line; a flag that did not get its value
    because the value starts with '-' gets the ``--flag=value`` spelling."""
    line = "parse error: " + " ".join(message.split())
    missing = ": expected one argument"
    if message.startswith("argument ") and message.endswith(missing):
        flag = message[len("argument "):-len(missing)]
        if flag in argv[:-1]:
            value = argv[argv.index(flag) + 1]
            if value.startswith("-") and not value.startswith("--"):
                line += f"; write {flag}={value} for a value that starts with '-'"
    return line


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="equicurve",
        description="Exact equivariant embeddings of punctured projective "
                    "lines, with machine-checked certificates.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--certificate", action="store_true",
                       help="print the full verification transcript")
        p.add_argument("--conductor-cap", default=256,
                       help="maximal cyclotomic field degree")

    def grouped(p):
        common(p)
        p.add_argument("--group-cap", default=120,
                       help="maximal order of the group built")

    p = sub.add_parser("aut", help="automorphism group of P^1 preserving a set")
    p.add_argument("--lambda", dest="lam", required=True,
                   help='points, e.g. "[0:1],[1:1],[1:0]"')
    grouped(p)

    p = sub.add_parser("delta",
                       help="equivariant self-map with prescribed fixed locus")
    p.add_argument("--lambda", dest="lam", required=True,
                   help='invariant point set, e.g. "[1:1],[-1:1]"')
    p.add_argument("--gens", help='group generators "[[a,b],[c,d]];..." '
                                  "(default: full stabilizer)")
    grouped(p)

    p = sub.add_parser("embed", help="equivariant closed embedding into A^3")
    p.add_argument("--lambda", dest="lam", required=True,
                   help='removed point set, e.g. "[1:1],[-1:1]"')
    p.add_argument("--gens", help="group generators (default: full stabilizer "
                                  "when at least 3 points, else trivial)")
    grouped(p)

    p = sub.add_parser("preset", help="closed-form embedding families")
    p.add_argument("--kind", required=True,
                   choices=("cyclic", "dihedral", "tetrahedral"))
    p.add_argument("--n", help="rotation order (cyclic/dihedral)")
    p.add_argument("--pairs", required=True,
                   help='orbit parameters "(a, b);(a, b);..."')
    p.add_argument("--allow-multiplicity", action="store_true",
                   help="accept orbit forms with multiple roots")
    grouped(p)

    p = sub.add_parser("planar-normalize",
                       help="normalize a planar embedding of a curve in A^3")
    p.add_argument("--P", dest="p", required=True, help="squarefree polynomial")
    p.add_argument("--Q", dest="q", required=True, help="rational function")
    p.add_argument("--R", dest="r", required=True, help="rational function")
    p.add_argument("--cap", default=12, help="witness degree cap")
    common(p)

    p = sub.add_parser("verify-extension",
                       help="check F o tau o phi = tau exactly")
    p.add_argument("--F", dest="f", required=True,
                   help='automorphism of A^3, "p1; p2; p3" in X, Y, Z')
    p.add_argument("--tau", required=True,
                   help='embedding, "q1; q2; q3" rational in x')
    p.add_argument("--phi", required=True, help="Moebius matrix [[a,b],[c,d]]")
    common(p)

    p = sub.add_parser("plane-extend",
                       help="decide plane extendability of an automorphism")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="removed point set preserved by the map")
    p.add_argument("--g", required=True, help="Moebius matrix [[a,b],[c,d]]")
    common(p)

    p = sub.add_parser("cor25", help="threefold-symmetric point families")
    p.add_argument("--k", required=True)
    p.add_argument("--a", required=True, help='values "1, 2, 5/2, ..."')
    common(p)
    return top


def _render_text(data: dict, show_cert: bool) -> str:
    lines = []
    for key, val in data.items():
        if key == "certificates":
            continue
        if isinstance(val, dict):
            lines.append(f"{key}:")
            for k2, v2 in val.items():
                lines.append(f"  {k2}: {v2}")
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{key}:")
            for item in val:
                parts = []
                for k2, v2 in item.items():
                    parts.append(f"{k2}={v2}")
                lines.append("  " + "; ".join(parts))
        elif isinstance(val, list):
            lines.append(f"{key}: " + ", ".join(str(v) for v in val))
        else:
            lines.append(f"{key}: {val}")
    certs = data.get("certificates", [])
    total = sum(len(c["clauses"]) for c in certs)
    failed = sum(1 for c in certs for cl in c["clauses"]
                 if cl["status"] != "PASS")
    if certs:
        lines.append(f"certificates: {total} clauses, "
                     + ("all PASS" if not failed else f"{failed} FAIL"))
        if show_cert or failed:
            for c in certs:
                lines.append(f"certificate: {c['title']}")
                for cl in c["clauses"]:
                    tail = (f"  [{cl['witness']}]"
                            if cl["witness"] and cl["status"] != "PASS" else "")
                    lines.append(f"  {cl['status']}  {cl['claim']}{tail}")
    return "\n".join(lines)


def _all_pass(data: dict) -> bool:
    return all(cl["status"] == "PASS"
               for c in data.get("certificates", []) for cl in c["clauses"])


def run(argv) -> tuple[int, str]:
    """Run one job; returns (exit status, report text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        return 2, _usage_line(str(e), argv)
    # integer flags are checked here, so a bad value gets one line, not
    # argparse's usage block
    for flag in ("conductor_cap", "group_cap", "cap", "k", "n"):
        value = getattr(args, flag, None)
        if value is None:
            continue
        name = "--" + flag.replace("_", "-")
        try:
            value = int(value)
        except ValueError:
            return 2, f"parse error: {name} must be an integer, got {value!r}"
        if value < 1:
            return 2, f"parse error: {name} must be positive, got {value}"
        setattr(args, flag, value)
    # the cap is process-global; put the caller's back after the job
    previous_cap = cyclotomic.set_conductor_cap(args.conductor_cap)
    try:
        return _report(args)
    finally:
        cyclotomic.set_conductor_cap(previous_cap)


def _report(args) -> tuple[int, str]:
    global json
    try:
        data = _HANDLERS[args.command](args)
    except ParseError as e:
        return 2, f"parse error: {e}"
    except ConductorCapError as e:
        # the library names its Python setter; a shell user has the flag
        message = str(e).replace("set_conductor_cap()", "--conductor-cap")
        return 3, f"construction error: {message}"
    except (ConstructionError, ZeroDivisionError) as e:
        return 3, f"construction error: {e}"
    except EquicurveError as e:
        return 3, f"error: {e}"
    ok = _all_pass(data)
    data["exit"] = 0 if ok else 1
    if args.format == "json":
        if json is None:
            import json
        text = json.dumps(data, indent=2, sort_keys=True)
    else:
        text = _render_text(data, args.certificate)
    return data["exit"], text


def main(argv=None) -> int:
    code, text = run(argv if argv is not None else sys.argv[1:])
    print(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
