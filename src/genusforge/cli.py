"""Command-line frontend; every invocation prints one JSON document.

Exit codes: 0 ok, 1 validation error, 2 enumeration or precision limit.

Each command group imports only the layer packages it calls, inside its
handler, and a layer package loads a submodule only when one of its names
is first read: a fresh process compiles and runs every module it imports,
and for a short command that start-up is most of its time.  `lattice
builtin`, `lattice disc-form`, `lattice genus-compare` on lattices with
equal discriminant forms, `qs validate`, `qs milgram`, `qs decompose` and
`codes check-framed` run in integers and never import numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .errors import GenusForgeError, InternalError, LimitError, ValidationError

_EXIT = {"ok": 0, "validation-error": 1, "limit-exceeded": 2}


@dataclass(frozen=True)
class CommandResult:
    status: str
    payload: dict
    pretty: bool = False

    @property
    def exit_code(self) -> int:
        return _EXIT[self.status]


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ValidationError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: malformed JSON at line {e.lineno}, "
                              f"column {e.colno}: {e.msg}") from e


def _load_lattice(path: str):
    from . import lattice
    return lattice.lattice_from_json(_load_json(path))


def _load_space(path: str):
    from . import quadspace
    return quadspace.space_from_json(_load_json(path))


def _load_modular_data(path: str):
    from . import modcat
    doc = _load_json(path)
    if isinstance(doc, dict) and "modular_data" in doc:
        doc = doc["modular_data"]
    return modcat.modular_data_from_json(doc)


def _load_code(path: str):
    from . import codes
    return codes.code_from_json(_load_json(path))


def _subgroup_json(sub) -> dict:
    return {"order": sub.order,
            "generators": [list(g) for g in sub.generators]}


def _caps(args, default: int) -> int:
    return args.limit if args.limit is not None else default


def _cmd_lattice(args) -> dict:
    from . import lattice
    if args.cmd == "disc-form":
        from .quadspace import space_to_json
        return space_to_json(lattice.discriminant_form(_load_lattice(args.file)))
    if args.cmd == "genus-compare":
        a, b = _load_lattice(args.file_a), _load_lattice(args.file_b)
        return {"same_genus": lattice.same_genus(a, b)}
    if args.cmd == "overlattices":
        found = lattice.overlattices(_load_lattice(args.file),
                                     cap=_caps(args, 4096))
        return {"count": len(found),
                "overlattices": [{"subgroup": _subgroup_json(sub),
                                  "lattice": lattice.lattice_to_json(m)}
                                 for sub, m in found]}
    if args.cmd == "theta":
        coeffs = lattice.theta_coefficients(_load_lattice(args.file),
                                            args.terms, cap=_caps(args, 64))
        return {"coefficients": list(coeffs)}
    if args.cmd == "roots":
        rep = lattice.root_system(_load_lattice(args.file))
        return {"components": [[kind, n] for kind, n in rep.components],
                "root_count": rep.root_count}
    if args.cmd == "builtin":
        return lattice.lattice_to_json(lattice.builtin_lattice(args.name))
    raise InternalError(f"unhandled lattice command {args.cmd}")


def _cmd_qs(args) -> dict:
    from . import quadspace
    if args.cmd == "validate":
        s = _load_space(args.file)
        return {"valid": True, "order": s.order, "orders": list(s.orders)}
    if args.cmd == "milgram":
        s = _load_space(args.file)
        return {"signature_mod8": quadspace.signature_mod8(s)}
    if args.cmd == "isotropic":
        subs = quadspace.isotropic_subgroups(_load_space(args.file),
                                             cap=_caps(args, 4096))
        return {"count": len(subs),
                "subgroups": [_subgroup_json(c) for c in subs]}
    if args.cmd == "quotient":
        s = _load_space(args.file)
        try:
            gens = json.loads(args.subgroup)
        except json.JSONDecodeError as e:
            raise ValidationError(f"--subgroup: malformed JSON: {e.msg}") from e
        if (not isinstance(gens, list)
                or not all(isinstance(g, list)
                           and all(isinstance(x, int) and not isinstance(x, bool) for x in g)
                           for g in gens)):
            raise ValidationError(
                "--subgroup must be a JSON list of integer coordinate vectors")
        sub = quadspace.subgroup_from_generators(s, [tuple(g) for g in gens])
        return quadspace.space_to_json(quadspace.quotient_space(s, sub))
    if args.cmd == "isometric":
        s1, s2 = _load_space(args.file_a), _load_space(args.file_b)
        found = quadspace.is_isometric(s1, s2, cap=_caps(args, 3000))
        return {"isometric": found is not None}
    if args.cmd == "decompose":
        parts = quadspace.primary_decomposition(_load_space(args.file))
        return {"primary": {str(p): quadspace.space_to_json(sp)
                            for p, sp in sorted(parts.items())}}
    raise InternalError(f"unhandled qs command {args.cmd}")


def _cmd_modcat(args) -> dict:
    from . import modcat, quadspace
    if args.cmd == "from-qs":
        m = modcat.from_quadratic_space(_load_space(args.file))
        if args.check:
            report = modcat.verify_relations(m)
            if not report.ok:
                raise ValidationError(
                    f"modular relations fail ({report.failed}): {report.detail}")
        return modcat.modular_data_to_json(m)
    if args.cmd == "verlinde":
        table = modcat.verlinde_fusion(_load_modular_data(args.file))
        return {"n": table.n,
                "table": [[list(table[i, j]) for j in range(table.n)]
                          for i in range(table.n)]}
    if args.cmd == "genus-dim":
        m = _load_modular_data(args.file)
        dim = modcat.genus_dimension(m, args.g, tuple(args.punctures))
        return {"dimension": dim}
    if args.cmd == "milgram":
        m = _load_modular_data(args.file)
        return {"compatible": modcat.voa_milgram_check(m, args.c)}
    if args.cmd == "ising":
        return modcat.modular_data_to_json(modcat.ising_data())
    if args.cmd == "extensions":
        reports = modcat.simple_current_extensions(_load_space(args.file),
                                                   cap=_caps(args, 4096))
        return {"count": len(reports),
                "extensions": [{"subgroup": _subgroup_json(r.subgroup),
                                "quotient": quadspace.space_to_json(r.quotient)}
                               for r in reports]}
    raise InternalError(f"unhandled modcat command {args.cmd}")


def _cmd_codes(args) -> dict:
    from . import codes
    if args.cmd == "sigma":
        value = codes.sigma_k(args.length, args.dim,
                              cap=_caps(args, codes.DEFAULT_LENGTH_CAP))
        return {"sigma": value}
    if args.cmd == "mass":
        mass = codes.relative_mass_rhs(args.length,
                                       cap=_caps(args, codes.DEFAULT_LENGTH_CAP))
        return {"mass": f"{mass.numerator}/{mass.denominator}"}
    if args.cmd == "lexicode":
        return codes.code_to_json(codes.lexicode(args.length, args.distance))
    if args.cmd == "check-framed":
        pair = codes.FramedPair(_load_code(args.file_c), _load_code(args.file_d))
        report = codes.check_framed_conditions(pair, self_dual=args.self_dual)
        return {"conditions": report.as_dict(), "ok": report.ok}
    raise InternalError(f"unhandled codes command {args.cmd}")


_GROUPS = {
    "lattice": _cmd_lattice,
    "qs": _cmd_qs,
    "modcat": _cmd_modcat,
    "codes": _cmd_codes,
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="genusforge",
        description="Exact computations with lattice genera, finite quadratic "
                    "spaces, abelian modular data, and binary codes.")
    top.add_argument("--limit", type=int, default=None,
                     help="override enumeration caps")
    top.add_argument("--pretty", action="store_true",
                     help="indent the JSON output")
    groups = top.add_subparsers(dest="group", required=True)

    g = groups.add_parser("lattice").add_subparsers(dest="cmd", required=True)
    g.add_parser("disc-form").add_argument("file")
    p = g.add_parser("genus-compare")
    p.add_argument("file_a")
    p.add_argument("file_b")
    g.add_parser("overlattices").add_argument("file")
    p = g.add_parser("theta")
    p.add_argument("file")
    p.add_argument("--terms", type=int, required=True)
    g.add_parser("roots").add_argument("file")
    g.add_parser("builtin").add_argument("name")

    g = groups.add_parser("qs").add_subparsers(dest="cmd", required=True)
    g.add_parser("validate").add_argument("file")
    g.add_parser("milgram").add_argument("file")
    g.add_parser("isotropic").add_argument("file")
    p = g.add_parser("quotient")
    p.add_argument("file")
    p.add_argument("--subgroup", required=True,
                   help="JSON list of generator coordinate vectors")
    p = g.add_parser("isometric")
    p.add_argument("file_a")
    p.add_argument("file_b")
    g.add_parser("decompose").add_argument("file")

    g = groups.add_parser("modcat").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("from-qs")
    p.add_argument("file")
    p.add_argument("--check", action="store_true")
    g.add_parser("verlinde").add_argument("file")
    p = g.add_parser("genus-dim")
    p.add_argument("file")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--punctures", type=int, nargs="*", default=[])
    p = g.add_parser("milgram")
    p.add_argument("file")
    p.add_argument("--c", required=True)
    g.add_parser("ising")
    g.add_parser("extensions").add_argument("file")

    g = groups.add_parser("codes").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("sigma")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p = g.add_parser("mass")
    p.add_argument("--length", type=int, required=True)
    p = g.add_parser("lexicode")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--distance", type=int, required=True)
    p = g.add_parser("check-framed")
    p.add_argument("file_c")
    p.add_argument("file_d")
    p.add_argument("--self-dual", action="store_true")
    return top


def run(argv) -> CommandResult:
    parser = _build_parser()
    args = argparse.Namespace()
    try:
        parser.parse_args(argv, args)
    except SystemExit as e:
        # argparse already printed its message; translate the exit. A
        # top-level --pretty read before the rejected argument still holds.
        if e.code == 0:
            return CommandResult("ok", {})
        return CommandResult("validation-error",
                             {"error": "unknown or incomplete command"},
                             getattr(args, "pretty", False))
    try:
        return CommandResult("ok", _GROUPS[args.group](args), args.pretty)
    except ValidationError as e:
        return CommandResult("validation-error", {"error": str(e)}, args.pretty)
    except (LimitError, InternalError) as e:
        return CommandResult("limit-exceeded", {"error": str(e)}, args.pretty)
    except GenusForgeError as e:
        return CommandResult("validation-error", {"error": str(e)}, args.pretty)


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.status == "ok" and not result.payload:
        return 0  # argparse already printed help
    doc = dict(result.payload)
    if result.status != "ok":
        doc["status"] = result.status
    print(json.dumps(doc, indent=2 if result.pretty else None))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
