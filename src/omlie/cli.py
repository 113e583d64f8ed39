"""Command line surface: algebra files in, verification reports out.

Exit codes: 0 success / verdict as expected, 1 verdict violation (axiom check
failed, sample verdict mismatch, or a family unexpectedly admissible),
2 input error, 3 UNKNOWN verdict.

Report documents are JSON on stdout and are byte-identical across reruns of
the same command on the same input, except for the timing_ms field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .admissible import (
    FULL,
    UNKNOWN,
    decide_admissible,
)
from .algebra import (
    OmegaLieAlgebra,
    OmegaLsaAlgebra,
    check_omega_lie,
    check_omega_lsa,
    commutator_algebra,
    derived_subalgebra,
    specialize,
)
from .catalog import ALTERNATE_PARAMS, instantiate, list_entries
from .errors import OmegaAlgebraError
from .exprs import ExprError, format_combination
from .fields import QALPHA, QQ, track_denominators
from .fileformat import emit_algebra_text, parse_algebra_text

SCHEMA_VERSION = "1"


def _document(command, input_info, verdict, payload, started):
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "omlie", "version": __version__},
        "command": list(command),
        "input": input_info,
        "verdict": verdict,
        "report": payload,
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }


def _read_input(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    info = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    return data.decode("utf-8"), info


def _emit(doc, fmt, render_text):
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in render_text(doc):
            print(line)


def _failure_payload(algebra, report):
    out = []
    names = algebra.basis_names
    field = algebra.field
    for law, key, residual in report.failures:
        entry = {"law": law, "at": [names[i] for i in key]}
        if isinstance(residual, tuple):
            entry["residual"] = format_combination(residual, names, field)
        else:
            entry["residual"] = field.format(residual)
        out.append(entry)
    return out


def _witness_payload(L, witness):
    if witness is None:
        return None
    names = L.basis_names
    products = {}
    for i in range(L.dim):
        for j in range(L.dim):
            vec = witness.pair(i, j)
            if any(vec):
                products[f"{names[i]},{names[j]}"] = format_combination(vec, names, L.field)
    return {"products": products}


def _params_payload(params):
    return {k: str(v) for k, v in sorted(params.items())}


def _cmd_check(args, argv):
    started = time.perf_counter()
    text, info = _read_input(args.file)
    algebra = parse_algebra_text(text, check=False)
    report = check_omega_lie(algebra) if algebra.kind == "lie" else check_omega_lsa(algebra)
    verdict = "PASS" if report.ok else "FAIL"
    payload = {
        "kind": algebra.kind,
        "dim": algebra.dim,
        "ok": report.ok,
        "failures": _failure_payload(algebra, report),
    }
    doc = _document(argv, info, verdict, payload, started)
    _emit(doc, args.format, lambda d: [
        f"kind: {d['report']['kind']}  dim: {d['report']['dim']}",
        f"axioms: {d['verdict']}",
        *(f"  {f['law']} fails at ({', '.join(f['at'])})" for f in d["report"]["failures"]),
    ])
    return 0 if report.ok else 1


def _cmd_perfect(args, argv):
    started = time.perf_counter()
    text, info = _read_input(args.file)
    algebra = parse_algebra_text(text)
    if not isinstance(algebra, OmegaLieAlgebra):
        raise OmegaAlgebraError("perfectness is defined for kind = lie files")
    _, rk = derived_subalgebra(algebra)
    perfect = rk == algebra.dim
    payload = {"perfect": perfect, "dim": algebra.dim, "derived_dimension": rk}
    doc = _document(argv, info, "true" if perfect else "false", payload, started)
    _emit(doc, args.format, lambda d: [
        f"perfect: {d['verdict']} (derived subalgebra has dimension "
        f"{d['report']['derived_dimension']} of {d['report']['dim']})",
    ])
    return 0


def _cmd_commutator(args, argv):
    text, _info = _read_input(args.file)
    algebra = parse_algebra_text(text)
    if not isinstance(algebra, OmegaLsaAlgebra):
        raise OmegaAlgebraError("the commutator functor expects a kind = lsa file")
    out = emit_algebra_text(commutator_algebra(algebra))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def _parse_samples(samples):
    out = []
    for item in samples or ():
        if "=" not in item:
            raise OmegaAlgebraError(f"--sample expects alpha=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        if key.strip() != "alpha":
            raise OmegaAlgebraError(f"--sample only supports alpha, got {key.strip()!r}")
        try:
            out.append(Fraction(QQ.parse(value.strip())))
        except (ExprError, ZeroDivisionError) as exc:
            raise OmegaAlgebraError(f"bad sample value {value.strip()!r}: {exc}") from None
    return out


def _cmd_admissible(args, argv):
    started = time.perf_counter()
    text, info = _read_input(args.file)
    algebra = parse_algebra_text(text)
    if not isinstance(algebra, OmegaLieAlgebra):
        raise OmegaAlgebraError("the admissibility decider expects a kind = lie file")
    samples = _parse_samples(args.sample)
    if samples and algebra.field is not QALPHA:
        raise OmegaAlgebraError("--sample requires a field = Q(alpha) input")
    with track_denominators() as trail:
        rep = decide_admissible(
            algebra,
            degree_cap=args.degree_cap,
            mode=args.mode,
            witness_search_budget=args.witness_search_budget,
        )
    sample_rows = []
    mismatch = False
    for a0 in samples:
        label = str(a0)
        vanishing = [pol for pol in trail if not pol.evaluate(a0)]
        if vanishing:
            sample_rows.append(
                {"alpha": label, "status": "rejected",
                 "reason": "a denominator encountered in the generic run vanishes here"}
            )
            continue
        try:
            special = specialize(algebra, a0)
        except ZeroDivisionError:
            sample_rows.append(
                {"alpha": label, "status": "rejected", "reason": "coefficient denominator vanishes"}
            )
            continue
        srep = decide_admissible(
            special,
            degree_cap=args.degree_cap,
            mode=args.mode,
            witness_search_budget=args.witness_search_budget,
        )
        ok = srep.verdict == rep.verdict
        mismatch = mismatch or not ok
        sample_rows.append({"alpha": label, "status": "ok", "verdict": srep.verdict, "matches": ok})
    payload = {
        "settings": rep.settings,
        "certificate": rep.certificate,
        "witness": _witness_payload(algebra, rep.witness),
        "annotations": rep.annotations,
        "samples": sample_rows,
    }
    doc = _document(argv, info, rep.verdict, payload, started)
    _emit(doc, args.format, _render_admissible_text)
    if mismatch:
        return 1
    if rep.verdict == UNKNOWN:
        return 3
    return 0


def _render_admissible_text(d):
    lines = [f"verdict: {d['verdict']}  (mode {d['report']['settings']['mode']}, "
             f"degree cap {d['report']['settings']['degree_cap']})"]
    for st in d["report"]["certificate"]:
        desc = ", ".join(f"{k}={v}" for k, v in st.items() if k not in ("stage", "operators"))
        lines.append(f"  {st['stage']}: {desc}")
        for name, val in st.get("operators", {}).items():
            lines.append(f"    l_{name} = {val}")
    if d["report"]["witness"]:
        lines.append("witness products:")
        for key, val in d["report"]["witness"]["products"].items():
            lines.append(f"  {key} = {val}")
    for note in d["report"]["annotations"]:
        lines.append(f"note: {note}")
    for s in d["report"]["samples"]:
        lines.append(f"sample alpha={s['alpha']}: {s.get('verdict', s['status'])}")
    return lines


def _cmd_catalog_list(args, argv):
    started = time.perf_counter()
    entries = list_entries(kind=args.kind)
    payload = {
        "entries": [
            {
                "name": e.name,
                "kind": e.kind,
                "dim": e.dim_rule,
                "summary": e.summary,
                "parameters": [
                    {"name": s.name, "kind": s.kind, "default": s.default, "note": s.note}
                    for s in e.slots
                ],
            }
            for e in entries
        ]
    }
    doc = _document(argv, None, "ok", payload, started)
    _emit(doc, args.format, lambda d: [
        f"{e['name']:<14} {e['kind']:<4} dim {e['dim']:<4} {e['summary']}"
        for e in d["report"]["entries"]
    ])
    return 0


def _parse_params(pairs):
    params = {}
    for item in pairs or ():
        if "=" not in item:
            raise OmegaAlgebraError(f"--param expects NAME=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _cmd_catalog_emit(args, argv):
    field = QALPHA if args.field == "Q(alpha)" else QQ
    algebra = instantiate(args.family, _parse_params(args.param), field)
    out = emit_algebra_text(algebra)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def theorem_targets():
    """The family instances verify-theorem1 decides: every perfect catalog
    entry, generic over Q(alpha) where parametric, plus one non-default
    instance for each of P1 and P2."""
    targets = []
    for entry in list_entries(kind="lie"):
        parametric = any(s.name == "alpha" for s in entry.slots)
        field = QALPHA if parametric else QQ
        targets.append((entry.name, {}, field))
        if entry.name in ALTERNATE_PARAMS:
            targets.append((entry.name, ALTERNATE_PARAMS[entry.name], field))
    return targets


def _cmd_verify_theorem1(args, argv):
    started = time.perf_counter()
    results = []
    worst = "INADMISSIBLE"
    for name, params, field in theorem_targets():
        L = instantiate(name, params, field)
        rep = decide_admissible(L, degree_cap=args.degree_cap, mode=FULL)
        results.append(
            {
                "family": name,
                "field": field.name,
                "params": _params_payload(params),
                "dim": L.dim,
                "verdict": rep.verdict,
                "stage_dims": rep.stage_dims(),
            }
        )
        if rep.verdict == "ADMISSIBLE":
            worst = "ADMISSIBLE"
        elif rep.verdict == UNKNOWN and worst != "ADMISSIBLE":
            worst = UNKNOWN
    ok = worst == "INADMISSIBLE"
    payload = {
        "degree_cap": args.degree_cap,
        "results": results,
        "all_inadmissible": ok,
    }
    doc = _document(argv, None, "PASS" if ok else "FAIL", payload, started)
    _emit(doc, args.format, lambda d: [
        *(f"{r['family']:<14} over {r['field']:<9} dim {r['dim']}  {r['verdict']}"
          for r in d["report"]["results"]),
        f"all INADMISSIBLE: {d['report']['all_inadmissible']}",
    ])
    if worst == "ADMISSIBLE":
        return 1
    if worst == UNKNOWN:
        return 3
    return 0


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omlie",
        description="Exact workbench for omega-Lie algebras and omega-left-symmetric products.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("check", help="axiom report for an algebra file")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("perfect", help="is the derived subalgebra everything")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_perfect)

    p = sub.add_parser("commutator", help="emit the commutator omega-Lie algebra of an lsa file")
    p.add_argument("file")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_commutator)

    p = sub.add_parser("admissible", help="decide compatible left-symmetric products")
    p.add_argument("file")
    p.add_argument("--mode", choices=("full", "module-only"), default="full")
    p.add_argument("--degree-cap", type=_nonnegative_int, default=6)
    p.add_argument("--witness-search-budget", type=_nonnegative_int, default=400,
                   help="node budget for the rational point search; 0 disables it")
    p.add_argument("--sample", action="append", metavar="alpha=VALUE")
    add_format(p)
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("catalog", help="built-in algebra families")
    csub = p.add_subparsers(dest="catalog_cmd", required=True)
    pl = csub.add_parser("list", help="list catalog entries")
    pl.add_argument("--kind", choices=("lie", "lsa"))
    add_format(pl)
    pl.set_defaults(func=_cmd_catalog_list)
    pe = csub.add_parser("emit", help="write a catalog instance as an algebra file")
    pe.add_argument("--family", required=True)
    pe.add_argument("--param", action="append", metavar="NAME=VALUE")
    pe.add_argument("--field", choices=("Q", "Q(alpha)"), default="Q")
    pe.add_argument("--output")
    pe.set_defaults(func=_cmd_catalog_emit)

    p = sub.add_parser(
        "verify-theorem1",
        help="decide every perfect catalog family and require INADMISSIBLE",
    )
    p.add_argument("--degree-cap", type=_nonnegative_int, default=6)
    add_format(p)
    p.set_defaults(func=_cmd_verify_theorem1)

    return parser


def run_command(argv) -> int:
    """Execute one CLI invocation; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except (OmegaAlgebraError, ExprError, ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
