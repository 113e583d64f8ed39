"""Every function and method in ``src/omlie`` is reached by a short sweep of
commands, or is named in ``KEEP`` with the reason it stays.

The sweep runs the command line in process under ``sys.setprofile`` and
records every code object entered: ``verify-theorem1``; ``catalog list``;
``catalog emit``, ``check`` and ``perfect`` on each family, and module-only
``admissible`` in text with a sampled alpha on each Lie family; ``check`` on a
failing and on a malformed file; ``admissible`` on the LSA3-1 commutator in
both modes and on abelian dim 2 at cap 6, with and without the witness
search.  Code that no command reaches and ``KEEP`` does not name fails the
test, so dead code cannot grow back unnoticed.  It takes about a second.
"""

import contextlib
import inspect
import io
import sys

import omlie  # noqa: F401  (loads every layer for _definitions)
from omlie.catalog import list_entries
from omlie.cli import run_command

KEEP = {
    # library surface: README's Library block and module map, and the
    # public constructors the tests build algebras and scalars with
    "algebra.check_module_identity": "README: one of the axiom checkers",
    "algebra.is_perfect": "README: Library block",
    "algebra.left_mult": "README module map: left multiplications",
    "algebra.basis_change": "README module map: basis change",
    "linalg.invert": "backs basis_change",
    "linalg.Matrix.column": "backs basis_change",
    "linalg.Matrix.apply": "backs basis_change",
    "algebra.StructureTensor.zero": "constructor of the zero product",
    "algebra.OmegaForm.zero": "constructor of the zero form",
    "fields.RatFunc.__init__": "constructor of Q(alpha) elements from polynomials",
    "fields.RatFunc.den": "reads an element back as num/den; prints non-constant denominators",
    "fields._monic_poly": "backs RatFunc.den and poly_gcd",
    "fields._divisors": "rational_roots on a polynomial with a nonzero constant term",
    "errors.AxiomCheckError.__init__": "raised by the library builders on invalid tables",
    "algebra.CheckReport.describe": "the message of AxiomCheckError",
    "cli.main": "entry point of the omlie script",
    "catalog._register": "runs at import, registering the families",
    # per-layer names of BENCHMARK.json: a traced benchmark run must find them
    "fields.poly_gcd": "bench per-layer metrics fields.poly_gcd.*",
    "multipoly.normal_form": "bench per-layer metrics multipoly.normal_form.*",
    "multipoly.MPoly.lead_monomial": "bench per-layer metric multipoly.MPoly.lead_monomial.calls",
    "multipoly._degrevlex_desc_key": "backs MPoly.lead_monomial and MPoly.format",
    # protocols Python calls implicitly
    "multipoly.MPoly.format": "backs MPoly.__repr__",
    "fields.RatFunc.__rtruediv__": "number / element",
    "algebra.CheckReport.__bool__": "truth value: the check passed",
    "fields.Field.__reduce__": "copy and pickle give back the one instance",
}
_VALUE_PROTOCOLS = """
    algebra.CheckReport.__repr__ algebra.OmegaForm.__eq__ algebra.OmegaForm.__repr__
    algebra.OmegaLieAlgebra.__eq__ algebra.OmegaLieAlgebra.__repr__
    algebra.OmegaLsaAlgebra.__eq__ algebra.OmegaLsaAlgebra.__repr__
    algebra.StructureTensor.__hash__ algebra.StructureTensor.__repr__ fields.Field.__repr__
    fields.Poly.__hash__ fields.Poly.__repr__ fields.RatFunc.__hash__ fields.RatFunc.__repr__
    linalg.AffineSpace.__eq__ linalg.AffineSpace.__repr__ linalg.Matrix.__eq__
    linalg.Matrix.__hash__ linalg.Matrix.__repr__
    multipoly.MPoly.__eq__ multipoly.MPoly.__hash__ multipoly.MPoly.__repr__
"""
KEEP.update(dict.fromkeys(_VALUE_PROTOCOLS.split(), "value protocol: compare, hash or print"))
_ABSTRACT = ("zero", "one", "coerce", "format")
KEEP.update({f"fields.Field.{m}": "abstract: each field overrides it" for m in _ABSTRACT})


def _definitions():
    """{layer.name or layer.Class.name: code} of each function and method in omlie."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("omlie.") or modname == "omlie.__main__":
            continue
        layer = modname.split(".", 1)[1]
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == modname:
                members = [
                    (f"{layer}.{name}.{attr}", fn)
                    for attr, member in vars(obj).items()
                    # plain, class or static method, or a property's getter
                    for fn in (member, getattr(member, "__func__", 0), getattr(member, "fget", 0))
                ]
            else:
                members = [(f"{layer}.{name}", obj)]
            for qualname, fn in members:
                if inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__:
                    out[qualname] = fn.__code__
    return out


def _sweep(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    def omlie_cmd(*argv, code=0):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run_command(list(argv)) == code, argv

    header = "kind = lsa\nfield = Q(alpha)\ndim = 2\nbasis = u, v\n[omega]\n"
    (tmp_path / "failing.alg").write_text(header + "u,v = alpha^2\n")
    (tmp_path / "malformed.alg").write_text(header + "u,v = (1 +\n")
    (tmp_path / "abelian2.alg").write_text("kind = lie\nfield = Q\ndim = 2\nbasis = e1, e2\n")
    sys.setprofile(profile)
    try:
        omlie_cmd("verify-theorem1")
        omlie_cmd("catalog", "list")
        for entry in list_entries():
            path = str(tmp_path / f"{entry.name}.alg")
            emit = ["catalog", "emit", "--family", entry.name, "--field", "Q(alpha)"]
            omlie_cmd(*emit, "--output", path)
            omlie_cmd("check", path)
            if entry.kind == "lie":
                omlie_cmd("perfect", path)
                sample = ["--sample", "alpha=2"] if "alpha" in entry.name else []
                omlie_cmd("admissible", path, "--mode", "module-only", "--format", "text", *sample)
        omlie_cmd("check", str(tmp_path / "failing.alg"), code=1)
        omlie_cmd("check", str(tmp_path / "malformed.alg"), code=2)
        lie = str(tmp_path / "lsa31-commutator.alg")
        omlie_cmd("commutator", str(tmp_path / "LSA3-1.alg"), "--output", lie)
        for mode in ("full", "module-only"):
            omlie_cmd("admissible", lie, "--mode", mode)
        abelian = str(tmp_path / "abelian2.alg")
        omlie_cmd("admissible", abelian, "--degree-cap", "6")
        omlie_cmd("admissible", abelian, "--degree-cap", "6", "--witness-search-budget", "0")
    finally:
        sys.setprofile(None)
    return entered


def test_every_definition_is_reached_or_kept(tmp_path):
    defined = _definitions()
    assert set(KEEP) <= set(defined), "KEEP names something that no longer exists"
    entered = _sweep(tmp_path)
    unreached = sorted(name for name, code in defined.items() if code not in entered)
    assert [name for name in unreached if name not in KEEP] == []
