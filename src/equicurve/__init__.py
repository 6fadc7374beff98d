"""Equivariant embeddings of punctured projective lines into affine 3-space.

Exact symbolic constructions and machine-checked certificates for:

* self-maps of the projective line, equivariant under a finite Moebius
  group, whose fixed locus is a prescribed invariant point set;
* closed embeddings of P^1 minus a finite set into A^3, together with the
  3x3 linear action of the curve's automorphism group;
* normalization of planar embeddings in A^3 to the standard form
  x -> (x, 1/P(x), 0) by an explicit automorphism chain;
* extendability decisions for a curve automorphism under plane embeddings.

All arithmetic is exact, over cyclotomic fields.

The public names and the submodules are imported on first use (PEP 562),
so ``import equicurve`` compiles none of the submodules, and a program
compiles only the submodules it reaches.
"""

from importlib import import_module

# public name -> the submodule that defines it, in the order of __all__
_EXPORTS = {
    "CycNum": "cyclotomic",
    "CurveAut": "plane",
    "Moebius": "projline",
    "P1Point": "projline",
    "PlanarEmbedding": "planar",
    "aut_of_lambda": "projline",
    "build_embedding": "embed3",
    "decide_extendability": "plane",
    "group_closure": "projline",
    "normalize_planar": "planar",
    "preset_family": "embed3",
    "root_of_unity": "cyclotomic",
    "selfmap_with_fixed_locus": "equivariant",
    "set_conductor_cap": "cyclotomic",
    "standard_group": "embed3",
    "try_sqrt": "cyclotomic",
    "verify_extension": "planar",
}

_SUBMODULES = frozenset({
    "certificates", "cli", "cyclotomic", "embed3", "equivariant", "errors",
    "linalg", "modular", "mpoly", "parsing", "planar", "plane", "poly",
    "projline",
})

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    # a public name is read from its submodule on every access and not
    # cached here, so it is always the submodule's current attribute;
    # importing a submodule binds it in this namespace
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
