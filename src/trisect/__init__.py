"""Exact homology-level toolkit for simplified genus-2 trisection diagrams.

The public names and the submodules load on first use (PEP 562), so that
importing one submodule, as each CLI call does, does not import the others.
"""

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "MAT2_ID", "Mat2", "NonPrimitiveError", "SymplecticReduction", "Vec2", "Vec4",
            "ZeroVectorError", "is_primitive", "mat2_apply", "mat2_det", "mat2_inv", "mat2_mul",
            "pair2", "pair4", "sl2_complete", "transvect",
        ),
        "lattice",
    ),
    **dict.fromkeys(
        (
            "ExponentCoreMismatchError", "Genus2Diagram", "HypothesisReport",
            "InvalidDiagramError", "Monodromy", "TorusDiagram", "embed_torus", "handle_slide",
            "intersection_invariant", "rotations_inequivalent", "surgery_project",
            "theorem_hypotheses", "validate_genus2", "validate_torus",
        ),
        "diagram",
    ),
    **dict.fromkeys(
        (
            "ROTATION_WORD", "SIGMA1", "SIGMA1_INV", "SIGMA2", "SIGMA2_INV", "TOKENS",
            "EquivalenceWitness", "OrbitGraph", "OrbitNode", "WordError", "apply_sigma1",
            "apply_sigma1_inverse", "apply_sigma2", "apply_sigma2_inverse", "canonical_form",
            "equivalent_torus", "orbit", "parse_word", "reduce_word", "sigma2_cubed_witness",
            "word_to_diagram", "word_to_torus",
        ),
        "moves",
    ),
    **dict.fromkeys(
        (
            "S1XS2", "S3", "FamilyMatch", "LensSpace", "SixTuple", "case_diagram", "classify",
            "lens_equiv", "lens_from_pair", "reflect", "rotate", "six_tuple",
        ),
        "vertical",
    ),
}

_SUBMODULES = frozenset(("cli", "diagram", "document", "lattice", "moves", "vertical"))

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        # Importing a submodule binds it here, as `import trisect.<name>` does.
        __import__(f"{__name__}.{name}")
        return globals()[name]
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The statement `from .<module> import <name>`, with the module chosen
    # at run time.
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
