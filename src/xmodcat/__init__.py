"""Exact-arithmetic toolkit for braided equivariant crossed modules,
graded categorical groups, symmetric cohomology, and extension
classification over finite inputs.

The names below are re-exported from their layers on first use (PEP 562),
so `import xmodcat.groups` loads only that layer and what it imports.
"""

import importlib

_EXPORTS = {
    "groups": (
        "FiniteGroup", "FiniteAbelianGroup", "GammaAction", "GammaModule",
        "GroupHom", "abelian_invariants", "center", "check_action",
        "check_hom", "commutator_subgroup", "cyclic", "decompose_abelian",
        "dihedral", "direct_product", "group_from_table", "hom_kernel_image",
        "klein_four", "quaternion8", "quotient", "subgroup_generated",
        "symmetric3", "trivial_action", "trivial_group",
    ),
    "crossed": (
        "BraidedGammaCrossedModule", "CrossedMorphism", "compose_morphisms",
        "conjugation_module", "identity_morphism", "is_abelian",
        "is_symmetric", "pi0", "pi1", "validate", "validate_morphism",
    ),
    "cohomology": (
        "Cochain3", "SymmetricCochain2", "all_cocycles", "class_vanishes",
        "coboundary2", "h2", "is_2cocycle", "is_3cocycle", "obstruction",
        "pullback3", "pushforward3", "zero_cochain2", "zero_cochain3",
    ),
    "catgroups": (
        "GradedCatGroup", "build_catgroup", "build_reduced", "check_axioms",
        "dis", "ker", "reduce_abelian",
    ),
    "functors": (
        "FactorSet", "GradedFunctor", "catgroup_to_crossed",
        "check_graded_functor", "extract_factor_set", "find_homotopy",
        "functor_to_morphism", "homotopy_classes", "identity_functor",
        "is_homotopy", "is_regular", "is_regular_factor_set",
        "morphism_to_functor", "validate_factor_set",
    ),
    "extensions": (
        "GammaModuleExtension", "are_equivalent", "classify",
        "extension_from_functor", "functor_from_extension", "induced_psi",
        "schreier_bijection_check",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # Not cached, so a name rebound in its layer is seen here too.
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{layer}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
