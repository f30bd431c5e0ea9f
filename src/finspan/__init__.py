"""Finite-set span bicategory engine.

Spans of finite sets with their 2-cell calculus, truncated simplicial
sets with 2-Segal checkers, and the correspondences between structure on
a 2-Segal set and structure on its span pseudomonoid: paracyclic
translations against Frobenius counits, transposition actions against
commutativity cells.

The package namespace is filled on first access (PEP 562): reading
`finspan.check_gamma` imports `finspan.gammaset` then, so a process that
never reads a name never loads its module.
"""

import importlib

# each exported submodule with the names re-exported from it
_EXPORTS = {
    "spans": (
        "FinMap", "FinSet", "ProductShape", "Span", "SpanCell", "StructuralError", "UNIT",
        "braiding_span", "coherence_cell", "compose_spans", "horizontal_compose",
        "identity_cell", "identity_map", "identity_span", "product_span", "pullback",
        "spans_isomorphic", "vertical_compose", "whisker",
    ),
    "reporting": (),
    "diagrams": ("braiding_cell", "hexagonator_cell", "syllepsis_cell", "tensorator_cell"),
    "simplicial": (
        "GluingError", "Subdivision", "Triangulation", "TruncSimplicialSet", "check_2segal",
        "check_simplicial_identities", "check_subdivision_criterion", "check_unitality",
        "edge_map", "enumerate_subdivisions", "enumerate_triangulations", "face_via_polygon",
        "degen_via_polygon", "glue", "glue_columns", "make_simplicial", "unglue",
    ),
    "pseudomonoid": (
        "ConstructionError", "PseudomonoidData", "TwoTruncatedData", "build_pseudomonoid",
        "n_fold_multiplication", "search_associator_lift", "taco_spaces", "two_truncation",
        "verify_pentagon", "verify_triangle",
    ),
    "paracyclic": (
        "CounitData", "LambdaMor", "NotFrobeniusError", "ParacyclicData", "check_cyclic",
        "check_lambda_relations", "check_paracyclic", "evaluate", "frobenius_from_paracyclic",
        "frobenius_witnesses", "lambda_compose", "lambda_factorize", "paracyclic_from_frobenius",
    ),
    "gammaset": (
        "CommutativityCell", "GammaData", "NotCommutativeError", "PhiStarMor", "check_gamma",
        "commutative_from_gamma", "cut", "evaluate_gamma", "gamma_from_commutative",
        "phistar_compose", "phistar_factorize",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
