"""Finite-set span bicategory engine.

Spans of finite sets with their 2-cell calculus, truncated simplicial
sets with 2-Segal checkers, and the correspondences between structure on
a 2-Segal set and structure on its span pseudomonoid: paracyclic
translations against Frobenius counits, transposition actions against
commutativity cells.
"""

from .spans import (
    FinMap,
    FinSet,
    ProductShape,
    Span,
    SpanCell,
    StructuralError,
    UNIT,
    braiding_span,
    coherence_cell,
    compose_spans,
    horizontal_compose,
    identity_cell,
    identity_map,
    identity_span,
    product_span,
    pullback,
    spans_isomorphic,
    vertical_compose,
    whisker,
)
from .diagrams import (
    braiding_cell,
    hexagonator_cell,
    syllepsis_cell,
    tensorator_cell,
)
from .simplicial import (
    GluingError,
    Subdivision,
    Triangulation,
    TruncSimplicialSet,
    check_2segal,
    check_simplicial_identities,
    check_subdivision_criterion,
    check_unitality,
    edge_map,
    enumerate_subdivisions,
    enumerate_triangulations,
    face_via_polygon,
    degen_via_polygon,
    glue,
    glue_columns,
    make_simplicial,
    unglue,
)
from .pseudomonoid import (
    ConstructionError,
    PseudomonoidData,
    TwoTruncatedData,
    build_pseudomonoid,
    n_fold_multiplication,
    search_associator_lift,
    taco_spaces,
    two_truncation,
    verify_pentagon,
    verify_triangle,
)
from .paracyclic import (
    CounitData,
    LambdaMor,
    NotFrobeniusError,
    ParacyclicData,
    check_cyclic,
    check_lambda_relations,
    check_paracyclic,
    evaluate,
    frobenius_from_paracyclic,
    frobenius_witnesses,
    lambda_compose,
    lambda_factorize,
    paracyclic_from_frobenius,
)
from .gammaset import (
    CommutativityCell,
    GammaData,
    NotCommutativeError,
    PhiStarMor,
    check_gamma,
    commutative_from_gamma,
    cut,
    evaluate_gamma,
    gamma_from_commutative,
    phistar_compose,
    phistar_factorize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
