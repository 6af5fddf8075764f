"""Finite metric spaces: validation, embeddings, unions, and ray geometry.

Names resolve on first use (PEP 562): `msu.find_embeddings` imports
`msu.embed` the first time it is read, so a program loads only the
modules it touches.
"""

from importlib import import_module as _import_module

# Every submodule, with the public names it exports through the package.
_EXPORTS = {
    "between": (
        "LineRealization", "MBStatus", "PLLabeling", "cayley_menger", "is_mb_space",
        "is_mb_triple", "is_pseudolinear", "lies_between", "line_realization", "pl_labeling",
    ),
    "cli": (),
    "embed": (
        "Comparability", "PointMap", "SelfMapReport", "SpaceTraits", "classify_space",
        "compare", "embeds", "find_embeddings", "is_not_shifted", "is_ultrametric",
        "self_embeddings",
    ),
    "errors": (
        "AlphaRangeError", "DegenerateTriangleError", "DisconnectedGraphError",
        "DuplicatePointError", "EmptyFamilyError", "EpsilonTooSmallError", "IndexRangeError",
        "InputFormatError", "InternalCheckError", "InvalidMetricError", "InvalidTripleError",
        "IsometricDuplicateError", "LengthRangeError", "MsuError", "NonpositiveDistanceError",
        "NotPseudolinearError", "NotUltrametricError", "OriginNotAllowedError",
        "RadiusTooSmallError", "SeparatorError", "TransitivityError", "WrongCardinalityError",
    ),
    "families": (
        "EmbedQuasiOrder", "MinimalityReport", "QuotientPoset", "SpaceFamily",
        "embed_quasiorder", "is_minimal_universal_space", "is_universal_space",
        "maximal_representatives", "minimal_universal_subclass", "nonexistence_condition_i",
        "quotient_poset",
    ),
    "graphs": (
        "MetrizationReport", "WeightedGraph", "build_graph", "check_metrizability",
        "shortest_path_pseudometric",
    ),
    "io": (
        "dump_report", "load_family", "load_graph", "load_space", "load_triangle",
        "read_json", "space_payload", "to_jsonable",
    ),
    "rays": (
        "EPS_GEO", "SOLVER_TOL", "FTResult", "RayPoint", "RaySpace", "Triangle", "TriangleLike",
        "embed_triple_tripod", "embed_triple_two_rays", "fermat_torricelli",
        "solve_constrained_embedding", "witness_triangle_tripod", "witness_triangle_two_rays",
    ),
    "realsets": (
        "F2Nat", "F2Neg", "F2Point", "f2_embed_distance", "f2_point_distance",
        "f2_removal_witness", "interval_embed",
    ),
    "scalars": (
        "DEFAULT_TOL", "Number", "close", "coerce_entries", "format_number", "is_exact",
        "leq", "parse_number", "positive",
    ),
    "spaces": ("FiniteMetricSpace", "Violation", "metric_violations", "validate_space"),
    "unions": (
        "BridgeParams", "MPoint", "QuadPoint", "RealPoint", "TaggedPoint", "UnionReport",
        "UnionSpace", "connectivity_threshold", "glue_constant", "glue_ultrametric_pair",
        "is_epsilon_connected", "m_distance", "sample_m_space", "union_epsilon_connected",
        "union_pl_quadruples", "union_ultrametric_family", "verify_minimal_union",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_OWNER) | set(_EXPORTS))
