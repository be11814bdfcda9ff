"""Double-step graphs, New Amsterdam and Manhattan digraphs.

Construction, validation, Moore-like bounds, step-translation between the
families, and exhaustive minimum-diameter search, with every diameter
claim certified by BFS.
"""

from .bounds import (
    BoundsError,
    BoundsReport,
    achievable_range_mh,
    achievable_range_na,
    bounds_report,
    moore_ds,
    moore_mh,
    moore_na,
    theorem_42_expected_diameter,
    theorem_43_expected_diameter,
)
from .constructions import (
    SandwichReport,
    check_diameter_sandwich,
    check_mh_conditions,
    check_na_conditions,
    ds_to_mh,
    ds_to_na,
    na_to_mh,
)
from .families import (
    DoubleStepGraph,
    FamilyError,
    ManhattanDigraph,
    NewAmsterdamDigraph,
    Validation,
    compile_ds,
    compile_mh,
    compile_na,
    compile_params,
    format_params,
    parse_params,
    validate,
    validate_ds,
    validate_mh,
    validate_na,
)
from .graphs import (
    Digraph,
    DistanceProfile,
    GraphError,
    bfs_profile,
    diameter,
    from_json,
    line_digraph,
    to_dot,
    to_json,
)
from .search import (
    SearchError,
    SearchResult,
    search_ds,
    search_mh,
    search_na,
    sweep_verify,
    theorem_41_params,
    theorem_42_params,
    theorem_43_params,
)

__version__ = "0.1.0"
