"""Finite ordered trees, the pair morphisms between them, and exhaustive
verification of their coloring behavior at desk scale.

All values are immutable after construction and every operation is a pure
function, so concurrent read access is safe.  Hot loops run through the
kernels module, compiled when numba imports (see ``kernels`` for the flag).
"""

from .config import DEFAULT_BUDGET, Budget
from .constructions import (
    DoublingResult,
    GraftResult,
    add_root,
    doubling_tree,
    graft,
    plus_leaf,
    star_extend,
)
from .colorings import (
    AnnotatedPscHom,
    annotate,
    compose_annotated,
    invariant_set,
    lower_top,
    powerset_coloring,
    prune_signature,
    prune_top,
    to_strong,
    two_coloring,
)
from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    InvalidMorphismError,
    ParseError,
)
from .homsets import (
    HomSet,
    count_rigid_surjections,
    enumerate_connections,
    enumerate_embeddings,
    enumerate_hom,
    enumerate_increasing_injections,
    enumerate_psc,
    enumerate_rigid_surjections,
)
from .morphisms import (
    CATEGORIES,
    CONN,
    CONN_LINEAR,
    CONN_ROOT,
    EMB,
    INC_INJ,
    PSC,
    RIGID,
    Connection,
    TreeMap,
    complete_strong,
    compose,
    condition_a,
    connection_from_record,
    connection_to_record,
    identity_connection,
    induced_embedding,
    is_connection,
    is_embedding,
    is_increasing_injection,
    is_rigid_surjection,
    is_sealed,
    is_strong,
    validate_connection,
)
from .search import (
    ArrowCertificate,
    CopyFamily,
    VerificationReport,
    arrow_check,
    copy_family,
    degree_at_witness,
    verify_lower_bound,
    verify_no_ramsey,
)
from .trees import (
    Forest,
    OrderedTree,
    all_trees_up_to,
    chain,
    enumerate_trees,
    format_forest,
    format_tree,
    initial_subtree,
    leaves,
    marked_set,
    meet,
    parse_forest,
    parse_tree,
    tree_from_record,
    tree_to_record,
)

__version__ = "0.1.0"
