"""Multi-trek separation and higher-order cumulant vanishing for linear SEMs.

The package decides — combinatorially and algebraically, with the two
routes cross-checking each other — whether the determinant of a
subtensor of order-k cumulants vanishes on every model consistent with
a given mixed graph, produces certificates either way, and closes the
loop empirically with simulation and sample cumulants.
"""

from .errors import (
    BudgetExceeded,
    CycleError,
    DimMismatch,
    IndexOutOfRange,
    InternalInconsistency,
    InvalidBootstrapCount,
    MissingOrder,
    MultitrekError,
    NotCubical,
    OrderUnsupported,
    SchemaError,
)
from .graphs import (
    CanonicalDagResult,
    MixedGraph,
    canonical_dag,
    parse_graph,
    serialize_graph,
    validate_acyclic,
)
from .tensors import (
    DiagonalSpec,
    Tensor,
    cauchy_binet_check,
    det_matrix,
    hyperdeterminant,
    subtensor,
    tensor_from_json,
    tensor_to_json,
    tucker_apply,
)
from .treks import (
    DEFAULT_BUDGET,
    DirectedPath,
    KTrek,
    SidedIntersectionWitness,
    TopObstruction,
    Trek,
    TrekSearchResult,
    TrekSystem,
    check_ktrek_separation,
    checked_sides,
    enumerate_ktreks,
    enumerate_paths,
    exists_disjoint_path_system,
    exists_trek_system_no_sided_intersection,
    find_ktrek_separating_sets,
    find_sided_intersection,
    make_trek_system,
    reachable_from,
    repeated_side,
    signed_system_sum,
    trek_system_from_doc,
    trek_system_to_doc,
)
from .cumulants import (
    HyperedgeSpec,
    ModelInstance,
    NoiseCumulants,
    cumulant_entry,
    cumulant_entry_by_trek_rule,
    det_by_trek_systems,
    instance_from_json,
    instance_to_json,
    model_cumulant,
    path_matrix,
    sample_generic_instance,
    subtensor_determinant,
    symbolic_instance,
    validate_instance,
)
from .oracle import (
    Decision,
    certify_decision,
    decide_vanishing,
    detect_common_cause,
    graph_hash,
)
from .moments import (
    ConjectureReport,
    SplitTrek,
    check_moment_theorem_k3,
    det_by_split_trek_systems,
    enumerate_split_treks,
    exists_split_trek_system_no_sided_intersection,
    model_moment,
    moment_entry,
    moment_subtensor_determinant,
    moments_from_cumulants,
    scan_conjecture,
    split_trek_from_paths,
)
from .estimation import (
    DeterminantTest,
    NoiseSpec,
    SampleMatrix,
    population_instance,
    read_sample_binary,
    read_sample_csv,
    sample_cumulant,
    simulate_lsem,
    test_determinant_zero,
    write_sample_binary,
    write_sample_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
