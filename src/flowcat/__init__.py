"""Graph moves from symbolic dynamics, exact flow-equivalence invariants,
and a finite-category diagram engine.

The package has four layers:

* `graphs`, `moves` — directed multigraphs with infinite-bundle markers and
  the sink-removal / delay / split / truncated head-and-tail moves;
* `intmat`, `invariants` — exact integer linear algebra (one unit-pivot
  row kernel behind the determinant and a Smith normal form taken modulo a
  minor, with a replayable witness on request) behind the Parry-Sullivan
  number and the Bowen-Franks group;
* `categories`, `diagrams`, `functors` — finite poset, finite-set and matrix
  categories, enumeration of the diagrams satisfying the coproduct condition,
  and executable equivalence functor pairs for the moves with a verification
  harness;
* `leavitt`, `casework` — relation-checked module operators attached to a
  matrix diagram, and scripted counting reports.

`zoo` holds small named example graphs and move specs used throughout the
tests and reports; `cli` exposes everything as the `flowcat` command.
"""

from types import ModuleType as _ModuleType

from .casework import (
    CaseReport,
    CaseworkError,
    cuntz_splice_report,
    desingularisation_counterexample,
    poset_count_obstructions,
    verify_acyclic_corollary,
    verify_poset_corollary,
)
from .categories import (
    CategoryError,
    FinSetSkeleton,
    MatCategory,
    PosetCategory,
    chain,
    diamond,
)
from .diagrams import (
    Diagram,
    DiagramError,
    canonical_diagram,
    check_coproduct_condition,
    enumerate_diagrams,
    make_diagram,
    random_diagram,
)
from .functors import (
    CorruptedPair,
    make_pair,
    standard_verification_suite,
    verify_equivalence,
)
from .graphs import (
    DirectedGraph,
    GraphError,
    adjacency_matrix,
    cohereditary_irreducible_subsets,
    graph,
    is_acyclic,
    is_irreducible,
    plus_construction,
)
from .intmat import IntMatrix, determinant, smith_normal_form
from .invariants import bowen_franks, flow_invariants, franks_equivalent, parry_sullivan
from .leavitt import (
    LeavittError,
    build_module_operators,
    check_leavitt_relations,
    check_unital_action,
    intertwining_failures,
    module_map,
)
from .moves import (
    InDelaySpec,
    InSplitSpec,
    MoveError,
    OutDelaySpec,
    OutSplitSpec,
    add_heads_truncated,
    add_tails_truncated,
    in_delay,
    in_split,
    out_delay,
    out_split,
    remove_sink,
)
from .util import FlowcatError, SearchCapExceeded

__version__ = "0.1.0"

# every name imported above, sorted; the submodules bound as a side effect
# of those imports are not part of the export list
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
