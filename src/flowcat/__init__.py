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

Modules load on first use.  `import flowcat` puts every submodule but `cli`
into `sys.modules` and onto the package without running it
(`importlib.util.LazyLoader`); a submodule runs when one of its attributes
is first read, directly or through a package-level name (PEP 562).  So a
`flowcat validate` process compiles only the modules that it calls.
"""

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "casework": (
        "CaseReport", "CaseworkError", "cuntz_splice_report", "desingularisation_counterexample",
        "poset_count_obstructions", "verify_acyclic_corollary", "verify_poset_corollary",
    ),
    "categories": (
        "CategoryError", "FinSetSkeleton", "MatCategory", "PosetCategory", "chain", "diamond",
    ),
    "diagrams": (
        "Diagram", "DiagramError", "canonical_diagram", "check_coproduct_condition",
        "enumerate_diagrams", "make_diagram", "random_diagram",
    ),
    "functors": (
        "CorruptedPair", "make_pair", "standard_verification_suite", "verify_equivalence",
    ),
    "graphs": (
        "DirectedGraph", "GraphError", "adjacency_matrix", "cohereditary_irreducible_subsets",
        "graph", "is_acyclic", "is_irreducible", "plus_construction",
    ),
    "intmat": ("IntMatrix", "determinant", "smith_normal_form"),
    "invariants": ("bowen_franks", "flow_invariants", "franks_equivalent", "parry_sullivan"),
    "leavitt": (
        "LeavittError", "build_module_operators", "check_leavitt_relations", "check_unital_action",
        "intertwining_failures", "module_map",
    ),
    "moves": (
        "InDelaySpec", "InSplitSpec", "MoveError", "OutDelaySpec", "OutSplitSpec",
        "add_heads_truncated", "add_tails_truncated", "in_delay", "in_split", "out_delay",
        "out_split", "remove_sink",
    ),
    "sampling": (),
    "util": ("FlowcatError", "SearchCapExceeded"),
    "zoo": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)

for _name in _EXPORTS:
    _spec = _util.find_spec(f"{__name__}.{_name}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    _module = _sys.modules[_spec.name] = globals()[_name] = _util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
