"""Spans and counters around flowcat's public functions, for the traced run.

`Tracer` replaces each listed function in every flowcat module namespace
that holds it (so callers that imported the name see the wrapper too),
swaps a counting `NodeBudget` subclass into the modules that build
budgets, and counts calls to a few hot methods.  Everything is restored
when the `with` block exits.  Spans stay in memory as tuples
(id, parent_id, name, start, end); self time is computed afterwards.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# layer -> {function name in that module: span name}
SPANNED = {
    "intmat": {"smith_normal_form": "snf", "determinant": "determinant"},
    "invariants": {"parry_sullivan": "parry_sullivan", "bowen_franks": "bowen_franks"},
    "graphs": {
        "sources": "sources",
        "sinks": "sinks",
        "strongly_connected_components": "scc",
        "condensation": "condensation",
        "cohereditary_irreducible_subsets": "cohereditary",
        "validate": "validate",
        "adjacency_matrix": "adjacency",
        "is_acyclic": "is_acyclic",
    },
    "moves": {
        "out_split": "out_split",
        "in_split": "in_split",
        "out_delay": "out_delay",
        "in_delay": "in_delay",
        "remove_sink": "remove_sink",
        "add_heads_truncated": "heads_tails",
        "add_tails_truncated": "heads_tails",
    },
    "diagrams": {
        "enumerate_diagrams": "enumerate",
        "solve_dimension_vectors": "dimvec",
        "enumerate_diagram_morphisms": "morphism_search",
        "diagram_isomorphic": "iso_search",
        "check_coproduct_condition": "coproduct_check",
    },
    "functors": {"verify_equivalence": "verify"},
    "leavitt": {
        "build_module_operators": "build",
        "check_leavitt_relations": "check",
        "check_unital_action": "check",
    },
    "casework": {
        "verify_poset_corollary": "report",
        "verify_acyclic_corollary": "report",
        "poset_count_obstructions": "report",
    },
}

# Functor-pair methods that map diagrams and morphisms across a move; their
# calls are spans named "functors.apply".
PAIR_METHODS = ("forward", "backward", "unit", "counit", "forward_map", "backward_map")

SPAN_NAMES = sorted({f"{layer}.{short}" for layer, names in SPANNED.items()
                     for short in names.values()} | {"functors.apply"})

LOG10_2 = math.log10(2)


def _flowcat_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "flowcat" or name.startswith("flowcat."))]


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *_subclasses(sub)]
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end); None while open
        self.counts = defaultdict(int)
        self._stack = [0]  # span 0 is the implicit root
        self._patches = []  # (owner, attribute, original)

    def wrap(self, fn, name, on_result=None):
        """fn, recording a span per call; on_result sees each return value."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans.append(None)
            sid, parent = len(spans), stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:  # counted and re-raised unchanged
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                stack.pop()
                spans[sid - 1] = (sid, parent, name, start, time.perf_counter())
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_calls(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_items(self, fn, key):
        """fn returns a list or an iterator; count the items it hands out."""
        counts = self.counts

        def counted(items):
            for item in items:
                counts[key] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if isinstance(result, list):
                counts[key] += len(result)
                return result
            return counted(result)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new):
        for module in _flowcat_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, new)

    def __enter__(self):
        modules = {m.__name__: m for m in _flowcat_modules()}
        hooks = self._result_hooks()
        for layer, names in SPANNED.items():
            module = modules[f"flowcat.{layer}"]
            for fname, short in names.items():
                original = getattr(module, fname)
                name = f"{layer}.{short}"
                self._patch_everywhere(original, self.wrap(original, name, hooks.get(name)))
        graphs = modules["flowcat.graphs"]
        for method in ("incoming", "outgoing"):
            self._patch(graphs.DirectedGraph, method, self._count_calls(
                graphs.DirectedGraph.__dict__[method], "graphs.incoming_calls"))
        self._patch_everywhere(graphs.classify_vertex,
                               self._count_calls(graphs.classify_vertex, "graphs.incoming_calls"))
        categories = modules["flowcat.categories"]
        for cls in (categories.PosetCategory, categories.FinSetSkeleton, categories.MatCategory):
            for method in ("hom", "isomorphisms"):
                self._patch(cls, method, self._count_items(cls.__dict__[method], "categories.hom_yielded"))
            self._patch(cls, "compose", self._count_calls(cls.__dict__["compose"], "categories.compose_calls"))
        functors = modules["flowcat.functors"]
        for cls in (*_subclasses(functors.FunctorPair), functors.FunctorPair, functors.CorruptedPair):
            for method in PAIR_METHODS:
                if method in cls.__dict__:
                    self._patch(cls, method, self.wrap(cls.__dict__[method], "functors.apply"))
        self._patch_budget(modules["flowcat.util"])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch_budget(self, util):
        counts = self.counts
        base = util.NodeBudget
        cap_exc = util.SearchCapExceeded

        class CountingBudget(base):
            def spend(self, n=1):
                counts["diagrams.nodes_visited"] += n
                try:
                    super().spend(n)
                except cap_exc:
                    counts["diagrams.cap_exceeded"] += 1
                    raise

        self._patch_everywhere(base, CountingBudget)

    def _result_hooks(self):
        """Counters read off return values, keyed by span name."""
        counts = self.counts

        def snf(result):
            counts["intmat.snf_ops"] += len(result.operations)
            # decimal digits from the bit length: str() of a huge int is slow
            # and refused past 4300 digits
            bits = max((abs(op[3]).bit_length() for op in result.operations
                        if op[0] in ("radd", "cadd")), default=0)
            digits = int(bits * LOG10_2) + 1 if bits else 0
            counts["intmat.snf_max_coeff_digits"] = max(counts["intmat.snf_max_coeff_digits"], digits)

        def verify(report):
            counts["functors.bounded_skips"] += report.bounded_skips
            for check in report.checks:
                for detail in check.details:
                    if detail.endswith("hom-set pairs skipped (search too large)"):
                        counts["functors.hom_pairs_skipped"] += int(detail.split()[0])

        def adder(key, amount):
            def hook(result):
                counts[key] += amount(result)
            return hook

        return {
            "intmat.snf": snf,
            "functors.verify": verify,
            "diagrams.enumerate": adder("diagrams.enumerate_answers", len),
            "diagrams.morphism_search": adder("diagrams.morphisms_found", len),
            "diagrams.iso_search": adder("diagrams.isos_found", lambda iso: iso is not None),
            "leavitt.build": adder("leavitt.operator_dim_total", lambda ops: ops.total_dim),
        }


def self_times(spans):
    """Per span name: (total duration, self duration, calls).

    Spans nest strictly (one thread), so the part of a span covered by its
    children is the sum of the children's durations.
    """
    spans = [s for s in spans if s is not None]  # a span cut by a timeout mid-close
    child_time = defaultdict(float)
    for sid, parent, name, start, end in spans:
        if parent:
            child_time[parent] += end - start
    out = {}
    for sid, parent, name, start, end in spans:
        total, own, calls = out.get(name, (0.0, 0.0, 0))
        duration = end - start
        out[name] = (total + duration, own + duration - child_time[sid], calls + 1)
    return out
