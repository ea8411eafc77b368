#!/usr/bin/env python3
"""Run the equivalence-functor verification harness over the standard suite.

Every (graph, move-spec) pair in the suite is verified in every requested
category: the four checks are coproduct preservation, functoriality,
round trips up to isomorphism, and hom-set bijectivity where enumerable.
With --include-corrupted each pair is rerun with one functor component
deliberately corrupted; the harness must catch every control that has
something to corrupt (degenerate instances, e.g. with only zero dimension
vectors or an edgeless moved graph, leave the control vacuous and are
reported as such).  Exits nonzero when any pair misbehaves.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from flowcat.cli import USAGE, CliError, load_category
from flowcat.diagrams import (
    canonical_diagram,
    enumerate_diagrams,
    random_diagram,
    solve_dimension_vectors,
)
from flowcat.functors import (
    CorruptedPair,
    standard_verification_suite,
    verify_equivalence,
)
from flowcat.util import FlowcatError

DEFAULT_CATEGORIES = ("poset:chain2", "finset:4", "mat:2:3")


def probe_pool(cat, g, rng):
    """A small spread of source diagrams used only to decide whether a
    corrupted control has anything to corrupt; size vectors are bounded by
    the category's largest object, as the harness's own pools are."""
    if cat.is_thin:
        return list(enumerate_diagrams(cat, g))
    pool = []
    for dims in solve_dimension_vectors(g, cat.objects()[-1]):
        pool.append(canonical_diagram(cat, g, dims))
        pool.append(random_diagram(cat, g, dims, rng))
    return pool


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.ArgumentDefaultsHelpFormatter
    )
    parser.add_argument(
        "--category",
        action="append",
        dest="categories",
        metavar="SPEC",
        help="category spec (repeatable); default: " + ", ".join(DEFAULT_CATEGORIES),
    )
    parser.add_argument("--samples", type=int, default=8)
    parser.add_argument("--seed", type=int, default=20260815)
    parser.add_argument(
        "--include-corrupted",
        action="store_true",
        help="also run each pair with a corrupted component as a negative control",
    )
    parser.add_argument("--json", metavar="PATH", help="dump all reports as a JSON list")
    args = parser.parse_args(argv)

    # rejected before any pair runs: thin pools are exhaustive at any count,
    # and a report file that cannot be written would lose the whole run
    try:
        if args.samples < 1:
            raise CliError(f"--samples must be at least 1, got {args.samples}")
        cats = [load_category(spec) for spec in args.categories or DEFAULT_CATEGORIES]
        out = open(args.json, "w", encoding="utf-8") if args.json else None
    except (FlowcatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    suite = standard_verification_suite()
    reports = []
    failures = 0
    for cat in cats:
        for label, pair in suite:
            report = verify_equivalence(cat, pair, samples=args.samples, seed=args.seed)
            failures += report.verdict != "pass"
            print(f"{report.verdict:<6} {cat.name:<12} {pair.move:<12} {label}")
            reports.append(report.to_dict())
            if args.include_corrupted:
                bad = CorruptedPair(pair)
                control = verify_equivalence(
                    cat, bad, samples=args.samples, seed=args.seed
                )
                caught = control.verdict == "fail"
                rng = random.Random(args.seed)
                vacuous = not any(
                    bad.can_corrupt(cat, d)
                    for d in probe_pool(cat, pair.source, rng)
                )
                if caught:
                    note = "caught"
                elif vacuous:
                    note = "vacuous (nothing to corrupt on this instance)"
                else:
                    note = "NOT CAUGHT"
                    failures += 1
                print(f"       corrupted control: {note}")
                reports.append(control.to_dict())
    if out:
        with out:
            json.dump(reports, out, indent=2, sort_keys=True)
        print(f"wrote {len(reports)} reports to {args.json}")
    print(f"{len(reports)} runs, {failures} misbehaving")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
