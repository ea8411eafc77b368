#!/usr/bin/env python3
"""Random sweep: the four vertex moves preserve the Parry-Sullivan number
and the Bowen-Franks group.

Samples irreducible bundle-free graphs, applies each move with a freshly
sampled spec, and recomputes both invariants on the result.  Any discrepancy
is printed with the offending graph and the script exits nonzero.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter

from flowcat.invariants import flow_invariants
from flowcat.moves import SPEC_MOVES
from flowcat.sampling import random_irreducible_graph, random_move_spec


def run_sweep(config):
    """`config` holds the options `main` parses: trials, seed, max_vertices
    and max_entry."""
    rng = random.Random(config.seed)
    ps_seen = Counter()
    bf_seen = Counter()
    applications = 0
    for trial in range(config.trials):
        g = random_irreducible_graph(
            rng, max_vertices=config.max_vertices, max_entry=config.max_entry
        )
        ps, bf = flow_invariants(g)
        ps_seen[ps] += 1
        bf_seen[bf.describe()] += 1
        for name, (apply_move, _) in sorted(SPEC_MOVES.items()):
            spec = random_move_spec(rng, g, name)
            h = apply_move(g, spec)
            ps_after, bf_after = flow_invariants(h)
            if ps_after != ps or bf_after != bf:
                print(
                    f"trial {trial}: {name} changed an invariant\n"
                    f"  before: PS={ps} BF={bf.describe()}\n"
                    f"  after:  PS={ps_after} BF={bf_after.describe()}\n"
                    f"  graph: {g}\n  spec: {spec}"
                )
                return None
            applications += 1
    return ps_seen, bf_seen, applications


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.ArgumentDefaultsHelpFormatter
    )
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=20260815)
    parser.add_argument("--max-vertices", type=int, default=8)
    parser.add_argument("--max-entry", type=int, default=3)
    config = parser.parse_args(argv)
    start = time.perf_counter()
    result = run_sweep(config)
    elapsed = time.perf_counter() - start
    if result is None:
        return 1
    ps_seen, bf_seen, applications = result
    print(
        f"checked {config.trials} graphs x {len(SPEC_MOVES)} moves = "
        f"{applications} applications in {elapsed:.1f}s; all invariants preserved"
    )
    print("Parry-Sullivan values seen:", dict(sorted(ps_seen.items())))
    print("Bowen-Franks groups seen: ", dict(sorted(bf_seen.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
