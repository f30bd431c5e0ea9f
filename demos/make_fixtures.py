#!/usr/bin/env python3
"""Regenerate the shipped fixture documents, one per catalog example.

Run from the repository root:

    python3 demos/make_fixtures.py
"""

import pathlib
import sys

from finspan import catalog
from finspan.documents import save_document

OUT = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# each fixture, with the example it holds and that example's sizes
FIXTURES = {
    "nerve_z2": ("groupoid-zk", {"k": 2}),
    "nerve_z3": ("groupoid-zk", {"k": 3}),
    "chain_poset_nerve": ("chain-poset", {"k": 3}),
    "building_chain3": ("building", {"k": 3}),
    "pair_groupoid2": ("pair-groupoid", {"k": 2}),
    "pair_groupoid2_bisection": ("pair-groupoid-bisection", {}),
    "interval_l2": ("interval", {"L": 2}),
    "interval_l3": ("interval", {"L": 3}),
    "twisted_z2_identity": ("twisted-zk-id", {"k": 2}),
    "twisted_z3_inversion": ("twisted-z3-inversion", {}),
    "graph_path3": ("graph-path", {"k": 3}),
    **{f"nolift_a{a}": ("nolift", {"a_size": a}) for a in range(4)},
    "point": ("point", {}),
}


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for name, (example, sizes) in FIXTURES.items():
        path = OUT / f"{name}.json"
        save_document(catalog.example(example, n_levels=4, **sizes), path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
