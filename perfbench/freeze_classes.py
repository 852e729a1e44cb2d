"""Freeze the zigzag equivalence classes that the `laws` workload checks against.

The classes come from the brute-force mediator-zigzag oracle in
`tests/oracles.py`, which shares no code path with `garbage.aux_equiv`.  They
are computed with garbage up to 3 (the setting the acceptance suite validates)
and restricted to garbage up to 2, the hom-sets `enumerate_aux_pinj(a, b, 2)`
yields for a, b < 4.  Each morphism is keyed by its JSON form, so the file
stays valid if the in-memory representation changes.

Run from the repository root:  python3 perfbench/freeze_classes.py
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import oracles  # noqa: E402

from morphkey import morphism_key  # noqa: E402

ORACLE_GARBAGE = 3
MAX_GARBAGE = 2
SIZES = range(4)


def main() -> None:
    blocks = {}
    for a in SIZES:
        for b in SIZES:
            morphisms, roots = oracles.zigzag_equivalent_pairs(a, b, ORACLE_GARBAGE)
            labels = {}
            block = {}
            for i, m in enumerate(morphisms):
                if m.garbage_size <= MAX_GARBAGE:
                    block[morphism_key(m)] = labels.setdefault(roots[i], len(labels))
            blocks[f"{a},{b}"] = block
            print(f"a={a} b={b}: {len(block)} morphisms, {len(set(block.values()))} classes")
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "zigzag_classes.json")
    with open(out, "w") as fh:
        json.dump({"oracle_max_garbage": ORACLE_GARBAGE, "max_garbage": MAX_GARBAGE,
                   "blocks": blocks}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
