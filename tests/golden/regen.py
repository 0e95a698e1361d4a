#!/usr/bin/env python3
"""Regenerate the frozen expected values for the bundled supplier dataset.

This script is a deliberately independent re-derivation: it reads the raw
dataset JSON directly and recomputes every stage with label-frozenset mass
dictionaries and an exhaustive all-subset-pairs combination rule. It imports
nothing from the package under test, so its output can serve as an oracle
for the pipeline.

Run from the repository root:

    python3 tests/golden/regen.py [OUTPUT]

OUTPUT defaults to the committed ``supplier_selection_expected.json``.
"""

import json
import sys
from itertools import chain, combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATASET = HERE.parent.parent / "src" / "intervalfusion" / "data" / "supplier-selection.json"
OUTPUT = HERE / "supplier_selection_expected.json"

IS = frozenset({"IS"})
NS = frozenset({"NS"})
BOTH = frozenset({"IS", "NS"})
FRAME = ("IS", "NS")


def nonempty_subsets(labels):
    items = list(labels)
    return [
        frozenset(c) for r in range(1, len(items) + 1) for c in combinations(items, r)
    ]


def combine(m1, m2, subsets):
    """Exhaustive normalized conjunctive combination over all subset pairs."""
    total = {}
    k = 0.0
    for x in subsets:
        for y in subsets:
            p = m1.get(x, 0.0) * m2.get(y, 0.0)
            inter = x & y
            if inter:
                total[inter] = total.get(inter, 0.0) + p
            else:
                k += p
    if k >= 1.0:
        raise ValueError("total conflict")
    return {s: v / (1.0 - k) for s, v in total.items()}


def combine_all(masses, subsets):
    result = masses[0]
    for m in masses[1:]:
        result = combine(result, m, subsets)
    return result


def normalize_triple(triple):
    s = sum(triple)
    return [x / s for x in triple] if s != 1.0 else list(triple)


def discount(triple, w):
    a, b, _ = triple
    return [a * w, b * w, 1.0 - a * w - b * w]


def as_mass(triple):
    return {IS: triple[0], NS: triple[1], BOTH: triple[2]}


def as_triple(mass):
    return [mass.get(IS, 0.0), mass.get(NS, 0.0), mass.get(BOTH, 0.0)]


def main(output=OUTPUT):
    doc = json.loads(DATASET.read_text())
    dms = [entry["name"] for entry in doc["decision_makers"]]
    alts = doc["alternatives"]
    crits = doc["criteria"]
    subsets = nonempty_subsets(FRAME)

    crit_w = {e["name"]: e["criterion_weights"] for e in doc["decision_makers"]}
    dm_w = {e["name"]: e["weight"] for e in doc["decision_makers"]}

    a_max = max(bound for ws in crit_w.values() for w in ws for bound in w)
    norm_crit = {
        dm: [[w[0] / a_max, w[1] / a_max] for w in crit_w[dm]] for dm in dms
    }
    d_max = max(bound for w in dm_w.values() for bound in w)
    norm_dm = {dm: [dm_w[dm][0] / d_max, dm_w[dm][1] / d_max] for dm in dms}

    cells = {}
    per_dm = {}
    for dm in dms:
        cells[dm] = {}
        per_dm[dm] = {}
        for alt in alts:
            lefts, rights, cell_rows = [], [], {}
            for c, crit in enumerate(crits):
                rating = normalize_triple(doc["ratings"][dm][alt][crit])
                lo, hi = norm_crit[dm][c]
                left = discount(rating, lo)
                right = discount(rating, hi)
                cell_rows[crit] = {"left": left, "right": right}
                lefts.append(as_mass(left))
                rights.append(as_mass(right))
            cells[dm][alt] = cell_rows
            per_dm[dm][alt] = {
                "left": as_triple(combine_all(lefts, subsets)),
                "right": as_triple(combine_all(rights, subsets)),
            }

    dm_discounted = {}
    final = {}
    collapsed = {}
    bets = {}
    for alt in alts:
        lefts, rights = [], []
        for dm in dms:
            lo, hi = norm_dm[dm]
            left = discount(per_dm[dm][alt]["left"], lo)
            right = discount(per_dm[dm][alt]["right"], hi)
            dm_discounted.setdefault(alt, {})[dm] = {"left": left, "right": right}
            lefts.append(as_mass(left))
            rights.append(as_mass(right))
        fused_left = combine_all(lefts, subsets)
        fused_right = combine_all(rights, subsets)
        final[alt] = {"left": as_triple(fused_left), "right": as_triple(fused_right)}
        merged = combine(fused_left, fused_right, subsets)
        collapsed[alt] = as_triple(merged)
        bets[alt] = merged.get(IS, 0.0) + merged.get(BOTH, 0.0) / 2.0

    ranking = sorted(alts, key=lambda a: -bets[a])
    left_bets = {a: final[a]["left"][0] + final[a]["left"][2] / 2.0 for a in alts}
    right_bets = {a: final[a]["right"][0] + final[a]["right"][2] / 2.0 for a in alts}

    expected = {
        "normalized_criterion_weights": norm_crit,
        "normalized_dm_weights": norm_dm,
        "cells": cells,
        "per_dm_fused": per_dm,
        "dm_discounted": dm_discounted,
        "final": final,
        "collapsed": collapsed,
        "bets": bets,
        "ranking": ranking,
        "ranking_by_left_part": sorted(alts, key=lambda a: -left_bets[a]),
        "ranking_by_right_part": sorted(alts, key=lambda a: -right_bets[a]),
    }
    output.write_text(json.dumps(expected, indent=2) + "\n")
    print(f"wrote {output}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUTPUT)
