"""Independent reference implementations used as test oracles.

Everything here works on plain dictionaries keyed by label frozensets and
enumerates all subset pairs exhaustively, so it shares no code path with the
package's closed form on (IS, NS, full frame) triples.
"""

from itertools import combinations


def nonempty_subsets(labels):
    items = tuple(labels)
    return [
        frozenset(c) for r in range(1, len(items) + 1) for c in combinations(items, r)
    ]


def brute_combine(labels, m1, m2):
    """Normalized conjunctive combination, enumerating every pair of
    non-empty subsets of the frame (focal or not). Returns (masses, K)."""
    subsets = nonempty_subsets(labels)
    total = {}
    k = 0.0
    for x in subsets:
        for y in subsets:
            p = m1.get(x, 0.0) * m2.get(y, 0.0)
            if p == 0.0:
                continue
            inter = x & y
            if inter:
                total[inter] = total.get(inter, 0.0) + p
            else:
                k += p
    norm = 1.0 - k
    if norm <= 0.0:
        return None, k
    return {s: v / norm for s, v in total.items()}, k


def brute_pignistic(labels, m):
    bets = {label: 0.0 for label in labels}
    for subset, value in m.items():
        for label in subset:
            bets[label] += value / len(subset)
    return bets


def crisp_discount(triple, w):
    """Scalar reliability discount of an (ideal, negative, both) triple."""
    a, b, _ = triple
    return (a * w, b * w, 1.0 - a * w - b * w)


def crisp_rank(dm_weights, criterion_weights, ratings):
    """Crisp-weight pipeline over plain float triples.

    ``dm_weights[d]`` is a scalar, ``criterion_weights[d][c]`` a scalar, and
    ``ratings[d][a][c]`` an (ideal, negative, both) triple. Returns the list
    of bet values for the ideal hypothesis, one per alternative.
    """
    labels = ("IS", "NS")
    is_, ns, both = frozenset({"IS"}), frozenset({"NS"}), frozenset({"IS", "NS"})

    def as_mass(triple):
        return {is_: triple[0], ns: triple[1], both: triple[2]}

    def as_triple(mass):
        return (mass.get(is_, 0.0), mass.get(ns, 0.0), mass.get(both, 0.0))

    def fold(masses):
        result = masses[0]
        for m in masses[1:]:
            result, _ = brute_combine(labels, result, m)
        return result

    a_max = max(w for ws in criterion_weights for w in ws)
    crit_w = [[w / a_max for w in ws] for ws in criterion_weights]
    d_max = max(dm_weights)
    dm_w = [w / d_max for w in dm_weights]

    n_alt = len(ratings[0])
    bets = []
    for a in range(n_alt):
        per_dm = []
        for d in range(len(dm_weights)):
            cells = [
                as_mass(crisp_discount(ratings[d][a][c], crit_w[d][c]))
                for c in range(len(crit_w[d]))
            ]
            fused = as_triple(fold(cells))
            per_dm.append(as_mass(crisp_discount(fused, dm_w[d])))
        fused = fold(per_dm)
        # collapsing a degenerate interval BPA combines the part with itself
        merged, _ = brute_combine(labels, fused, fused)
        bets.append(merged.get(is_, 0.0) + merged.get(both, 0.0) / 2.0)
    return bets
