"""Independent plain-float recomputation of the method, and result digests.

This module imports nothing from the package. It reads the raw document
dictionary, applies the documented schema rules (weights as numbers,
intervals or linguistic terms; rating triples rescaled to a unit sum) and
runs the five steps on (m_IS, m_NS, m_ISNS) float triples, using the
closed form of Dempster's rule on the two-element frame. Results are
compared with the package's within the README tolerance (1e-9 absolute).
"""

from __future__ import annotations

import hashlib
import math
import struct

TOLERANCE = 1e-9

#: The two built-in scales, as documented in the README.
BUILTIN_SCALES = {
    "interval-default": {
        "kind": "interval",
        "terms": {
            "Very low (VL)": [0.0, 0.3],
            "Low (L)": [0.1, 0.5],
            "Medium (M)": [0.3, 0.7],
            "High (H)": [0.5, 0.9],
            "Very high (VH)": [0.7, 1.0],
        },
    },
    "kaufmann-tfn": {
        "kind": "tfn",
        "terms": {
            "Very low (VL)": [0.0, 0.1, 0.3],
            "Low (L)": [0.1, 0.3, 0.5],
            "Medium (M)": [0.3, 0.5, 0.7],
            "High (H)": [0.5, 0.7, 0.9],
            "Very high (VH)": [0.7, 0.9, 1.0],
        },
    },
}


def weight_interval(value, scales: dict, alpha: float) -> tuple[float, float]:
    if isinstance(value, (int, float)):
        return float(value), float(value)
    if isinstance(value, list):
        return float(value[0]), float(value[1])
    scale = scales[value["scale"]]
    term = scale["terms"][value["term"]]
    if scale["kind"] == "interval":
        return float(term[0]), float(term[1])
    a, b, c = map(float, term)
    return a + alpha * (b - a), c - alpha * (c - b)


def rating_triple(raw) -> tuple[float, float, float]:
    numbers = [float(x) for x in raw]
    total = math.fsum(numbers)
    if total != 1.0:
        numbers = [x / total for x in numbers]
    return tuple(numbers)


def parsed(body: dict, alpha: float):
    """(dm weights, criterion weights[d][c], ratings[d][a][c]) as plain floats."""
    scales = dict(BUILTIN_SCALES)
    scales.update(body.get("scales", {}))
    dms = body["decision_makers"]
    dm_w = [weight_interval(dm["weight"], scales, alpha) for dm in dms]
    crit_w = [[weight_interval(w, scales, alpha) for w in dm["criterion_weights"]] for dm in dms]
    ratings = [
        [
            [rating_triple(body["ratings"][dm["name"]][alt][crit]) for crit in body["criteria"]]
            for alt in body["alternatives"]
        ]
        for dm in dms
    ]
    return dm_w, crit_w, ratings


def _normalized(group):
    top = max(hi for _, hi in group)
    return [(lo / top, hi / top) for lo, hi in group]


def _discount(t, w):
    p, q = t[0] * w, t[1] * w
    return p, q, max(1.0 - p - q, 0.0)


def _combine(x, y):
    a1, b1, c1 = x
    a2, b2, c2 = y
    norm = 1.0 - (a1 * b2 + b1 * a2)
    return (
        (a1 * a2 + a1 * c2 + c1 * a2) / norm,
        (b1 * b2 + b1 * c2 + c1 * b2) / norm,
        c1 * c2 / norm,
    )


def _fold(triples):
    result = triples[0]
    for t in triples[1:]:
        result = _combine(result, t)
    return result


def bets(body: dict, alpha: float = 0.0, normalization: str = "pooled") -> list[float]:
    """Pignistic belief in IS for every alternative, in document order."""
    dm_w, crit_w, ratings = parsed(body, alpha)
    n_crit = len(body["criteria"])
    if normalization == "pooled":
        flat = _normalized([w for ws in crit_w for w in ws])
        crit_w = [flat[d * n_crit : (d + 1) * n_crit] for d in range(len(dm_w))]
    else:
        crit_w = [_normalized(ws) for ws in crit_w]
    dm_w = _normalized(dm_w)
    result = []
    for a in range(len(body["alternatives"])):
        left, right = [], []
        for d, (dlo, dhi) in enumerate(dm_w):
            cells = ratings[d][a]
            fused_l = _fold([_discount(t, w[0]) for t, w in zip(cells, crit_w[d])])
            fused_r = _fold([_discount(t, w[1]) for t, w in zip(cells, crit_w[d])])
            left.append(_discount(fused_l, dlo))
            right.append(_discount(fused_r, dhi))
        m = _combine(_fold(left), _fold(right))
        result.append(m[0] + m[2] / 2.0)
    return result


def check_ranking(body: dict, alpha: float, normalization: str, got_bets, got_ranking) -> list[str]:
    """Mismatches between a package result and the recomputation; empty when they agree."""
    want = bets(body, alpha, normalization)
    alts = body["alternatives"]
    problems = [
        f"bet of {alt!r}: package {g!r}, oracle {w!r}"
        for alt, g, w in zip(alts, got_bets, want)
        if not abs(g - w) <= TOLERANCE
    ]
    if sorted(got_ranking) != sorted(alts):
        problems.append("ranking is not a permutation of the alternatives")
    else:
        by_label = dict(zip(alts, want))
        ordered = [by_label[label] for label in got_ranking]
        problems += [
            f"ranking puts {got_ranking[i]!r} before {got_ranking[i + 1]!r}"
            for i in range(len(ordered) - 1)
            if ordered[i] < ordered[i + 1] - TOLERANCE
        ]
    return problems


def check_loaded(body: dict, alpha: float, dm_weights, criterion_weights, ratings) -> list[str]:
    """Compare a loaded problem, given as plain floats, with the documented schema rules."""
    dm_w, crit_w, want_ratings = parsed(body, alpha)
    problems = []
    got_w = [tuple(w) for w in dm_weights] + [tuple(w) for ws in criterion_weights for w in ws]
    want_w = dm_w + [w for ws in crit_w for w in ws]
    for i, (g, w) in enumerate(zip(got_w, want_w)):
        if max(abs(g[0] - w[0]), abs(g[1] - w[1])) > TOLERANCE:
            problems.append(f"weight {i}: package {g!r}, oracle {w!r}")
    flat_got = [t for dm in ratings for row in dm for t in row]
    flat_want = [t for dm in want_ratings for row in dm for t in row]
    if len(flat_got) != len(flat_want) or len(got_w) != len(want_w):
        problems.append("problem dimensions differ")
    for i, (g, w) in enumerate(zip(flat_got, flat_want)):
        if max(abs(x - y) for x, y in zip(g, w)) > TOLERANCE:
            problems.append(f"rating {i}: package {g!r}, oracle {w!r}")
            break
    return problems


# --- digests --------------------------------------------------------------------


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in values)


def ranking_fingerprint(bets_, ranking) -> str:
    return "bets:" + _hex(bets_) + ";ranking:" + ",".join(ranking)


def problem_fingerprint(dm_weights, criterion_weights, ratings) -> str:
    """SHA-256 of every weight endpoint and rating mass, bit for bit, with the problem's shape."""
    shape = (len(ratings), len(ratings[0]), len(ratings[0][0]))
    values = [x for w in dm_weights for x in w]
    values += [x for ws in criterion_weights for w in ws for x in w]
    values += [x for dm in ratings for row in dm for t in row for x in t]
    packed = struct.pack(f"<{len(values)}d", *values)
    return "problem:%dx%dx%d:" % shape + hashlib.sha256(packed).hexdigest()


def digest(fingerprints) -> str:
    h = hashlib.sha256()
    for fp in fingerprints:
        h.update(fp.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
