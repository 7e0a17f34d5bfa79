"""Benchmark inputs, made from the seed alone and written as CLI documents.

Nothing here imports schurlab: the admissibility filter for random hexads is
the benchmark's own, so the program only ever sees inputs it should accept.
"""
from __future__ import annotations

import random
from fractions import Fraction

STD_HEXAD = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9)]

# tests/test_acceptance.py::EIGHT_LINES (d = 4, n = 9).
EIGHT_LINES = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
               (1, 2, 3), (1, 4, 9), (2, 5, 1), (3, 1, 7)]

SIX_LINES = STD_HEXAD

# The monad maps of the README, with the form left out so that the program
# selects one (the README's own form is not compatible with these maps).
README_MAPS = [[[1, 0], [0, 0], [0, 0]],
               [[0, 0], [0, 1], [0, 0]],
               [[0, 0], [0, 0], [1, -1]]]

EXAMPLE_NAMES = ["clebsch", "bring", "triangle", "n2",
                 "hulsbergen4", "hulsbergen5", "schwarzenberger"]


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    work = [[Fraction(x) for x in row] for row in rows]
    n = len(work)
    out = Fraction(1)
    for col in range(n):
        sel = next((r for r in range(col, n) if work[r][col] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != col:
            work[col], work[sel] = work[sel], work[col]
            out = -out
        piv = work[col][col]
        out *= piv
        for r in range(col + 1, n):
            c = work[r][col] / piv
            if c:
                work[r] = [x - c * y for x, y in zip(work[r], work[col])]
    return out


def admissible(points) -> bool:
    """Pairwise distinct, no three collinear, not all six on a conic."""
    for i in range(6):
        for j in range(i + 1, 6):
            p, q = points[i], points[j]
            cross = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
                     p[0] * q[1] - p[1] * q[0])
            if cross == (0, 0, 0):
                return False
            for k in range(j + 1, 6):
                if det([p, q, points[k]]) == 0:
                    return False
    conic = [[p[0] * p[0], p[0] * p[1], p[0] * p[2],
              p[1] * p[1], p[1] * p[2], p[2] * p[2]] for p in points]
    return det(conic) != 0


def hexads(seed: int):
    """The standard hexad, then admissible random hexads with coordinates in
    [-9, 9], none repeated.  Endless; the same seed gives the same list."""
    yield [list(p) for p in STD_HEXAD]
    seen = {tuple(STD_HEXAD)}
    rng = random.Random(seed)
    while True:
        points = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(6)]
        if any(p == (0, 0, 0) for p in points) or tuple(points) in seen:
            continue
        if admissible(points):
            seen.add(tuple(points))
            yield [list(p) for p in points]


def rational_doc(key: str, value) -> dict:
    return {"field": {"type": "rational"}, key: value}
