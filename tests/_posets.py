"""Face posets of small triangulated surfaces, shared by the test files.

Each poset is (n, relations x <= y) on the nonempty faces of a simplicial
complex, numbered by size and then lexicographically; its incidence algebra
is spanned by the matrix units E_xy with x <= y.
"""

import itertools


def _face_poset(facets):
    """(n, relations x <= y) of the nonempty faces of a simplicial complex."""
    faces = sorted({frozenset(s) for f in facets for k in range(1, len(f) + 1)
                    for s in itertools.combinations(f, k)},
                   key=lambda s: (len(s), sorted(s)))
    return len(faces), [(x, y) for x, a in enumerate(faces)
                        for y, b in enumerate(faces) if a <= b]


SPHERE = _face_poset([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
RP2 = _face_poset([tuple(map(int, t)) for t in
                   "124 126 135 136 145 234 235 256 346 456".split()])
# Möbius–Császár 7-vertex torus: {i, i+1, i+3} and {i, i+2, i+3} mod 7
TORUS = _face_poset([tuple(map(int, t)) for t in
                     "013 124 235 346 045 156 026 "
                     "023 134 245 356 046 015 126".split()])
