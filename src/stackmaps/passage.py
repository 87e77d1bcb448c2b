"""Passage counts on words and the face-type evolution automata.

``gamma`` counts how many blocks a word over {1,2,3} completes: the first
block ends at the first occurrence of the letter 1, and each later block
ends as soon as it has collected all three letters.  Folding the face-type
evolution rules along a word gives the same number, which is the graph
distance to the root vertex of the triangulation vertex encoded by the word.

For the binary alphabet (quadrangulations) two inequivalent counts coexist:
the type-automaton distance ``quad_root_distance`` (consistent with BFS on
the constructed maps, used by default everywhere) and the block count
``gamma_prime_literal`` over W_{1,2} = {12,21}*{11,22}{1,2} (kept for
comparison; its renewal rate is 1/5 rather than 1/3).
"""

from __future__ import annotations

from functools import cache

from .maps import _SPLIT, QUADRANGULATION, TRIANGULATION
from .trees import Word, _letter_column, lca

FULL_MASK = 0b111


def _check_letters(word: Word, k: int) -> None:
    """ValueError, as ``tri_type`` and ``quad_type`` raise it, naming the
    first letter of the word outside 1..k.  A valid word costs one set."""
    alphabet = range(1, k + 1)
    if not set(word).issubset(alphabet):
        bad = next(x for x in word if x not in alphabet)
        raise ValueError(f"letter {bad} not in {{{','.join(map(str, alphabet))}}}")


# ---------------------------------------------------------------------------
# ternary words


def tau_decomposition(word: Word) -> list[int]:
    """Positions tau_1=0 < tau_2 < ... where blocks of the word close.

    tau_2 is the position of the first letter 1; afterwards a block closes
    at the first position where all of 1,2,3 have appeared since the
    previous boundary.  Only boundaries <= len(word) are returned.
    ValueError on a letter outside {1,2,3}.
    """
    _check_letters(word, 3)
    taus = [0]
    seen = 0
    waiting_for_one = True
    for pos, letter in enumerate(word, start=1):
        if waiting_for_one:
            if letter == 1:
                taus.append(pos)
                waiting_for_one = False
        else:
            seen |= 1 << (letter - 1)
            if seen == FULL_MASK:
                taus.append(pos)
                seen = 0
    return taus


def gamma(word: Word) -> int:
    """Number of closed blocks of the word (the boundary at 0 included)."""
    return len(tau_decomposition(word))


def gamma_pair(u: Word, v: Word) -> int:
    """Sum of the block counts of the suffixes of u and v past their last
    common ancestor.  Defined only when neither word is a prefix of the
    other (ancestor pairs have no two-sided decomposition)."""
    w = lca(u, v)
    if len(w) == len(u) or len(w) == len(v):
        raise ValueError("gamma_pair requires that neither word is an ancestor of the other")
    return gamma(u[len(w):]) + gamma(v[len(w):])


TriFaceType = tuple[int, int, int]


def tri_type(word: Word, start: TriFaceType = (0, 1, 1)) -> TriFaceType:
    """Distances to the root vertex of the three corners of the face
    reached by the word, folding the evolution rules from the type
    ``start`` of the face the word starts in (default: the root face):
    letter l replaces corner l by a new vertex at distance 1 + min."""
    i, j, k = start
    for letter in word:
        g = i if i < j else j
        g = 1 + (g if g < k else k)
        if letter == 1:
            i = g
        elif letter == 2:
            j = g
        elif letter == 3:
            k = g
        else:
            raise ValueError(f"letter {letter} not in {{1,2,3}}")
    return (i, j, k)


def tri_root_distance(word: Word) -> int:
    """Distance to the root vertex of the triangulation vertex inserted in
    the face reached by the word; equals gamma(word)."""
    return _root_distance(word, TRIANGULATION)


# ---------------------------------------------------------------------------
# binary words (quadrangulations)

QuadFaceType = tuple[int, int, int, int]


def quad_type(word: Word, start: QuadFaceType = (1, 2, 1, 0)) -> QuadFaceType:
    """Distances to the root vertex of the four corners (in construction
    order) of the face reached by the word; folds the rules
    (a,b,c,d) -> (b, 1+b∧d, d, a) / (b, 1+b∧d, d, c) from the type
    ``start`` of the face the word starts in (default: the root face)."""
    a, b, c, d = start
    for letter in word:
        x = 1 + (b if b < d else d)
        if letter == 1:
            a, b, c, d = b, x, d, a
        elif letter == 2:
            a, b, c, d = b, x, d, c
        else:
            raise ValueError(f"letter {letter} not in {{1,2}}")
    return (a, b, c, d)


def quad_root_distance(word: Word) -> int:
    """Distance to the root vertex of the quadrangulation vertex inserted
    in the face reached by the word (diagonal ends are the 2nd and 4th
    corners)."""
    return _root_distance(word, QUADRANGULATION)


# ---------------------------------------------------------------------------
# the type folds as tables

_FOLD = {TRIANGULATION: tri_type, QUADRANGULATION: quad_type}


@cache
def _root_distance_table(family: str) -> tuple[list, int]:
    """The family's face-type automaton, reduced to what the root distance
    reads: ``(rows, d)``, with ``d`` the root distance of the empty word.

    The vertex inserted in a face is at distance 1 + m from the root vertex,
    m the least distance of the corners it is joined to, and the rule
    ``_SPLIT`` commutes with adding a constant to every corner.  So a face
    type is reduced by its m, and the closure of the reduced types under the
    rule, from the root face's, is a finite set of states: 7 for
    triangulations, 3 for quadrangulations.  ``rows[s][c]`` is ``(row,
    step)``: the row of the state that letter c + 1 leads to from state s,
    and the change of m (0 or 1 for triangulations; -1 or 1 for
    quadrangulations, whose distances change parity at every level).
    """
    split, attach, _ = _SPLIT[family]

    def reduce(face):
        m = min(face[attach])
        return tuple(c - m for c in face), m

    start, m = reduce(_FOLD[family](()))
    row_of = {start: []}  # each reduced type's row, in the order they are reached
    reached = [start]
    for face in reached:  # grows while it is read, until no new type appears
        for child in split(face, 1):  # the inserted vertex is at 1 + 0
            child, step = reduce(child)
            if child not in row_of:
                row_of[child] = []
                reached.append(child)
            row_of[face].append((row_of[child], step))
    return list(row_of.values()), 1 + m


def _root_distance(word: Word, family: str) -> int:
    """1 + m of the face reached by the word, walking its table one row
    read per letter.  ValueError from the type fold, naming the first letter
    outside the alphabet."""
    rows, d = _root_distance_table(family)
    column, row = _letter_column(len(rows[0])), rows[0]
    try:
        for letter in word:
            row, step = row[column[letter]]
            d += step
    except (KeyError, TypeError):
        _FOLD[family](word)  # raises the fold's ValueError for a bad letter
        raise
    return d


def gamma_prime_literal(word: Word) -> int:
    """Block count over W_{1,2} = {12,21}* {11,22} {1,2}: maximal run of
    alternating pairs, one doubled pair, one closing letter.  A leftover
    suffix counts as one extra partial block unless it is a clean run of
    alternating pairs (possibly empty).  ValueError on a letter outside
    {1,2}."""
    _check_letters(word, 2)
    n = len(word)
    count = 1  # boundary at position 0
    pos = 0
    while True:
        j = pos
        while j + 1 < n and word[j] != word[j + 1]:
            j += 2
        if j + 2 >= n:  # no room for doubled pair + closing letter
            break
        pos = j + 3
        count += 1
    rest = word[pos:]
    clean = len(rest) % 2 == 0 and all(
        rest[i] != rest[i + 1] for i in range(0, len(rest), 2)
    )
    return count + (0 if clean else 1)


def gamma_prime_pair(u: Word, v: Word) -> int:
    """Pair version of the binary passage count through the lca, with the
    type-automaton distance ``quad_root_distance``."""
    w = lca(u, v)
    if len(w) == len(u) or len(w) == len(v):
        raise ValueError(
            "gamma_prime_pair requires that neither word is an ancestor of the other"
        )
    return quad_root_distance(u[len(w):]) + quad_root_distance(v[len(w):])
