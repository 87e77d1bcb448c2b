"""Passage counts on words and the face-type evolution automata.

``gamma`` counts how many blocks a word over {1,2,3} completes: the first
block ends at the first occurrence of the letter 1, and each later block
ends as soon as it has collected all three letters.  Walking the face-type
automaton along a word gives the same number, which is the graph distance
to the root vertex of the triangulation vertex encoded by the word.

For the binary alphabet (quadrangulations) two inequivalent counts coexist:
the type-automaton distance ``quad_root_distance`` (consistent with BFS on
the constructed maps, used by default everywhere) and the block count
``gamma_prime_literal`` over W_{1,2} = {12,21}*{11,22}{1,2} (kept for
comparison; its renewal rate is 1/5 rather than 1/3).
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .maps import _ROOT_FACE, _SPLIT, QUADRANGULATION, TRIANGULATION, _checked_links
from .trees import Word, _depths, _letter_column, _root_path_sum, _stable_argsort, lca

FULL_MASK = 0b111


def _check_letters(word: Word, k: int) -> None:
    """ValueError naming the first letter of the word outside 1..k, an
    unhashable one included.  A valid word costs one set."""
    alphabet = range(1, k + 1)
    try:
        if set(word).issubset(alphabet):
            return
    except TypeError:  # an unhashable letter
        pass
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
    return _past_lca(u, v, gamma, "gamma_pair")


def _past_lca(u: Word, v: Word, count, name: str) -> int:
    """``count`` of the suffix of u past the lca of u and v, plus that of
    v's; ValueError, naming the caller ``name``, if either word is a prefix
    of the other."""
    w = lca(u, v)
    if len(w) == len(u) or len(w) == len(v):
        raise ValueError(f"{name} requires that neither word is an ancestor of the other")
    return count(u[len(w):]) + count(v[len(w):])


def tri_type(word: Word) -> tuple[int, int, int]:
    """Distances to the root vertex of the three corners of the face
    reached by the word: m + the reduced type of its ``_type_table`` state."""
    row, d = _type_table(TRIANGULATION)
    column = _letter_column(3)
    try:
        for letter in word:
            row, step = row[column[letter]]
            d += step
    except (KeyError, TypeError):
        _check_letters(word, 3)
        raise
    i, j, k = row[3]
    return (d - 1 + i, d - 1 + j, d - 1 + k)


def tri_root_distance(word: Word) -> int:
    """Distance to the root vertex of the triangulation vertex inserted in
    the face reached by the word; equals gamma(word)."""
    return _root_distance(word, TRIANGULATION)


# ---------------------------------------------------------------------------
# binary words (quadrangulations)


def quad_type(word: Word) -> tuple[int, int, int, int]:
    """Distances to the root vertex of the four corners (in construction
    order) of the face reached by the word, read as ``tri_type`` reads them."""
    row, d = _type_table(QUADRANGULATION)
    column = _letter_column(2)
    try:
        for letter in word:
            row, step = row[column[letter]]
            d += step
    except (KeyError, TypeError):
        _check_letters(word, 2)
        raise
    a, b, c, e = row[2]
    return (d - 1 + a, d - 1 + b, d - 1 + c, d - 1 + e)


def quad_root_distance(word: Word) -> int:
    """Distance to the root vertex of the quadrangulation vertex inserted
    in the face reached by the word (diagonal ends are the 2nd and 4th
    corners)."""
    return _root_distance(word, QUADRANGULATION)


# ---------------------------------------------------------------------------
# the face-type automata as tables


@cache
def _type_table(family: str) -> tuple[list, int]:
    """The family's face-type automaton: ``(row, d)``, the row of the state
    of the empty word and its root distance.  A type is the distances of a
    face's corners to the root vertex, the root face's its ring distances.
    The vertex inserted in a face is at 1 + m, m the least distance of the
    corners it is joined to, and ``_SPLIT`` commutes with adding a constant
    to every corner, so a type is reduced by its m; a few reduced types are
    reached (7 tri, 3 quad).  With k the arity, ``row[c]`` for c < k is the
    row letter c + 1 leads to and the change of m (0 or 1 tri; -1 or 1 quad,
    whose distances change parity at every level); ``row[k]`` is the state's
    reduced type."""
    split, attach, _ = _SPLIT[family]
    root = _ROOT_FACE[family]

    def reduce(face):
        m = min(face[attach])
        return tuple(c - m for c in face), m

    start, m = reduce(tuple(min(v, len(root) - v) for v in root))
    row_of = {start: []}  # each reduced type's row, in the order they are reached
    reached = [start]
    for face in reached:  # grows while it is read, until no new type appears
        for child in split(face, 1):  # the inserted vertex is at 1 + 0
            child, step = reduce(child)
            if child not in row_of:
                row_of[child] = []
                reached.append(child)
            row_of[face].append((row_of[child], step))
        row_of[face].append(face)
    return row_of[start], 1 + m


def _root_distance(word: Word, family: str) -> int:
    """1 + m of the face reached by the word, one row read per letter;
    ValueError naming the first letter outside the alphabet."""
    row, d = _type_table(family)
    column = _letter_column(len(row) - 1)
    try:
        for letter in word:
            row, step = row[column[letter]]
            d += step
    except (KeyError, TypeError):
        _check_letters(word, len(column))
        raise
    return d


@cache
def _type_arrays(family: str) -> tuple[np.ndarray, np.ndarray, int]:
    """``_type_table`` as flat arrays: ``(move, step, d)``, with state s the
    s-th reduced type reached (0 the empty word's) and k the arity;
    ``move[k * s + l - 1]`` is k times the state letter l leads to and
    ``step[k * s + l - 1]`` the change of m on the way, and d the root
    distance of the empty word."""
    start, d = _type_table(family)
    k = len(start) - 1
    rows = [start]
    state = {start[k]: 0}
    for row in rows:  # grows while it is read, in the order the types are reached
        for child, _ in row[:k]:
            if child[k] not in state:
                state[child[k]] = len(rows)
                rows.append(child)
    move = np.array([k * state[child[k]] for row in rows for child, _ in row[:k]])
    step = np.array([s for row in rows for _, s in row[:k]])
    return move, step, d


def root_distances(parent, letter, family: str) -> np.ndarray:
    """Distance from the root vertex (vertex 0) to the vertex of each
    internal node r, read off the face tree given by its links with no map
    built: the face-type automaton walked down every branch at once.  The
    links are indexed by node, as ``maps.csr_from_links`` reads them, but
    need only list each parent before its children (insertion order does).
    ValueError as in ``maps._checked_links``.

    The nodes are sorted by depth, and each level is one numpy step: a
    node's state is its parent's moved by its letter.  A node's distance is
    then the root node's plus the changes of m summed over its root path
    (``_root_path_sum``).
    """
    parent, letter = _checked_links(parent, letter, family)
    move, step, d = _type_arrays(family)
    depth = _depths(parent)
    order = _stable_argsort(depth)
    up, arc = np.maximum(parent, 0), letter - 1  # the root is its own parent
    state = np.zeros(len(parent), dtype=np.int64)  # k times each node's state
    ends = np.cumsum(np.bincount(depth)).tolist()
    for a, b in zip(ends, ends[1:]):
        level = order[a:b]
        state[level] = move[state[up[level]] + arc[level]]
    arc += state[up]
    weight = step[arc]
    weight[:1] = 0
    return d + _root_path_sum(up, weight)


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
    return _past_lca(u, v, quad_root_distance, "gamma_prime_pair")
