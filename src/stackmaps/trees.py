"""Words, ordered full trees, exhaustive enumeration and tree samplers.

Tree nodes are addressed by words: tuples of letters in {1..arity}, the
empty tuple being the root.  Trees themselves are stored as flat arrays in
preorder (= lexicographic order of the words), which keeps child access and
traversals O(1) per step even for trees with 10^5+ nodes; the word of a node
is computed on demand.
"""

from __future__ import annotations

from functools import cache
from numbers import Real
from typing import NamedTuple

import numpy as np

Word = tuple[int, ...]

ROOT: Word = ()

#: safety bound for exhaustive enumeration
DEFAULT_EXHAUSTIVE_BOUND = 8


def lca(u: Word, v: Word) -> Word:
    """Longest common prefix of two words."""
    k = 0
    for a, b in zip(u, v):
        if a != b:
            break
        k += 1
    return u[:k]


def is_valid_tree(nodes, arity: int) -> bool:
    """Check the four invariants of a full ordered tree given as a word set:
    root present, prefix-closed, left-sibling-closed, every node with 0 or
    `arity` children."""
    nodeset = {tuple(w) for w in nodes}
    if ROOT not in nodeset:
        return False
    for w in nodeset:
        for letter in w:
            if not 1 <= letter <= arity:
                return False
        if w and w[:-1] not in nodeset:
            return False
        if w and w[-1] > 1 and w[:-1] + (w[-1] - 1,) not in nodeset:
            return False
    for w in nodeset:
        nchildren = sum(1 for i in range(1, arity + 1) if w + (i,) in nodeset)
        if nchildren not in (0, arity):
            return False
    return True


class _Navigation(NamedTuple):
    """Navigation lists of an ``OrderedTree``: ``rank[i]`` is node i's rank
    among the internal nodes in preorder (-1 for a leaf) and ``internal[r]``
    the node of rank r; ``children[i]`` is the tuple of node i's children in
    letter order (``()`` for a leaf), so a word is looked up with one read
    per letter.
    """

    parent: list[int]
    letter: list[int]
    rank: list[int]
    internal: list[int]
    children: list[tuple[int, ...]]
    end: list[int]


@cache
def _letter_column(arity: int) -> dict[int, int]:
    """Letter -> index in a children tuple.  A letter outside 1..arity is
    a KeyError, a non-integer one too, while 1.0 or np.int64(1) is 1."""
    return {letter: letter - 1 for letter in range(1, arity + 1)}


class OrderedTree:
    """Full ordered tree of fixed arity, nodes indexed 0..n-1 in preorder.

    The tree is its offspring sequence, a read-only int64 array:
    ``offspring[i]`` is 0 (leaf) or ``arity``, and the constructor checks a
    copy of the caller's values with ``_open_slots``, the one check of the
    tree condition.  The navigation arrays are built together the first
    time anything reads them: ``parent[i]`` / ``letter[i]`` give the parent
    index and the child letter (root: parent -1, letter 0), and a child table
    gives each node's children, so a word is looked up with one table read
    per letter.
    """

    __slots__ = ("arity", "offspring", "_nav")

    def __init__(self, arity: int, offspring):
        offspring = _open_slots(arity, np.array(offspring))[0]
        offspring.flags.writeable = False
        self.arity, self.offspring = arity, offspring
        self._nav: _Navigation | None = None

    def _arrays(self) -> _Navigation:
        """The navigation arrays, built together on the first call from the
        slot each node fills (``_slot_pairing``)."""
        if self._nav is None:
            inner, slot, height, pops = _slot_pairing(self.arity, self.offspring)
            n = len(slot)
            parent = np.append(inner, -1)[slot // self.arity]  # the root's slot is -1
            letter = (slot % self.arity + 1) * (slot >= 0)
            rank = np.full(n, -1, dtype=np.int64)
            rank[inner] = np.arange(len(inner))
            child = np.empty(n - 1, dtype=np.int64)  # child l of rank r at k * r + l - 1
            child[slot[1:]] = np.arange(1, n)
            # end[i], one past the subtree of i, is the first later position
            # with one open slot less.  Sorted by (open slots, position), the
            # positions are n (none open), then the pops', searched in order.
            key = np.append(n, height[pops] * (n + 1) + pops)
            end = np.empty(n, dtype=np.int64)
            end[pops] = key[np.searchsorted(key, key[1:] - (n + 1))] % (n + 1)
            ids = np.arange(-1, n + 1).astype(object)  # -1..n: the lists share these ints
            parent, letter, rank, internal, end = (
                ids[a + 1].tolist() for a in (parent, letter, rank, inner, end))
            children = [()] * n  # a leaf's
            columns = ids[child + 1].reshape(-1, self.arity).T.tolist()
            for i, kids in zip(internal, zip(*columns)):
                children[i] = kids
            self._nav = _Navigation(parent, letter, rank, internal, children, end)
        return self._nav

    @property
    def parent(self) -> list[int]:
        return self._arrays().parent

    @property
    def letter(self) -> list[int]:
        return self._arrays().letter

    # -- basic structure ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.offspring)

    @property
    def n_internal(self) -> int:
        return (len(self.offspring) - 1) // self.arity

    def children(self, i: int) -> tuple[int, ...]:
        """Child indices of node i in letter order.

        Children of a node are NOT contiguous in preorder: the first is
        i + 1, each later one starts where its left sibling's subtree ends.
        """
        return self._arrays().children[self._node(i)]

    def subtree_end(self, i: int) -> int:
        """Index one past the last node of the subtree rooted at i."""
        return self._arrays().end[self._node(i)]

    def _node(self, i: int) -> int:
        if not 0 <= i < len(self.offspring):
            raise ValueError(f"node {i} is not a node id 0..{len(self.offspring) - 1}")
        return i

    def word(self, i: int) -> Word:
        i = self._node(i)
        parent, letter = self.parent, self.letter
        rev = []
        while i > 0:
            rev.append(letter[i])
            i = parent[i]
        return tuple(reversed(rev))

    def words(self) -> list[Word]:
        parent, letter = self.parent, self.letter
        out: list[Word] = [()] * len(self)
        for i in range(1, len(self)):
            out[i] = out[parent[i]] + (letter[i],)
        return out

    def index_of(self, w: Word) -> int:
        """Preorder index of the node with word w; KeyError if there is
        none (a letter outside 1..arity, a non-integer one included, or a
        step below a leaf)."""
        children, column = self._arrays().children, _letter_column(self.arity)
        i = 0
        try:
            for letter in w:
                i = children[i][column[letter]]
        except (KeyError, IndexError):  # a bad letter; a leaf's () has no child
            raise KeyError(w) from None
        return i

    def internal_indices(self) -> list[int]:
        return np.flatnonzero(self.offspring).tolist()

    def internal_words(self) -> list[Word]:
        """Words of the internal nodes in preorder, each built from its
        parent's, which is internal too: no leaf word is made."""
        nav = self._arrays()
        parent, letter, rank = nav.parent, nav.letter, nav.rank
        out: list[Word] = [()] * len(nav.internal)
        for r, i in enumerate(nav.internal[1:], 1):
            out[r] = out[rank[parent[i]]] + (letter[i],)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_internal_words(cls, arity: int, internal) -> "OrderedTree":
        """The tree with the given internal-node words; ValueError unless
        the set is closed under parent and its letters lie in 1..arity."""
        return cls(arity, offspring_from_internal_words(arity, internal))

    @classmethod
    def single_leaf(cls, arity: int) -> "OrderedTree":
        return cls(arity, [0])

    # -- equality / serialization -----------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrderedTree)
            and self.arity == other.arity
            and np.array_equal(self.offspring, other.offspring)
        )

    def __hash__(self) -> int:
        return hash((self.arity, tuple(self.offspring.tolist())))

    def __repr__(self) -> str:
        return f"OrderedTree(arity={self.arity}, n={len(self)})"

    def to_parens(self) -> str:
        """Balanced-parenthesis encoding: internal node = '(' children ')',
        leaf = empty string; letters implicit by position."""
        parts: list[str] = []
        pending: list[int] = []
        for c in self.offspring.tolist():
            if c:
                parts.append("(")
                pending.append(self.arity)
            else:
                parts.append("o")
                while pending and pending[-1] == 1:
                    parts.append(")")
                    pending.pop()
                if pending:
                    pending[-1] -= 1
        return "".join(parts)

    @classmethod
    def from_parens(cls, arity: int, s: str) -> "OrderedTree":
        """Inverse of ``to_parens``: ValueError on any other string, which
        is decoded ('(' internal, 'o' a leaf, ')' dropped), checked as an
        offspring sequence, and must be what ``to_parens`` writes for it."""
        count = {"(": arity, "o": 0}
        try:
            offspring = [count[ch] for ch in s if ch != ")"]
        except KeyError as e:
            raise ValueError(f"bad character {e.args[0]!r}") from None
        t = cls(arity, offspring)
        if t.to_parens() != s:
            raise ValueError("')' out of place in parenthesis string")
        return t


class IncreasingTree:
    """Leaf-growth tree, held as one read-only int64 array in insertion order.

    Internal node k (k = 0..K-1) is the one inserted at step k, node 0
    being the root, so labels increase along branches.  ``slot[k] =
    arity * parent + letter - 1`` names the leaf it replaced, child
    ``letter`` of internal node ``parent``; ``slot[0]`` is -1, and an empty
    array is the single leaf.  The constructor is the one check of a slot
    list: ValueError unless it is a one-dimensional list of integers, and
    empty, or slot 0 is -1 and each later node k fills a slot in
    0..arity*k - 1 that no other fills.  The word views ``skeleton`` and
    ``labels`` are built on demand, for the API, and ``from_skeleton`` is
    the one builder from words.
    """

    __slots__ = ("arity", "slot")

    def __init__(self, arity: int, slot):
        slot = np.array(slot)
        if slot.ndim != 1:
            raise ValueError(f"slot list is not one-dimensional: shape {slot.shape}")
        if slot.dtype != np.int64:
            if slot.dtype.kind not in "biuf":  # strings, None or other objects
                for k, x in enumerate(slot.tolist()):
                    if not isinstance(x, Real):
                        raise ValueError(f"slot {x!r} of node {k} is not a number")
            if (frac := slot % 1 != 0).any():  # the cast would truncate it
                k = frac.argmax()
                raise ValueError(f"slot {slot[k]} of node {k} is not an integer")
            slot = slot.astype(np.int64)
        if slot.size and slot[0] != -1:
            raise ValueError(f"slot 0 is {slot[0]}, not -1 (the root)")
        k = np.arange(1, len(slot))
        if (bad := (slot[1:] < 0) | (slot[1:] >= arity * k)).any():
            k = bad.argmax() + 1
            raise ValueError(f"slot {slot[k]} of node {k} is outside 0..{arity * k - 1}")
        if (twice := np.bincount(slot[1:]) > 1).any():
            raise ValueError(f"slot {twice.argmax()} is filled twice")
        slot.flags.writeable = False
        self.arity, self.slot = arity, slot

    def __eq__(self, other) -> bool:
        return (isinstance(other, IncreasingTree) and self.arity == other.arity
                and np.array_equal(self.slot, other.slot))

    def __repr__(self) -> str:
        return f"IncreasingTree(arity={self.arity}, K={len(self.slot)})"

    @classmethod
    def from_skeleton(cls, arity: int, words) -> "IncreasingTree":
        """Inverse of ``skeleton``: the tree whose internal node k has word
        ``words[k]``.  One pass in insertion order; ValueError on a repeated
        word, a word whose parent is not before it, or a last letter outside
        1..arity (every letter is a last one, since parents come first)."""
        rank: dict[Word, int] = {}
        slot: list[int] = []
        for w in map(tuple, words):
            if w in rank:
                raise ValueError(f"internal word {w} is repeated")
            if w:
                parent = rank.get(w[:-1])
                if parent is None:
                    raise ValueError(f"internal word {w} has no parent before it")
                if not 1 <= w[-1] <= arity:
                    raise ValueError(f"internal word {w} has a letter outside 1..{arity}")
                slot.append(arity * parent + w[-1] - 1)
            else:
                slot.append(-1)
            rank[w] = len(rank)
        return cls(arity, slot)

    @property
    def skeleton(self) -> list[Word]:
        """Internal-node words in insertion order: label(skeleton[k]) = k+1."""
        a = self.arity
        out: list[Word] = [ROOT] if len(self.slot) else []
        for s in self.slot[1:].tolist():
            out.append(out[s // a] + (s % a + 1,))
        return out

    @property
    def labels(self) -> dict[Word, int]:
        return {w: k + 1 for k, w in enumerate(self.skeleton)}

    def offspring(self) -> np.ndarray:
        """Preorder offspring sequence of the shape; a single leaf when there
        is no internal node."""
        out = np.zeros(self.arity * len(self.slot) + 1, dtype=np.int64)
        out[self._preorder()] = self.arity
        return out

    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """Parent and letter of each internal node, both indexed by its
        preorder rank among the internal nodes: the node of rank r is child
        ``letter[r]`` of the node of rank ``parent[r]`` (the root, rank 0,
        has parent -1 and letter 0).  These are the arrays
        ``preorder_links`` reads off the offspring sequence."""
        a, slot = self.arity, self.slot
        pos = self._preorder()
        inner = np.zeros(a * len(slot) + 1, dtype=np.int64)
        inner[pos] = 1
        rank = (inner.cumsum() - 1)[pos]
        parent = np.full(len(slot), -1, dtype=np.int64)
        letter = np.zeros(len(slot), dtype=np.int64)
        parent[rank[1:]] = rank[slot[1:] // a]
        letter[rank[1:]] = slot[1:] % a + 1
        return parent, letter

    def _preorder(self) -> np.ndarray:
        """Preorder position of each internal node among all nodes, in
        insertion order.

        A slot holding node k spans a * (internal nodes under k) + 1 nodes
        of the preorder, an empty slot 1.  Node k comes 1 + (the spans of
        its left siblings) after its parent, so its position is that gap
        summed over its root path.  Only the subtree counts take a Python
        pass, in reverse insertion order since children come after parents.
        """
        a, slot, K = self.arity, self.slot, len(self.slot)
        parent = np.maximum(slot // a, 0)  # the root, in slot -1, is its own
        count = [1] * K  # internal nodes in each subtree
        for k, p in zip(range(K - 1, 0, -1), reversed(parent.tolist())):
            count[p] += count[k]
        span = np.ones(a * K, dtype=np.int64)
        span[slot[1:]] = a * np.array(count[1:], dtype=np.int64) + 1
        before = span.reshape(K, a).cumsum(axis=1).ravel() - span  # left siblings'
        gap = np.zeros(K, dtype=np.int64)
        gap[1:] = 1 + before[slot[1:]]
        return _root_path_sum(parent, gap)

    def shape(self) -> OrderedTree:
        return OrderedTree(self.arity, self.offspring())

    def depths(self) -> np.ndarray:
        """Depths of the internal nodes in insertion order."""
        return _depths(self.slot // self.arity)  # the root, in slot -1, has parent -1


def _depths(parent: np.ndarray) -> np.ndarray:
    """Depth of each node of a tree given by ``parent``, with the root at 0
    and its parent -1: ``_root_path_sum`` of one edge up per other node."""
    return _root_path_sum(np.maximum(parent, 0), (parent >= 0).astype(np.int64))


def _root_path_sum(parent: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Sum of ``weight`` over each node and its ancestors, for a tree given
    by ``parent`` with the root at 0 (``parent[0] = 0``, ``weight[0] = 0``).

    Pointer doubling: ``total[k]`` holds the sum from k up to, not
    including, ``up[k]``, and each round doubles the length of that stretch,
    so the rounds number about log2 of the height.
    """
    total = weight.copy()
    up = parent.copy()
    while up.any():
        total += total[up]
        up = up[up]
    return total


# ---------------------------------------------------------------------------
# structure helpers


def height_process(t: OrderedTree) -> list[int]:
    """Depths of the internal nodes taken in lexicographic order."""
    return _depths(preorder_links(t.arity, t.offspring)[0]).tolist()


def tree_distance(u: Word, v: Word) -> int:
    """Graph distance between two nodes of a tree, as words."""
    w = lca(u, v)
    return (len(u) - len(w)) + (len(v) - len(w))


def _subtree_end(offspring, i: int) -> int:
    """Index one past the subtree of node i, read off the flat preorder
    offspring sequence alone (no tree object built)."""
    depth = 1
    while depth:
        depth += offspring[i] - 1
        i += 1
    return i


def _open_slots(arity: int, offspring) -> tuple[np.ndarray, np.ndarray]:
    """The one check of the tree condition on a preorder offspring sequence:
    the sequence as an int64 array and the open child slots before each of
    its n + 1 positions (1 before the root; each node fills one and opens
    its count).  ValueError at the first fault in sequence order: a count
    other than 0 or ``arity``, a node after the slots ran out, or slots
    still open at the end."""
    off = np.asarray(offspring)
    if off.ndim != 1:
        raise ValueError(f"offspring sequence is not one-dimensional: shape {off.shape}")
    n, internal = len(off), off != 0
    height = np.ones(n + 1, dtype=np.int64)  # summed in place: a fresh array costs more
    np.multiply(internal, arity, out=height[1:])
    height[1:] -= 1
    np.cumsum(height, out=height)
    invalid = internal & (off != arity)
    if (fault := invalid | (height[:n] < 1)).any():
        i = fault.argmax()
        if invalid[i]:
            raise ValueError(f"offspring count {off[i]} invalid for arity {arity}")
        raise ValueError("offspring sequence ends early")
    if height[n]:
        raise ValueError("offspring sequence is incomplete")
    return off.astype(np.int64, copy=False), height


def _slot_pairing(arity: int, offspring):
    """``(inner, slot, height, pops)`` of a preorder offspring sequence: the
    internal nodes' positions; the slot each node fills, ``arity * r + l -
    1`` for child l of the internal node of rank r (-1 for the root); the
    open slots before each of the n + 1 positions; and the nodes in stable
    order of their slot's stack position.  ValueError from ``_open_slots``
    if the sequence is no tree's.

    The preorder is a walk over a stack of open child slots: each node takes
    the slot on top, and an internal node then pushes its ``arity`` child
    slots, letter 1 on top.  At each stack position the pushes and the pops
    alternate, so the k-th pop there takes the k-th push there, and one
    stable sort of each side by position pairs them all.
    """
    off, height = _open_slots(arity, offspring)
    n = len(off)
    top = height[:n] - 1  # the stack position of each node's slot
    inner = np.flatnonzero(off)
    # push 0 is the root's slot, push 1 + arity*r + l - 1 is child l of the
    # internal node of rank r
    pushed = np.zeros(arity * len(inner) + 1, dtype=np.int64)
    pushed[1:] = (top[inner, None] + np.arange(arity - 1, -1, -1)).ravel()
    pops = _stable_argsort(top)
    slot = np.empty(n, dtype=np.int64)
    slot[pops] = _stable_argsort(pushed) - 1
    return inner, slot, height, pops


def preorder_links(arity: int, offspring) -> tuple[np.ndarray, np.ndarray]:
    """Parent and letter of each internal node, indexed by preorder rank
    among the internal nodes, as ``IncreasingTree.links`` gives them, read
    off an offspring sequence by ``_slot_pairing``, with its ValueErrors."""
    inner, slot, _, _ = _slot_pairing(arity, offspring)
    return _slot_links(arity, slot[inner])


def _slot_links(arity: int, slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parent and letter of the node in each slot: slot s is child
    s % arity + 1 of node s // arity, and the root, in slot -1, has parent
    -1 and letter 0.  Read off an ``IncreasingTree``'s slots, these are its
    links in insertion order."""
    parent, letter = np.divmod(slot, arity)
    letter += 1
    letter[:1] = 0  # the root, in slot -1
    return parent, letter


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative integer keys.

    numpy radix-sorts integer types of 16 bits or less and uses timsort on
    wider ones, so the keys are cast to the narrowest unsigned type that
    holds them, and wider keys are sorted 16 bits at a time, the low bits
    first: each pass is stable, so the permutation is the same.
    """
    if not keys.size:
        return np.argsort(keys, kind="stable")
    if keys.max() >> 16:
        order = _stable_argsort(keys & 0xFFFF)
        return order[_stable_argsort(keys[order] >> 16)]
    return np.argsort(keys.astype(np.min_scalar_type(keys.max()), copy=False), kind="stable")


def offspring_from_internal_words(arity: int, internal) -> np.ndarray:
    """Preorder offspring sequence of the full tree whose internal-node set
    is given: the words, shortest first, are an insertion order, which
    ``IncreasingTree.from_skeleton`` checks."""
    words = sorted({tuple(w) for w in internal}, key=len)
    return IncreasingTree.from_skeleton(arity, words).offspring()


# ---------------------------------------------------------------------------
# enumeration


def enumerate_trees(arity: int, n_internal: int, bound: int = DEFAULT_EXHAUSTIVE_BOUND):
    """All full trees of the given arity with exactly n_internal internal
    nodes, each exactly once, in increasing lexicographic order of their
    offspring sequences.

    One depth-first pass over the prefixes of the offspring sequence tries
    a leaf before an internal node, so the trees come out sorted; a prefix
    is extended by a leaf only while it keeps an open slot for the internal
    nodes still to place."""
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    if n_internal < 0:
        raise ValueError(f"n_internal must be >= 0, got {n_internal}")
    if n_internal > bound:
        raise ValueError(f"n_internal={n_internal} exceeds exhaustive bound {bound}")
    out = []
    stack = [((), 0)]  # (prefix, its internal nodes); the top is extended next
    while stack:
        prefix, internal = stack.pop()
        open_slots = 1 + arity * internal - len(prefix)
        if internal == n_internal:  # only leaves are left to place
            out.append(OrderedTree(arity, prefix + (0,) * open_slots))
            continue
        stack.append((prefix + (arity,), internal + 1))
        if open_slots > 1:
            stack.append((prefix + (0,), internal))
    return out


# ---------------------------------------------------------------------------
# samplers
#
# All samplers take a numpy Generator.  The documented seed -> stream mapping
# is np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))) with
# per-replica substreams seeded by SeedSequence((seed, replica_index)).


def rng_from_seed(seed: int, replica: int | None = None) -> np.random.Generator:
    entropy = seed if replica is None else (seed, replica)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def sample_offspring_sequence(arity: int, n_internal: int, rng) -> np.ndarray:
    """Preorder offspring counts of a uniform full tree with ``n_internal``
    internal nodes, via the cycle lemma.

    The Lukasiewicz step multiset (n_internal steps of +(arity-1), the rest
    -1) is shuffled and the unique rotation starting after the first minimum
    of the partial sums is an excursion, giving exact uniformity.
    """
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    if n_internal < 0:
        raise ValueError(f"n_internal must be >= 0, got {n_internal}")
    n_nodes = arity * n_internal + 1
    steps = np.full(n_nodes, -1, dtype=np.int64)
    steps[:n_internal] = arity - 1
    rng.shuffle(steps)
    walk = np.cumsum(steps)
    m = int(np.argmin(walk))
    steps = np.roll(steps, -(m + 1))
    return steps + 1


def sample_uniform_tree(arity: int, n_internal: int, rng) -> OrderedTree:
    """Exactly uniform full tree with the given number of internal nodes."""
    return OrderedTree(arity, sample_offspring_sequence(arity, n_internal, rng))


def sample_increasing_tree(arity: int, K: int, rng) -> IncreasingTree:
    """Leaf-growth tree with K internal nodes: start from a single leaf and
    K times replace a uniformly chosen leaf by an internal node with
    ``arity`` children (K = 0 leaves the single leaf and draws nothing).

    The unlabeled shape follows the growth distribution (weight proportional
    to the number of increasing labelings).  Step k picks entry
    ``picks[k-1]`` of the leaf list, which then holds 1 + (arity-1)k
    leaves, and all picks come from one draw.  The picked leaf's entry
    takes the last leaf, and the new node's children are appended in
    letter order.

    That list is never built: the leaf each pick reads has a closed form.
    Before step k the last leaf is always arity*k - 1.  Entry j was last
    written either by the latest earlier step s that picked it, with the
    last leaf arity*s - 1 (unless j was that last entry, j = (arity-1)s),
    or else by the append of step s' = min(j // (arity-1), k-1), with the
    fresh leaf s' + j.  One stable sort of the picks gives each step the
    previous step with the same pick.
    """
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    if K < 0:
        raise ValueError("K must be >= 0")
    if not K:
        return IncreasingTree(arity, [])
    picks = rng.integers(0, 1 + (arity - 1) * np.arange(1, K), dtype=np.int64)
    step = np.arange(1, K)
    order = _stable_argsort(picks)
    same = picks[order[1:]] == picks[order[:-1]]
    prev = np.zeros(K - 1, dtype=np.int64)  # previous step with this pick, 0: none
    prev[order[1:][same]] = order[:-1][same] + 1
    swapped = (prev > 0) & (picks[prev - 1] != (arity - 1) * prev)
    fresh = np.minimum(picks // (arity - 1), step - 1) + picks
    return IncreasingTree(arity, np.append(-1, np.where(swapped, arity * prev - 1, fresh)))


class CapExceeded(RuntimeError):
    """Raised when a random generation step exceeds its node cap."""


def sample_gw_tree(arity: int, rng, cap: int = 10**6) -> OrderedTree:
    """Unconditioned critical Galton-Watson tree: offspring 0 with
    probability (arity-1)/arity, ``arity`` with probability 1/arity.

    Raises CapExceeded when the node count passes ``cap`` (critical GW trees
    have infinite expected size)."""
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    offspring: list[int] = []
    open_slots = 1
    while open_slots:
        if len(offspring) >= cap:
            raise CapExceeded(f"GW tree exceeded cap of {cap} nodes")
        if rng.random() < 1.0 / arity:
            offspring.append(arity)
            open_slots += arity - 1
        else:
            offspring.append(0)
            open_slots -= 1
    return OrderedTree(arity, offspring)
