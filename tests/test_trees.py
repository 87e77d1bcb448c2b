"""Ordered trees, samplers, and structural helpers."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackmaps import maps
from stackmaps import trees as trees_mod
from stackmaps.counting import count_trees
from stackmaps.localtopo import infinite_map_ball, sample_spine_tree
from stackmaps.maps import QUADRANGULATION, TRIANGULATION, map_from_tree, tree_from_map
from stackmaps.trees import (
    CapExceeded,
    IncreasingTree,
    OrderedTree,
    enumerate_trees,
    height_process,
    is_valid_tree,
    lca,
    offspring_from_internal_words,
    preorder_links,
    rng_from_seed,
    sample_gw_tree,
    sample_increasing_tree,
    sample_offspring_sequence,
    sample_uniform_tree,
    tree_distance,
)


def test_single_leaf():
    t = OrderedTree.single_leaf(3)
    assert len(t) == 1
    assert t.internal_words() == []
    assert t.words() == [()]


def test_words_roundtrip_small():
    t = OrderedTree(3, [3, 0, 3, 0, 0, 0, 0])
    ws = t.words()
    assert ws[0] == ()
    assert len(ws) == 7
    for i, w in enumerate(ws):
        assert t.word(i) == w
        assert t.index_of(w) == i
    assert t.internal_words() == [(), (2,)]


@pytest.mark.parametrize("arity", [2, 3])
def test_internal_words_are_the_words_of_the_internal_nodes(arity):
    rng = rng_from_seed(24)
    cases = [OrderedTree.single_leaf(arity),
             OrderedTree.from_internal_words(arity, [(1,) * k for k in range(2000)])]
    cases += [sample_uniform_tree(arity, n, rng) for n in (1, 2, 10, 500)]
    cases += [sample_increasing_tree(arity, 300, rng).shape()]
    for t in cases:
        ws = t.words()
        assert t.internal_words() == [ws[i] for i in t.internal_indices()]


def test_children_not_contiguous():
    # root has an internal first child, so sibling 2 is far from sibling 1
    t = OrderedTree(3, [3, 3, 0, 0, 0, 0, 0])
    kids = t.children(0)
    assert [t.word(i) for i in kids] == [(1,), (2,), (3,)]


def test_node_ids_out_of_range_rejected():
    t = OrderedTree(3, [3, 0, 0, 0])
    for i in (-1, -3, 4):
        for call in (t.word, t.subtree_end, t.children):
            with pytest.raises(ValueError, match=f"node {i} is not a node id 0..3"):
                call(i)
    assert (t.word(3), t.subtree_end(3), t.children(0)) == ((3,), 4, (1, 2, 3))


def test_index_of_rejects_letters_outside_alphabet():
    t = OrderedTree(3, [3, 0, 0, 0])
    for w in [(0,), (-1,), (4,), (1, 1), (1.5,), ("1",)]:
        with pytest.raises(KeyError):
            t.index_of(w)
    # a letter equal to an int is that letter
    assert t.index_of((1.0,)) == t.index_of((True,)) == 1 and t.index_of((np.int64(3),)) == 3
    # a leaf word is a node; a step below a leaf, or a bad letter deeper
    # down, is not
    for arity in (2, 3):
        t = OrderedTree.from_internal_words(arity, [(), (1,)])
        assert t.index_of((2,)) == arity + 2
        for w in [(2, 1), (1, 1, 1), (1, 0), (1, arity + 1), (0, 1)]:
            with pytest.raises(KeyError):
                t.index_of(w)
        assert OrderedTree.single_leaf(arity).index_of(()) == 0


@pytest.mark.parametrize("arity", [2, 3])
def test_child_access_matches_word_set(arity):
    # reference: children, subtree ends and indices read off the word list
    rng = rng_from_seed(31)
    for n in (0, 1, 5, 40, 300):
        t = sample_uniform_tree(arity, n, rng)
        words = t.words()
        index = {w: i for i, w in enumerate(words)}
        internal = [w for i, w in enumerate(words) if t.offspring[i]]
        rank = {w: r for r, w in enumerate(internal)}
        for i, w in enumerate(words):
            kids = tuple(index[w + (a,)] for a in range(1, arity + 1)) if t.offspring[i] else ()
            assert t.children(i) == kids
            if n <= 40:
                assert t.subtree_end(i) == i + sum(1 for v in words if v[: len(w)] == w)
            assert t.index_of(w) == i
            assert t._arrays().rank[i] == rank.get(w, -1)


def _reference_check_message(arity, offspring):
    """Message the stack-based constructor gave for an offspring sequence
    (None if it accepted it); it accepted the empty sequence, which is now
    rejected as incomplete."""
    if not offspring:
        return "offspring sequence is incomplete"
    stack = []
    for i, c in enumerate(offspring):
        if c not in (0, arity):
            return f"offspring count {c} invalid for arity {arity}"
        if i > 0:
            if not stack:
                return "offspring sequence ends early"
            stack[-1][1] += 1
            if stack[-1][1] > arity:
                stack.pop()
        if c:
            stack.append([i, 1])
    return "offspring sequence is incomplete" if stack else None


@pytest.mark.parametrize("arity", [2, 3])
def test_constructor_rejects_invalid_offspring(arity):
    # every sequence of length <= 7 over {0, 1, arity}, the empty one
    # included: the constructor, the links and the map builder all give the
    # reference's verdict and message (the last two used to take any nonzero
    # count for ``arity`` and to word the early end otherwise)
    family = {3: TRIANGULATION, 2: QUADRANGULATION}[arity]
    entry_points = [
        lambda off: OrderedTree(arity, off),
        lambda off: preorder_links(arity, off),
        lambda off: maps.csr_from_offspring(off, family),
    ]
    for n in range(8):
        for off in itertools.product((0, 1, arity), repeat=n):
            want = _reference_check_message(arity, off)
            for build in entry_points:
                if want is None:
                    build(off)
                else:
                    with pytest.raises(ValueError) as err:
                        build(off)
                    assert str(err.value) == want, off
            if want is None:
                assert len(OrderedTree(arity, off)) == n


@pytest.mark.parametrize("offspring", [[3.5, 0, 0, 0], np.array([3.5, 0, 0, 0]), [3, 0.5, 0, 0],
                                       np.array([[3, 0], [0, 0]])])
def test_fractional_counts_are_not_truncated(offspring):
    # int(3.5) == 3 would read a one-node tree; the 2-D array used to raise
    # numpy's "non-broadcastable output operand"
    if np.ndim(offspring) == 1:
        bad = next(c for c in offspring if c not in (0, 3))
        match = f"^offspring count {bad} invalid for arity 3$"
    else:
        match = r"^offspring sequence is not one-dimensional: shape \(2, 2\)$"
    for build in (OrderedTree, preorder_links):
        with pytest.raises(ValueError, match=match):
            build(3, offspring)
    assert OrderedTree(3, np.array([3.0, 0, 0, 0])).offspring.tolist() == [3, 0, 0, 0]


def test_one_function_raises_the_tree_condition():
    # the tree condition on offspring sequences is checked in
    # trees._open_slots alone: no other function may raise its messages
    messages = ("invalid for arity", "ends early", "is incomplete")
    raisers = []
    for path in sorted(Path(trees_mod.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise):
                    texts = [c.value for c in ast.walk(node)
                             if isinstance(c, ast.Constant) and isinstance(c.value, str)]
                    raisers += [(path.name, func.name, m) for m in messages
                                if any(m in text for text in texts)]
    assert sorted(set(raisers)) == [("trees.py", "_open_slots", m) for m in sorted(messages)]


def test_empty_tree_rejected():
    for arity in (2, 3):
        with pytest.raises(ValueError, match="offspring sequence is incomplete"):
            OrderedTree(arity, [])
        with pytest.raises(ValueError, match="offspring sequence is incomplete"):
            OrderedTree.from_parens(arity, "")


def test_navigation_arrays_built_on_first_use():
    rng = rng_from_seed(33)
    t = sample_uniform_tree(3, 50, rng)
    u = OrderedTree(3, list(t.offspring))
    assert t == u and hash(t) == hash(u)
    assert OrderedTree.from_parens(3, t.to_parens()) == t
    assert t._nav is None and u._nav is None
    parent = t.parent
    assert t._nav is not None and t.letter is t._arrays().letter
    assert t.parent is parent  # built once


@pytest.mark.parametrize("arity", [2, 3])
def test_navigation_lists_share_one_set_of_ints(arity):
    # a tolist() per list would make a new int per entry, about twice the memory
    # and the children tuples hold those same ints
    t = sample_uniform_tree(arity, 1000, rng_from_seed(34))
    nav = t._arrays()
    ints = [x for l in nav if l is not nav.children for x in l]
    ints += [x for kids in nav.children for x in kids]
    assert all(type(x) is int for x in ints)
    assert len({id(x) for x in ints}) <= len(t) + 2


def test_from_internal_words_matches_offspring():
    internal = {(), (2,), (2, 2)}
    t = OrderedTree.from_internal_words(3, internal)
    assert set(t.internal_words()) == internal
    assert sum(t.offspring) == 3 * len(internal)


def test_from_internal_words_rejects_unclosed():
    with pytest.raises(ValueError):
        OrderedTree.from_internal_words(3, {(1, 1)})


@pytest.mark.parametrize("arity, good, bad", [
    (3, [()], [(5,), (0,)]),
    (3, [()], [(4,)]),
    (2, [()], [(3,)]),
    (2, [(), (1,)], [(1, 0)]),
    (3, [(), (2,)], [(2, -1)]),
])
def test_from_internal_words_rejects_letters_outside_alphabet(arity, good, bad):
    # these words used to be dropped, leaving a smaller tree
    with pytest.raises(ValueError, match=f"outside 1..{arity}") as e:
        OrderedTree.from_internal_words(arity, good + bad)
    assert any(f"word {w} " in str(e.value) for w in bad)


@pytest.mark.parametrize("arity, words, match", [
    (3, [(), (1,), (1,)], "repeated"),
    (3, [(), ()], "repeated"),
    (3, [(), (1, 1), (1,)], "no parent before it"),
    (2, [(1,), ()], "no parent before it"),
    (3, [(), (4,)], "outside 1..3"),
    (2, [(), (0,)], "outside 1..2"),
    (2, [(), (1,), (1, 3)], "outside 1..2"),
])
def test_from_skeleton_rejects(arity, words, match):
    with pytest.raises(ValueError, match=match):
        IncreasingTree.from_skeleton(arity, words)


@pytest.mark.parametrize("internal", [[(), (1, 1)], [(), (7,)]])
def test_offspring_from_internal_words_rejects(internal):
    # both used to give the one-node tree [3, 0, 0, 0], dropping a word
    with pytest.raises(ValueError):
        offspring_from_internal_words(3, internal)


def test_offspring_from_internal_words_iterative_deep():
    # a path of depth 5000 would blow the recursion limit if done recursively
    chain = {tuple([1] * d) for d in range(5000)}
    off = offspring_from_internal_words(3, chain)
    assert (off == 3).sum() == 5000
    assert len(off) == 3 * 5000 + 1


def test_parens_roundtrip():
    for t in enumerate_trees(3, 3):
        assert OrderedTree.from_parens(3, t.to_parens()) == t
    for t in enumerate_trees(2, 4):
        assert OrderedTree.from_parens(2, t.to_parens()) == t


@pytest.mark.parametrize("arity, max_len", [(2, 11), (3, 9)])
def test_from_parens_accepts_exactly_to_parens(arity, max_len):
    # every string over "(", ")", "o" up to max_len characters; ")" used to
    # be skipped, so "(o)oo", "(ooo", "o)))" and ")(ooo" all parsed as "(ooo)"
    valid = {
        t.to_parens()
        for n in range(max_len // 2 + 1)
        for t in enumerate_trees(arity, n)
        if len(t.to_parens()) <= max_len
    }
    for n in range(max_len + 1):
        for chars in itertools.product("()o", repeat=n):
            s = "".join(chars)
            if s in valid:
                assert OrderedTree.from_parens(arity, s).to_parens() == s
            else:
                with pytest.raises(ValueError):
                    OrderedTree.from_parens(arity, s)


@pytest.mark.parametrize("arity, s, message", [
    (3, "(oox)", "bad character 'x'"),
    (2, "(o.o)", "bad character '.'"),
    (3, "(ooo)o", "offspring sequence ends early"),
    (2, "((oo", "offspring sequence is incomplete"),
    (3, "(oo(oo)", "offspring sequence is incomplete"),
    (3, "(ooo", "')' out of place in parenthesis string"),
    (3, "(o)oo", "')' out of place in parenthesis string"),
    (2, "(oo))", "')' out of place in parenthesis string"),
    (2, ")(oo)", "')' out of place in parenthesis string"),
    (2, "o)", "')' out of place in parenthesis string"),
])
def test_from_parens_messages(arity, s, message):
    # a bad character, then a fault of the decoded offspring sequence, then
    # a ')' anywhere to_parens would not write it
    with pytest.raises(ValueError) as err:
        OrderedTree.from_parens(arity, s)
    assert str(err.value) == message


def test_is_valid_tree():
    assert is_valid_tree([(), (1,), (2,), (3,)], 3)
    assert is_valid_tree([()], 3)
    assert not is_valid_tree([(), (1,)], 3)          # 1 child, not 0 or 3
    assert not is_valid_tree([(), (2,), (3,)], 3)    # missing left sibling
    assert not is_valid_tree([(1,)], 3)              # no root


def test_lca_and_tree_distance():
    assert lca((1, 2, 3), (1, 2, 1)) == (1, 2)
    assert tree_distance((1, 2, 3), (1, 2, 1)) == 2
    assert tree_distance((), (1, 1)) == 2
    assert tree_distance((2,), (2,)) == 0


def test_enumerate_trees_counts():
    assert [len(enumerate_trees(3, n)) for n in range(5)] == [1, 1, 3, 12, 55]
    assert [len(enumerate_trees(2, n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]


@pytest.mark.parametrize("arity", [2, 3])
def test_enumerate_trees_sorted_and_counted(arity):
    for n in range(7):
        seqs = [t.offspring.tolist() for t in enumerate_trees(arity, n)]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))  # strictly increasing
        assert len(seqs) == count_trees(arity, n)
    with pytest.raises(ValueError, match="must be >= 0"):
        enumerate_trees(arity, -1)


@pytest.mark.parametrize("arity", [0, 1])
def test_enumerate_trees_rejects_arity_below_2(arity):
    # arity 0 used to raise "offspring sequence ends early", and arity 1 to
    # give a unary path that count_trees refuses
    with pytest.raises(ValueError, match=f"^arity must be >= 2, got {arity}$"):
        enumerate_trees(arity, 2)


def test_enumerate_trees_distinct_and_valid():
    ts = enumerate_trees(3, 3)
    assert len({tuple(t.offspring) for t in ts}) == len(ts)
    for t in ts:
        assert is_valid_tree(t.words(), 3)


def test_height_process_matches_word_depths():
    rng = rng_from_seed(11)
    t = sample_uniform_tree(3, 50, rng)
    hp = height_process(t)
    assert hp == [len(w) for w in t.internal_words()]
    for arity in (2, 3):  # the single leaf has no internal node; the path 1^2000 is deep
        assert height_process(OrderedTree.single_leaf(arity)) == []
        path = OrderedTree(arity, [arity] * 2000 + [0] * ((arity - 1) * 2000 + 1))
        assert height_process(path) == list(range(2000))


def test_sample_uniform_tree_valid_and_uniform():
    rng = rng_from_seed(5)
    counts = {}
    for _ in range(6000):
        t = sample_uniform_tree(3, 2, rng)
        counts[tuple(t.offspring)] = counts.get(tuple(t.offspring), 0) + 1
    assert len(counts) == 3  # all shapes reached
    for c in counts.values():
        assert abs(c / 6000 - 1 / 3) < 0.03


def test_sample_offspring_sequence_shape():
    rng = rng_from_seed(0)
    off = sample_offspring_sequence(3, 100, rng)
    assert (np.asarray(off) == 3).sum() == 100
    assert len(off) == 301
    assert is_valid_tree(OrderedTree(3, list(off)).words(), 3)


def test_sample_increasing_tree_labels_increase():
    rng = rng_from_seed(3)
    it = sample_increasing_tree(3, 40, rng)
    labels = it.labels
    for w, k in labels.items():
        if w:
            assert labels[w[:-1]] < k
    assert isinstance(it.shape(), OrderedTree)
    assert len(it.shape().internal_words()) == 40


def test_increasing_tree_first_split_uniform():
    # the second internal node lands on each root child with prob 1/3
    counts = [0, 0, 0]
    for r in range(3000):
        it = sample_increasing_tree(3, 2, rng_from_seed(77, r))
        counts[it.skeleton[1][0] - 1] += 1
    for c in counts:
        assert abs(c / 3000 - 1 / 3) < 0.04


def _increasing_skeleton_reference(arity, K, rng):
    """Leaf growth one draw per step, on word tuples."""
    if not K:
        return []
    skeleton = [()]
    leaves = [(i,) for i in range(1, arity + 1)]
    for _ in range(K - 1):
        j = int(rng.integers(len(leaves)))
        u = leaves[j]
        leaves[j] = leaves[-1]
        leaves.pop()
        skeleton.append(u)
        leaves.extend(u + (i,) for i in range(1, arity + 1))
    return skeleton


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("K", [0, 1, 2, 50, 2000, 10**4, 70000])
def test_increasing_tree_matches_per_step_reference(arity, K):
    # same picks from the same stream, and the same stream left behind
    rng, ref_rng = rng_from_seed(31, K), rng_from_seed(31, K)
    it = sample_increasing_tree(arity, K, rng)
    skeleton = _increasing_skeleton_reference(arity, K, ref_rng)
    assert it.skeleton == skeleton
    assert IncreasingTree.from_skeleton(arity, skeleton) == it
    assert rng.random() == ref_rng.random()
    assert it.shape() == OrderedTree.from_internal_words(arity, skeleton)
    assert it.depths().tolist() == [len(w) for w in skeleton]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(0, 300), st.integers(0, 2**32 - 1))
def test_increasing_tree_sampler_property(arity, K, seed):
    # small K over many seeds: repeated positions and picks of the last leaf
    rng, ref_rng = rng_from_seed(seed), rng_from_seed(seed)
    it = sample_increasing_tree(arity, K, rng)
    skeleton = _increasing_skeleton_reference(arity, K, ref_rng)
    assert it == IncreasingTree.from_skeleton(arity, skeleton)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("arity", [1, 0, -1])
@pytest.mark.parametrize("K", [0, 6])
def test_increasing_tree_rejects_an_arity_it_cannot_grow(arity, K):
    # arity 1 gave a divide-by-zero warning and the slot list [-1, 0, 0, ...],
    # arity 0 numpy's "high <= 0"; the error comes before any draw
    rng, ref_rng = rng_from_seed(32), rng_from_seed(32)
    with pytest.raises(ValueError, match=f"arity must be >= 2, got {arity}"):
        sample_increasing_tree(arity, K, rng)
    assert rng.random() == ref_rng.random()


def _offspring_reference(arity, slot):
    """Preorder offspring sequence by a stack walk over a slot-to-node table."""
    child = [-1] * (arity * len(slot))  # node in each slot, -1 for a leaf
    for k in range(1, len(slot)):
        child[slot[k]] = k
    out = []
    stack = [0 if slot else -1]
    while stack:
        v = stack.pop()
        if v < 0:
            out.append(0)
        else:
            out.append(arity)
            stack.extend(reversed(child[arity * v:arity * v + arity]))
    return out


def _depths_reference(arity, slot):
    depth = [0] if slot else []
    for s in slot[1:]:
        depth.append(depth[s // arity] + 1)
    return depth


def _navigation_reference(arity, offspring):
    """The navigation arrays of ``OrderedTree._arrays`` by a walk over the
    stack of open child slots, and a reverse pass over the ranks for the
    subtree ends."""
    n = len(offspring)
    parent = [-1] * n
    letter = [0] * n
    rank = [-1] * n
    child = [0] * (n - 1)  # arity slots per internal node
    internal = []  # rank -> preorder index
    slots = []  # open child slots, the next one on top
    for i, c in enumerate(offspring):
        if i:
            s = slots.pop()
            child[s] = i
            parent[i] = internal[s // arity]
            letter[i] = s % arity + 1
        if c:
            r = len(internal)
            rank[i] = r
            internal.append(i)
            slots.extend(range(arity * r + arity - 1, arity * r - 1, -1))
    # the subtree of i ends where the subtree of its last child ends
    end = list(range(1, n + 1))
    for r in range(len(internal) - 1, -1, -1):
        end[internal[r]] = end[child[arity * r + arity - 1]]
    children = [tuple(child[arity * rank[i]:arity * rank[i] + arity]) if c else ()
                for i, c in enumerate(offspring)]
    return parent, letter, rank, internal, children, end


def _links_reference(arity, offspring):
    """Parent rank and letter of each internal node, read off the reference
    navigation arrays."""
    parent, letter, rank = _navigation_reference(arity, offspring)[:3]
    inner = [i for i, c in enumerate(offspring) if c]
    return [rank[parent[i]] if i else -1 for i in inner], [letter[i] for i in inner]


def _check_against_reference(it):
    offspring = _offspring_reference(it.arity, it.slot.tolist())
    assert it.offspring().tolist() == offspring
    assert it.depths().tolist() == _depths_reference(it.arity, it.slot.tolist())
    parent, letter = it.links()
    assert (parent.tolist(), letter.tolist()) == _links_reference(it.arity, offspring)


@pytest.mark.parametrize("slot, match", [
    ([-1, -1], "slot -1 of node 1 is outside 0..2"),
    ([-1, 0, 0], "slot 0 is filled twice"),
    ([-1, 0, 6], "slot 6 of node 2 is outside 0..5"),
    ([0, 0], "slot 0 is 0, not -1"),
    ([-1, 0.5, 2.9], r"^slot 0\.5 of node 1 is not an integer$"),  # the cast gave [-1, 0, 2]
    ([[-1]], r"^slot list is not one-dimensional: shape \(1, 1\)$"),
    (["-1"], r"^slot '-1' of node 0 is not a number$"),
    ([-1, None], r"^slot None of node 1 is not a number$"),
])
def test_increasing_tree_rejects_a_slot_list_that_is_no_tree(slot, match):
    with pytest.raises(ValueError, match=match):
        IncreasingTree(3, slot)


def test_increasing_tree_holds_a_read_only_int64_copy(monkeypatch):
    seen = []

    class Recording(IncreasingTree):
        def shape(self):
            seen.append(self)
            return super().shape()

    monkeypatch.setattr(maps, "IncreasingTree", Recording)
    t = sample_uniform_tree(3, 30, rng_from_seed(44))
    assert tree_from_map(map_from_tree(t, TRIANGULATION)) == t
    it = sample_increasing_tree(3, 30, rng_from_seed(44))
    for tree in [it, IncreasingTree.from_skeleton(3, it.skeleton), *seen]:
        assert tree.slot.dtype == np.int64 and not tree.slot.flags.writeable
    slot = np.array([-1, 0, 1])
    tree = IncreasingTree(3, slot)
    slot[2] = 2  # the caller's array stays its own
    assert tree.slot.tolist() == [-1, 0, 1] and tree != IncreasingTree(3, slot)
    assert IncreasingTree(3, [-1, 0.0, 2.0]) == IncreasingTree(3, slot)  # whole floats are slots


def test_ordered_tree_holds_a_read_only_int64_copy():
    t = sample_uniform_tree(3, 30, rng_from_seed(45))
    m = map_from_tree(t, TRIANGULATION)
    ball = infinite_map_ball(sample_spine_tree(3, 3, rng_from_seed(45))[0], 2)
    built = [t, OrderedTree.from_parens(2, "(o(oo))"), *enumerate_trees(2, 3),
             maps.grow(m, m.leaf_faces()[0]).tree,
             sample_increasing_tree(3, 30, rng_from_seed(45)).shape(), tree_from_map(m), ball.tree]
    for tree in built:
        assert tree.offspring.dtype == np.int64 and not tree.offspring.flags.writeable
    off = np.array([3, 0, 0, 0])
    tree = OrderedTree(3, off)
    off[1] = 3  # the caller's array stays its own, and writeable
    assert tree.offspring.tolist() == [3, 0, 0, 0]
    listed = OrderedTree(3, [3, 0, 0, 0])
    assert listed == tree and hash(listed) == hash(tree) == hash((3, (3, 0, 0, 0)))


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_offspring_matches_stack_walk_on_growth_trees(arity):
    for K in [0, 1, 2, 3, 7, 50, 3000]:
        for r in range(5):
            _check_against_reference(sample_increasing_tree(arity, K, rng_from_seed(41, r)))


@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_offspring_matches_stack_walk_on_recovered_trees(family, arity, monkeypatch):
    # the slot lists tree_from_map replays from a uniform tree's map, which
    # follow a peeling order rather than leaf growth
    seen = []

    class Recording(IncreasingTree):
        def shape(self):
            seen.append(self)
            return super().shape()

    monkeypatch.setattr(maps, "IncreasingTree", Recording)
    for n in [0, 1, 5, 100, 1000]:
        t = sample_uniform_tree(arity, n, rng_from_seed(43, n))
        assert tree_from_map(map_from_tree(t, family)) == t
    assert [len(it.slot) for it in seen] == [0, 1, 5, 100, 1000]
    for it in seen:
        _check_against_reference(it)


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("first", [True, False])
def test_offspring_on_deep_paths(arity, first, monkeypatch):
    # the path 1^5000 (or arity^5000): the preorder and the depths take
    # about log2(5000) doubling rounds, not one per level
    K = 5000
    letter = 1 if first else arity
    it = IncreasingTree(arity, [-1] + [arity * k + letter - 1 for k in range(K - 1)])
    checks = []  # loop tests per call of the root-path sum
    path_sum = trees_mod._root_path_sum

    class Counted(np.ndarray):
        def any(self, *args, **kwargs):
            checks[-1] += 1
            return super().any(*args, **kwargs)

    def counting(parent, weight):
        checks.append(0)
        return np.asarray(path_sum(parent.view(Counted), weight))

    monkeypatch.setattr(trees_mod, "_root_path_sum", counting)
    assert it.offspring().tolist() == _offspring_reference(arity, it.slot.tolist())
    assert it.depths().tolist() == list(range(K))
    # depth 4999 needs ceil(log2 4999) = 13 rounds, plus the test that ends them
    assert checks == [math.ceil(math.log2(K - 1)) + 1] * 2


@pytest.mark.parametrize("arity", [2, 3])
def test_preorder_links_match_navigation(arity):
    every = [t for n in range(7) for t in enumerate_trees(arity, n)]
    sampled = [sample_uniform_tree(arity, n, rng_from_seed(47, n)) for n in [10, 300, 5000]]
    for t in every + sampled:
        parent, letter = preorder_links(arity, t.offspring)
        assert (parent.tolist(), letter.tolist()) == _links_reference(arity, t.offspring)
    assert len(every) == sum(count_trees(arity, n) for n in range(7))


@pytest.mark.parametrize("arity", [2, 3])
def test_navigation_arrays_match_slot_stack_walk(arity):
    every = [t for n in range(7) for t in enumerate_trees(arity, n)]
    sampled = [sample_uniform_tree(arity, n, rng_from_seed(49, n)) for n in [10, 300, 5000]]
    path = OrderedTree(arity, [arity] * 5000 + [0] * ((arity - 1) * 5000 + 1))  # 1^5000
    for t in every + sampled + [path]:
        assert tuple(t._arrays()) == _navigation_reference(arity, t.offspring)


def test_stable_argsort_matches_numpy_at_every_width():
    rng = np.random.default_rng(48)
    for high in [1, 200, 2**16, 2**16 + 1, 2**40]:
        keys = rng.integers(0, high, size=5000)
        want = np.argsort(keys, kind="stable")
        assert np.array_equal(trees_mod._stable_argsort(keys), want)
    assert trees_mod._stable_argsort(np.zeros(0, dtype=np.int64)).size == 0


def test_sample_gw_tree_cap():
    with pytest.raises(CapExceeded):
        for r in range(500):
            sample_gw_tree(3, rng_from_seed(1, r), cap=3)


def test_sample_gw_tree_mean_size():
    # subcritical truncation check: |t| has infinite mean but finite runs
    sizes = []
    for r in range(500):
        try:
            t = sample_gw_tree(3, rng_from_seed(9, r), cap=10**4)
        except CapExceeded:
            continue
        sizes.append(len(t.internal_words()))
    assert min(sizes) == 0
    assert max(sizes) > 10


@pytest.mark.parametrize("draw, match", [
    (lambda rng: sample_uniform_tree(0, 5, rng), "arity must be >= 2, got 0"),
    (lambda rng: sample_uniform_tree(1, 5, rng), "arity must be >= 2, got 1"),
    (lambda rng: sample_offspring_sequence(3, -1, rng), "n_internal must be >= 0, got -1"),
    (lambda rng: sample_gw_tree(0, rng), "arity must be >= 2, got 0"),
    (lambda rng: sample_gw_tree(1, rng), "arity must be >= 2, got 1"),
], ids=["uniform-arity-0", "uniform-arity-1", "offspring-n-minus-1", "gw-arity-0", "gw-arity-1"])
def test_tree_samplers_reject_what_they_cannot_sample(draw, match):
    # the error comes before any draw
    rng, ref_rng = rng_from_seed(35), rng_from_seed(35)
    with pytest.raises(ValueError, match=match):
        draw(rng)
    assert rng.random() == ref_rng.random()


def test_rng_determinism():
    a = rng_from_seed(42, 7).integers(0, 10**9, size=5)
    b = rng_from_seed(42, 7).integers(0, 10**9, size=5)
    c = rng_from_seed(42, 8).integers(0, 10**9, size=5)
    assert (a == b).all()
    assert not (a == c).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 400), st.integers(1, 200), st.sampled_from([2, 3]))
def test_sampled_tree_structure_property(seed, n, arity):
    t = sample_uniform_tree(arity, n, rng_from_seed(seed))
    off = t.offspring
    assert len(off) == arity * n + 1
    assert is_valid_tree(t.words(), arity)
    assert len(t.internal_words()) == n


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=6), st.lists(st.integers(1, 3), max_size=6))
def test_lca_is_common_prefix(u, v):
    w = lca(tuple(u), tuple(v))
    assert tuple(u)[: len(w)] == w
    assert tuple(v)[: len(w)] == w
    if len(w) < min(len(u), len(v)):
        assert u[len(w)] != v[len(w)]
