"""Exact enumeration formulas: tree counts, forest counts, history counts
and the conjugation-walk probability.

Everything is computed in exact big-integer (or Fraction) arithmetic; the
numbers grow past 64 bits almost immediately.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod


def count_trees(arity: int, n_internal: int) -> int:
    """Number of full trees of the given arity with n_internal internal
    nodes: the n-th Catalan number for arity 2, its ternary analogue
    binom(3n+1, n)/(3n+1) for arity 3."""
    n = n_internal
    if n < 0:
        raise ValueError("n_internal must be >= 0")
    if arity == 2:
        return comb(2 * n, n) // (n + 1)
    if arity == 3:
        return comb(3 * n + 1, n) // (3 * n + 1)
    raise ValueError("arity must be 2 or 3")


def count_forests(arity: int, m_roots: int, n_nodes: int) -> int:
    """Number of forests of m full trees of the given arity with n nodes in
    total.  Zero when the divisibility constraint fails.

    Binary: (m/n) * binom(n, (n+m)/2); ternary: (m/n) * binom(n, (n-m)/3).
    """
    m, n = m_roots, n_nodes
    if m < 1 or n < m:
        return 1 if (m == 0 and n == 0) else 0
    if arity == 2:
        if (n + m) % 2:
            return 0
        k = (n + m) // 2
    elif arity == 3:
        if (n - m) % 3:
            return 0
        k = (n - m) // 3
    else:
        raise ValueError("arity must be 2 or 3")
    return m * comb(n, k) // n


def histories_total(K: int) -> int:
    """Total number of growth histories with K face insertions in the
    ternary family: product of the odd numbers 1*3*5*...*(2K-1).

    The (j+1)-th insertion chooses one of the 2j+1 finite faces present
    after j insertions.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    out = 1
    for i in range(K):
        out *= 2 * i + 1
    return out


def count_histories(tree) -> int:
    """Number of insertion orders producing the map of a given tree:
    (K-1)! divided by the product of internal-subtree sizes.

    An insertion order is a linear extension of the internal-node poset, so
    the hook-length formula for forests applies.
    """
    # the subtree of node i spans arity * (its internal nodes) + 1 nodes
    inner = tree.internal_indices()
    den = prod((tree.subtree_end(i) - i - 1) // tree.arity for i in inner[1:])
    # (K-1)!, since the root's hook K cancels against K!
    return factorial(len(inner) - 1) // den if inner else 1


def q_walk_exact(m: int, k: int) -> Fraction:
    """P(Z_m = -k) for the walk with i.i.d. increments -1 w.p. 2/3 and +2
    w.p. 1/3: the binomial term with p up-steps where 3p = m - k."""
    if m < 1 or k < 1:
        raise ValueError("require m >= 1, k >= 1")
    if (m - k) % 3 or k > m:
        return Fraction(0)
    p = (m - k) // 3
    return comb(m, p) * Fraction(1, 3) ** p * Fraction(2, 3) ** (m - p)


def q_walk(m: int, k: int) -> float:
    return float(q_walk_exact(m, k))
