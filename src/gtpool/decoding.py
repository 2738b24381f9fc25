"""Elimination decoding and the disjunct / separable predicates.

The elimination decoder starts from all items and strikes every member
of a negative test.  It recovers the defective set exactly when the
matrix is disjunct with respect to that set: each non-defective item
then sits in some test that contains no defective (a "good row"), and
that test's negative answer eliminates it.

Separability asks more: that no other set of size <= d gives the same
answers.  Disjunctness for a set S rules out every other set that is
not a proper subset of S, since an outsider sits in a good row, which
is negative for S and positive for any set holding that outsider.  It
does not rule out a proper subset of S.  Disjunctness for S and for
every proper subset of S (the empty set included) does: a member of S
missing from a disjunct subset T sits in a row with no member of T, so
the answers differ.  So a matrix that is disjunct for S and all its
subsets is separable for S.

A set T that answers like S avoids every negative test of S's answers,
so T lies among the items that elimination decoding keeps (COMP's
"possible defectives").  The separability check therefore scans only
subsets of those survivors, and its budget counts those subsets: for a
disjunct S the survivors are S itself, and the scan is 2^|S| sets
whatever n is.
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import DimensionError, ParameterError, SizeGuardError, _whole
from .matrices import AnswerVector, BitMatrix, DefectiveSet, _item_mask, or_columns

__all__ = [
    "decode_eliminate",
    "is_disjunct",
    "is_separable",
    "SEPARABILITY_BUDGET",
]

# Upper bound on the number of candidate sets is_separable may enumerate:
# subsets of size <= d of the elimination survivors.
SEPARABILITY_BUDGET = 10_000_000


def decode_eliminate(matrix: BitMatrix, answers: AnswerVector) -> set:
    """Candidate set left after striking all members of negative tests.

    The answers are read as their "0"/"1" string alongside the rows, so
    the pass is linear in m, not an m-bit shift per row.
    """
    if answers.m != matrix.m:
        raise DimensionError(
            f"answer vector has {answers.m} entries for a {matrix.m}-row matrix")
    eliminated = 0
    for w, a in zip(matrix.rows, answers.to01()):
        if a == "0":
            eliminated |= w
    n = matrix.n
    survivors = ~eliminated & matrix.full_row_mask
    return {n - j for j in _bit_positions(survivors)}


def _bit_positions(word: int):
    """0-based positions of set bits, from the low end."""
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def is_disjunct(matrix: BitMatrix, defectives) -> bool:
    """True iff every non-defective item appears in some good row.

    Equivalent to: elimination decoding of this set's answer vector
    returns exactly the set.  It rules out every other candidate set
    that is not a proper subset of this one; if every proper subset is
    disjunct too, the set is separable (see the module docstring).
    """
    mask = _item_mask(matrix, defectives)
    covered = 0
    for w in matrix.rows:
        if not w & mask:
            covered |= w
    return (covered | mask) == matrix.full_row_mask


def is_separable(matrix: BitMatrix, defectives, d: int) -> bool:
    """True iff no other candidate set of size <= d gives the same answers.

    Exact, but it scans only subsets of the elimination survivors of the
    set's answers, smallest first: a set that answers alike avoids every
    negative test, so it lies among the survivors.  Refuses to run when
    d is below the set's size, or when the candidate count, the number
    of survivor subsets of size <= d, exceeds SEPARABILITY_BUDGET.  A
    disjunct set leaves only itself alive, so it costs 2^|S| candidates.

    Disjunctness for the set alone does not imply this: a proper subset
    may give the same answers (the 1x1 zero matrix with item 1 defective
    answers like the empty set).  Disjunctness for the set and for all
    its subsets does.
    """
    d = _whole(d, "d")
    target_items = DefectiveSet(defectives).items
    if d < len(target_items):
        raise ParameterError(
            f"d = {d} is below the size {len(target_items)} of the set")
    answers = or_columns(matrix, target_items)
    alive = sorted(decode_eliminate(matrix, answers))
    kmax = min(d, len(alive))
    total = sum(math.comb(len(alive), k) for k in range(kmax + 1))
    if total > SEPARABILITY_BUDGET:
        raise SizeGuardError(
            f"{total} candidate sets exceed the budget of {SEPARABILITY_BUDGET}")
    target = answers.bits
    cols = {i: or_columns(matrix, (i,)).bits for i in alive}
    for k in range(kmax + 1):
        for combo in combinations(alive, k):
            if combo == target_items:
                continue
            acc = 0
            for i in combo:
                acc |= cols[i]
            if acc == target:
                return False
    return True
