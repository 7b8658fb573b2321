"""Bipartite maximum matching, Hall verdicts, and canonical matchings.

One matcher serves both jobs: a plain augmenting-path scan in vertex
order (Kuhn), a pure function of the edge set with no randomness of its
own.  The samplers use its matching as the canonical one, and
``hall_check`` uses its size to decide Hall's condition on balanced
bipartite graphs (perfect matching iff no deficient set).  On
deficiency the witness is the set of A-vertices reachable by
alternating paths from unmatched A-vertices; that set is the same for
every maximum matching (Dulmage-Mendelsohn), so it does not depend on
which maximum matching the scan finds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidArgumentError, UnsupportedSizeError

UNMATCHED = -1


def kuhn_matching(n_left: int, n_right: int, adj: Sequence[Sequence[int]]) -> tuple[int, list[int], list[int]]:
    """Deterministic augmenting-path matching, vertices processed in index order.

    The search recurses once per augmenting-path step, so a path longer
    than the interpreter's recursion limit raises UnsupportedSizeError.
    """
    pair_l = [UNMATCHED] * n_left
    pair_r = [UNMATCHED] * n_right

    def try_augment(u: int, seen: list[bool]) -> bool:
        for v in adj[u]:
            if seen[v]:
                continue
            seen[v] = True
            if pair_r[v] == UNMATCHED or try_augment(pair_r[v], seen):
                pair_l[u] = v
                pair_r[v] = u
                return True
        return False

    size = 0
    try:
        for u in range(n_left):
            if try_augment(u, [False] * n_right):
                size += 1
    except RecursionError:
        raise UnsupportedSizeError(f"an augmenting path on {n_left} x {n_right} sides "
                                   "is deeper than the recursion limit") from None
    return size, pair_l, pair_r


@dataclass(frozen=True)
class HallVerdict:
    satisfied: bool
    witness: tuple[int, ...] | None = None   # deficient S subset of A, original labels
    matching_size: int = 0


def hall_check(a_side: Iterable[int], b_side: Iterable[int],
               edges: Iterable[tuple[int, int]]) -> HallVerdict:
    """Decide Hall's condition for A into B via maximum matching.

    ``edges`` are (a, b) pairs in the original vertex labels.  Sides
    must be balanced (the use case is perfect matchings).  On failure
    the witness is a set S in A with |N(S)| < |S|, extracted from the
    alternating reachability of the final matching.
    """
    aa = sorted(set(a_side))
    bb = sorted(set(b_side))
    if len(aa) != len(bb):
        raise InvalidArgumentError(f"sides must balance, got {len(aa)} vs {len(bb)}")
    pos_a = {v: i for i, v in enumerate(aa)}
    pos_b = {v: i for i, v in enumerate(bb)}
    adj: list[list[int]] = [[] for _ in aa]
    for a, b in edges:
        if a in pos_a and b in pos_b:
            adj[pos_a[a]].append(pos_b[b])
        elif b in pos_a and a in pos_b:
            adj[pos_a[b]].append(pos_b[a])
        else:
            raise InvalidArgumentError(f"edge ({a},{b}) does not join the two sides")
    for lst in adj:
        lst.sort()
    size, pair_l, pair_r = kuhn_matching(len(aa), len(bb), adj)
    if size == len(aa):
        return HallVerdict(True, None, size)

    # alternating BFS from unmatched A-vertices: reachable A is deficient
    reach_a = [u for u in range(len(aa)) if pair_l[u] == UNMATCHED]
    seen_a = set(reach_a)
    seen_b: set[int] = set()
    q = deque(reach_a)
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v in seen_b:
                continue
            seen_b.add(v)
            w = pair_r[v]
            if w != UNMATCHED and w not in seen_a:
                seen_a.add(w)
                q.append(w)
    witness = tuple(aa[u] for u in sorted(seen_a))
    return HallVerdict(False, witness, size)
