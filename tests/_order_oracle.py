"""The chunk-arrangement search that the parent-pointer DP replaced.

``_arrange(table, plans)`` is the Held-Karp program over (chunking,
used-chunk mask, last ``order - 1`` ids) that carried each kept prefix's
ids in its row and asked the ``ScoreTable`` for every word it added,
verbatim, with the helpers it called (``_ranked`` and ``_banded`` took
the prefixes as an array).  ``order._arrange`` keeps parent pointers and
reads its conditionals from per-chunking tables instead, so tests check
that it finds the same sentences and counts the same transitions.
"""

import numpy as np

from udrealize.order import _TIE_BAND, ScoreTable


def _state_keys(columns) -> np.ndarray:
    """One int64 per row, equal exactly where every column is; each column
    is (values, base) with values in 0..base-1."""
    key = np.zeros(len(columns[0][0]), dtype=np.int64)
    for values, base in columns:
        if len(key) and int(key.max()) >= np.iinfo(np.int64).max // base:
            key = np.unique(key, return_inverse=True)[1]  # renumber densely first
        key = key * base + values
    return key


def _run_heads(*columns) -> np.ndarray:
    """A flag on each row that starts a run of rows equal in every column."""
    head = np.zeros(len(columns[0]), dtype=bool)
    head[:1] = True
    for column in columns:
        head[1:] |= column[1:] != column[:-1]
    return head


def _ranked(key: np.ndarray, score: np.ndarray, prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row per distinct (key, score), the one with the smallest prefix,
    ordered by key and then by score, highest first; and a flag on the
    first row of each key, the key's best."""
    order = np.lexsort((-score, key))
    key, score = key[order], score[order]
    head = _run_heads(key)
    first = np.flatnonzero(_run_heads(key, score))
    rows = order[first]
    counts = np.diff(np.append(first, len(order)))
    tied = counts > 1
    if tied.any():  # equal key and score: rank those rows by prefix
        run = np.repeat(np.arange(len(first)), counts)
        members = np.repeat(tied, counts)
        rows_, run = order[members], run[members]
        ranked = np.lexsort((*prefix[rows_].T[::-1], run))
        rows[tied] = rows_[ranked][_run_heads(run[ranked])]
    return rows, head[first]


def _banded(key: np.ndarray, score: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """The rows ``_ranked`` keeps whose score is within ``_TIE_BAND`` of
    their key's best: the band is applied first, on a sort by key alone,
    so that only survivors that share their key are ranked."""
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(_run_heads(key[order]))
    top = np.maximum.reduceat(score[order], first)
    near = order[score[order] >= np.repeat(top, np.diff(np.append(first, len(order)))) - _TIE_BAND]
    head = _run_heads(key[near])  # the survivors are still in key order
    alone = head & np.append(head[1:], True)
    shared = near[~alone]
    return np.concatenate([near[alone], shared[_ranked(key[shared], score[shared], prefix[shared])[0]]])


def _arrange(table: ScoreTable, plans) -> tuple[list, np.ndarray]:
    """Best sentence of each bag over every order of the chunks of each
    of its chunkings (``plans[b]``, lists of id tuples).

    Held-Karp over states (chunking, used-chunk mask, last ``order - 1``
    ids), one layer per chunk used, for all chunkings at once.  Each row
    is one prefix kept at its state.  Returns per bag the best id tuple
    (None without a chunking) and the DP's transitions.
    """
    owner = np.array([b for b, chunkings in enumerate(plans) for _ in chunkings], dtype=np.int64)
    flat = [chunks for chunkings in plans for chunks in chunkings]
    transitions = np.zeros(len(plans), dtype=np.int64)
    if not flat:
        return [None] * len(plans), transitions
    k = np.array([len(chunks) for chunks in flat])
    most = int(k.max())
    sizes = np.zeros((len(flat), most), dtype=np.int64)
    words = np.zeros((len(flat), most, 3), dtype=np.int64)
    for g, chunks in enumerate(flat):
        for j, chunk in enumerate(chunks):
            sizes[g, j] = len(chunk)
            words[g, j, : len(chunk)] = chunk
    full = (1 << k) - 1
    marker = table.marker
    id_type = np.min_scalar_type(-int(marker.max()) - 1)  # word ids and -1, no word
    span = table.span
    columns = np.arange(most)

    # layer 0: the empty prefix of every chunking, after <s>
    g = np.arange(len(flat))
    mask = np.zeros(len(flat), dtype=np.int64)
    score = table.start[owner]
    history = np.full((len(flat), span), -1, dtype=id_type)
    if span:
        history[:, -1] = marker[owner]
    prefix = np.zeros((len(flat), int(sizes.sum(axis=1).max())), dtype=id_type)
    length = np.zeros(len(flat), dtype=np.int64)
    ends = []  # per layer: (bag, sentence score, prefix) of the complete arrangements
    while len(g):
        r, j = np.nonzero((columns < k[g, None]) & (mask[:, None] >> columns & 1 == 0))
        transitions += np.bincount(owner[g[r]], minlength=len(plans))
        g, mask, score, history, prefix, length = (a[r] for a in (g, mask, score, history, prefix, length))
        mask |= 1 << j
        for p in range(3):  # the chunk's words, each after the history so far
            on = np.flatnonzero(sizes[g, j] > p)
            w = words[g[on], j[on], p]
            score[on] += table(owner[g[on]], list(history[on].T), w)
            if span:
                history[on, :-1] = history[on, 1:]
                history[on, -1] = w
            prefix[on, length[on]] = w
            length[on] += 1

        # per state: one prefix per score, the smallest; then the tie band,
        # except for complete arrangements, which all count as transitions
        key = _state_keys(
            [(g, len(flat)), (mask, 1 << most)]
            + [(history[:, i].astype(np.int64) + 1, int(marker.max()) + 2) for i in range(span)]
        )
        done = mask == full[g]
        fin = np.flatnonzero(done)
        fin = fin[_ranked(key[fin], score[fin], prefix[fin])[0]]
        b = owner[g[fin]]
        transitions += np.bincount(b, minlength=len(plans))
        ends.append((b, score[fin] + table(b, list(history[fin].T), marker[b]), prefix[fin]))
        keep = np.flatnonzero(~done)
        keep = keep[_banded(key[keep], score[keep], prefix[keep])]
        g, mask, score, history, prefix, length = (a[keep] for a in (g, mask, score, history, prefix, length))

    owners, totals, prefixes = (np.concatenate(parts) for parts in zip(*ends))
    rows, best = _ranked(owners, totals, prefixes)
    found: list = [None] * len(plans)
    for row in rows[best].tolist():
        b = int(owners[row])
        found[b] = tuple(prefixes[row, : table.length[b]].tolist())
    return found, transitions
