"""Reference for the ordering checks: every comparison read off the full R matrix.

R = F / tau with tau > 0, so comparing R entries decides each check as the
F entries do.  This is the entry-by-entry form of
``resistance._verify_orderings``, which decides the same checks from the
row and column terms.  The tests compare the two reports, verdicts and
witnesses, on real codes and on perturbed row and column terms; R stays
exact under any perturbation of those terms, F's integer division does not.
"""

from __future__ import annotations

from thresholdwalk import OrderingReport, blocks, degree_profile


def _chain_ok(entries: list[tuple[object, str]]) -> bool:
    """Check a chain of exact values against '<' / '<=' links.

    ``entries`` holds (value, relation-to-next) pairs; value None marks an
    absent element, whose incoming and outgoing links merge ('<' wins).
    """
    prev = None
    rel = None
    for value, next_rel in entries:
        if value is None:
            if rel != "<":
                rel = "<" if next_rel == "<" else rel or next_rel
            continue
        if prev is not None:
            if rel == "<" and not prev < value:
                return False
            if rel == "<=" and not prev <= value:
                return False
        prev = value
        rel = next_rel
    return True


def reference_orderings(code, profile) -> OrderingReport:
    """The ordering checks of one code, every comparison read from profile.R."""
    R = profile.R
    bits = code.bits
    n = code.n
    d = degree_profile(code).degrees
    witnesses: list[str] = []

    def others(*excluded: int):
        return (i for i in range(n) if i not in excluded)

    # (i) equal adjacent bits: the two positions are twins
    ok_i = True
    for p in range(n - 1):
        if bits[p] == bits[p + 1]:
            for i in others(p, p + 1):
                if R[i][p] != R[i][p + 1]:
                    ok_i = False
                    witnesses.append(f"case i: f[{i + 1},{p + 1}] != f[{i + 1},{p + 2}]")

    # (ii) mixed adjacent bits: the 1-position never beats the 0-position,
    # with equality exactly for the leading 01 pair
    ok_ii = True
    for p in range(n - 1):
        if bits[p] != bits[p + 1]:
            v, w = (p, p + 1) if bits[p] == 1 else (p + 1, p)
            equality = p == 0
            for i in others(p, p + 1):
                good = R[i][v] == R[i][w] if equality else R[i][v] < R[i][w]
                if not good:
                    ok_ii = False
                    witnesses.append(f"case ii: pair ({v + 1},{w + 1}) fails at i={i + 1}")

    # (iii) zero, ones, zero: the earlier zero is strictly smaller
    ok_iii = True
    for p in range(n):
        if bits[p]:
            continue
        q = next((t for t in range(p + 1, n) if bits[t] == 0), None)
        if q is None or q == p + 1:
            continue
        for i in others(p, q):
            if not R[i][p] < R[i][q]:
                ok_iii = False
                witnesses.append(f"case iii: pair ({p + 1},{q + 1}) fails at i={i + 1}")

    # (iv) one, zeros, one: the later one is at most the earlier one; equal
    # exactly when the later one ends the code and i precedes the earlier one
    ok_iv = True
    for p in range(n):
        if not bits[p]:
            continue
        q = next((t for t in range(p + 1, n) if bits[t] == 1), None)
        if q is None or q == p + 1:
            continue
        for i in others(p, q):
            if q == n - 1 and i < p:
                good = R[i][q] == R[i][p]
            else:
                good = R[i][q] < R[i][p]
            if not good:
                ok_iv = False
                witnesses.append(f"case iv: pair ({p + 1},{q + 1}) fails at i={i + 1}")

    # block representatives: start position of each run, in code order
    form = blocks(code)
    k = form.k
    zero_starts, one_starts = [], []
    pos = 0
    for s, t in form.pairs:
        zero_starts.append(pos)
        pos += s
        one_starts.append(pos)
        pos += t

    def in_block(i: int, starts: list[int], runs: tuple[int, ...]) -> int | None:
        for idx, start in enumerate(starts):
            if start <= i < start + runs[idx]:
                return idx
        return None

    def chain_entries(i: int, own_kind: int, own_idx: int):
        # shared skeleton: 0 < R[i][w_k] <= R[i][w_{k-1}] < ... < R[i][w_1]
        #                    <= R[i][v_1] < R[i][v_2] < ... < R[i][v_k]
        entries: list[tuple[object, str]] = [(0, "<")]
        for ordinal, bk in enumerate(range(k - 1, -1, -1)):
            if own_kind == 1 and bk == own_idx:
                rep = _alternate_rep(one_starts[bk], form.one_runs[bk], i)
            else:
                rep = one_starts[bk]
            rel = "<=" if ordinal == 0 or bk == 0 else "<"
            entries.append((None if rep is None else R[i][rep], rel))
        for bk in range(k):
            if own_kind == 0 and bk == own_idx:
                rep = _alternate_rep(zero_starts[bk], form.zero_runs[bk], i)
            else:
                rep = zero_starts[bk]
            entries.append((None if rep is None else R[i][rep], "<"))
        return entries

    ok_chain_zero = True
    ok_chain_one = True
    for i in range(n):
        zero_idx = in_block(i, zero_starts, form.zero_runs)
        if zero_idx is not None:
            if not _chain_ok(chain_entries(i, 0, zero_idx)):
                ok_chain_zero = False
                witnesses.append(f"zero-block chain fails at i={i + 1}")
        else:
            one_idx = in_block(i, one_starts, form.one_runs)
            if not _chain_ok(chain_entries(i, 1, one_idx)):
                ok_chain_one = False
                witnesses.append(f"one-block chain fails at i={i + 1}")

    # degree characterization: F entries are monotone against the reversed
    # degree order, and equal degrees force equal entries (twin blocks).
    # The full converse is not asserted: the equality branch of case (iv)
    # can tie entries across strictly different degrees.  Both relations are
    # transitive, so comparing neighbours in degree order decides every pair.
    ok_degree = True
    by_degree = sorted(range(n), key=d.__getitem__)
    for i in range(n):
        order = [w for w in by_degree if w != i]
        for w, v in zip(order, order[1:]):
            if R[i][w] < R[i][v] or (d[w] == d[v] and R[i][w] != R[i][v]):
                ok_degree = False
                witnesses.append(f"degree characterization fails at i={i + 1}, w={w + 1}, v={v + 1}")

    # block-level moment and accessibility ordering
    mu = profile.mu
    mu_zero = [mu[p] for p in zero_starts]
    mu_one = [mu[p] for p in one_starts]
    ok_blocks = all(mu_zero[b] > mu_zero[b - 1] for b in range(1, k))
    ok_blocks = ok_blocks and mu_zero[0] >= mu_one[0]
    ok_blocks = ok_blocks and all(mu_one[b - 1] > mu_one[b] for b in range(1, k))
    # alpha orders the vertices exactly as mu does, ties included; both are
    # total orders, so neighbours in mu order decide every pair
    alpha = profile.alpha
    by_mu = sorted(range(n), key=mu.__getitem__)
    ok_blocks = ok_blocks and all(
        (alpha[p] < alpha[q]) == (mu[p] < mu[q]) and (alpha[p] == alpha[q]) == (mu[p] == mu[q])
        for p, q in zip(by_mu, by_mu[1:])
    )
    if not ok_blocks:
        witnesses.append("block moment ordering fails")
    s1_eq = (mu_zero[0] == mu_one[0]) == (form.zero_runs[0] == 1)
    if not s1_eq:
        witnesses.append("leading-run equality condition fails")

    return OrderingReport(
        ok_i,
        ok_ii,
        ok_iii,
        ok_iv,
        ok_chain_zero,
        ok_chain_one,
        ok_degree,
        ok_blocks,
        s1_eq,
        tuple(witnesses),
    )


def _alternate_rep(start: int, run: int, i: int) -> int | None:
    """Representative of vertex i's own block that differs from i, if the block has one."""
    if run < 2:
        return None
    return start if i != start else start + 1
