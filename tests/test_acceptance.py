"""Acceptance suite: the thirteen contract criteria, one test each.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live).  Stated time budgets are asserted.  Set SYNDEF_ACCEPTANCE_FAST=1 to
trim the heaviest grids during development; the official run is the default
full grid.
"""

import math
import os
import time
from itertools import combinations, product

import pytest

from syndef.core import (
    DecodeFailure,
    all_strands,
    apply_defects,
    confusable_ball,
    cycles,
    defect_ball,
    diff,
    inverse_diff,
    signature,
    smod4,
)
from syndef.rng import SplitMix

FAST = bool(os.environ.get("SYNDEF_ACCEPTANCE_FAST"))


def announce(num, ok, detail, elapsed, limit=None):
    state = "PASS" if ok else "FAIL"
    budget = f", budget {limit:.0f}s" if limit else ""
    print(f"criterion {num:02d}: {state} - {detail} ({elapsed:.1f}s{budget})")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"
    assert ok, f"criterion {num} failed: {detail}"


def bits_of(text):
    return tuple(int(c) for c in text)


def delete(word, *positions):
    drop = set(positions)
    return tuple(x for i, x in enumerate(word, start=1) if i not in drop)


def test_criterion_01_channel_model():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for x in all_strands(n):
            assert inverse_diff(diff(x)) == x
            sched = cycles(x)
            assert all(b - a in (1, 2, 3, 4) for a, b in zip(sched, sched[1:]))
            assert all(smod4(c) == s for c, s in zip(sched, x))
            assert 1 <= sched[0] and sched[-1] <= 4 * n
            checked += 1
    announce(1, checked == sum(4 ** k for k in range(1, 7)),
             f"diff/cycle roundtrip and schedule invariants on {checked} strands",
             time.perf_counter() - started, limit=5)


def test_criterion_02_ball_size_formula():
    started = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 7):
        for x in all_strands(n):
            rest_cache = {}
            for d in cycles(x):
                ball = confusable_ball(x, {d})
                rest = apply_defects(x, {d})
                expected = len(set(range(d - 4, d)) & (set(cycles(rest)) | {0})) \
                    if rest else len(set(range(d - 4, d)) & {0})
                ok = ok and len(ball) == expected
                checked += 1
    announce(2, ok, f"single-defect ball sizes match the overlap formula on {checked} cases",
             time.perf_counter() - started, limit=30)


def _signature_match_within(sig_x, sig_y, t):
    idx = range(1, len(sig_x) + 1)
    for I in combinations(idx, t):
        xr = tuple(b for i, b in enumerate(sig_x, 1) if i not in I)
        for J in combinations(idx, t):
            if all(abs(i - j) <= 4 * k for k, (i, j) in enumerate(zip(I, J), 1)):
                if tuple(b for j, b in enumerate(sig_y, 1) if j not in J) == xr:
                    return True
    return False


def test_criterion_03_index_windows():
    started = time.perf_counter()
    strand_cases = sig_cases = 0
    for n in range(2, 6):
        for x in all_strands(n):
            sched = cycles(x)
            sig = signature(x)
            for t in (1, 2):
                for delta in combinations(sched, t):
                    for y in confusable_ball(x, set(delta)):
                        ix = [i + 1 for i, c in enumerate(sched) if c in delta]
                        iy = [j + 1 for j, c in enumerate(cycles(y)) if c in delta]
                        assert all(abs(i - j) <= 4 * k - 1
                                   for k, (i, j) in enumerate(zip(ix, iy), 1))
                        strand_cases += 1
                        if y != x and n >= 3:
                            assert _signature_match_within(sig, signature(y), t)
                            sig_cases += 1
    announce(3, strand_cases > 0 and sig_cases > 0,
             f"index windows 4k-1 on {strand_cases} strand cases, "
             f"4k on {sig_cases} signature cases",
             time.perf_counter() - started, limit=60)


def test_criterion_04_sum1_family():
    from syndef.kdcc import KnownDefectInstance, best_residues, decode_sum1, enumerate_codebook
    started = time.perf_counter()
    summary = []
    for n in range(3, 8):
        spec, size = best_residues("sum1", n)
        assert size >= 4 ** n / 4
        members = enumerate_codebook(spec)
        seen = {}
        for x in members:
            for d in cycles(x):
                key = (d, apply_defects(x, {d}))
                assert seen.setdefault(key, x) == x  # no two codewords collide
        failures = 0
        for x in members:
            for d in cycles(x):
                inst = KnownDefectInstance(apply_defects(x, {d}), (d,), n)
                if decode_sum1(inst, spec.residues["a"]) != x:
                    failures += 1
        assert failures == 0
        summary.append(f"n={n}:{size}")
    announce(4, True, "even-sum family sizes " + " ".join(summary) +
             ", disjoint, decode 100%",
             time.perf_counter() - started, limit=60)


def test_criterion_05_svt1_family():
    from syndef.kdcc import KnownDefectInstance, best_residues, decode_svt1, enumerate_codebook
    started = time.perf_counter()
    summary = []
    for n in range(4, 8):
        spec, size = best_residues("svt1", n)
        assert size >= 4 ** n / 10
        a, b = spec.residues["a"], spec.residues["b"]
        for x in enumerate_codebook(spec):
            for d in cycles(x):
                inst = KnownDefectInstance(apply_defects(x, {d}), (d,), n)
                assert decode_svt1(inst, a, b) == x
            miss = next(c for c in range(1, 4 * n + 1) if c not in cycles(x))
            inst = KnownDefectInstance(x, (miss,), n)
            assert decode_svt1(inst, a, b) == x
        summary.append(f"n={n}:{size}")
    announce(5, True, "signature shifted-VT family sizes " + " ".join(summary) +
             ", exhaustive roundtrip", time.perf_counter() - started)


def test_criterion_06_array_code():
    from syndef.array_code import (
        _normalize_windows,
        array_bounded_decode,
        array_erasure_decode,
        array_syndromes,
    )
    started = time.perf_counter()

    def erase(word, bursts):
        out = list(word)
        for s, l in bursts:
            for pos in range(s, s + l):
                out[pos - 1] = None
        return out

    erasure_cases = deletion_cases = 0
    sizes = range(8, 13) if not FAST else (8, 12)
    for n in sizes:
        for P in (1, 2, 3):
            for x in product((0, 1), repeat=n):
                params = array_syndromes(x, P)
                for s1 in range(1, n - P + 2):
                    for s2 in range(s1, n - P + 2):
                        bursts = [(s1, P), (s2, P)]
                        assert array_erasure_decode(erase(x, bursts), bursts, params) == x
                        erasure_cases += 1
                for d1 in range(1, n + 1):
                    for d2 in range(d1 + 1, n + 1):
                        ivs = [(min(d1, n - P + 1), P), (min(d2, n - P + 1), P)]
                        assert array_bounded_decode(delete(x, d1, d2), ivs, params) == x
                        deletion_cases += 1

    # every ambiguous-row instance admits exactly one weighted-consistent fill
    n, P = 8, 2
    assignment_checks = 0
    for x in product((0, 1), repeat=n):
        params = array_syndromes(x, P)
        for s1 in range(1, n - P + 2):
            for s2 in range(s1, n - P + 2):
                windows = _normalize_windows([(s1, P), (s2, P)], P, params.padded)
                erased = {pos for s, l in windows for pos in range(s, s + l)}
                per_row = {}
                for pos in sorted(erased):
                    per_row.setdefault((pos - 1) % P + 1, []).append(pos)
                fills = [{}]
                for i, positions in per_row.items():
                    known = sum(x[pos - 1] for pos in
                                set(range(i, n + 1, P)) - erased)
                    d = (params.row_sums[i - 1] - known) % 3
                    variants = [(0, 0)] if d == 0 else [(1, 1)] if d == 2 \
                        else [(1, 0), (0, 1)]
                    fills = [{**f, positions[0]: va, positions[1]: vb}
                             for f in fills for va, vb in variants]
                matching = 0
                for fill in fills:
                    y = tuple(fill.get(pos, x[pos - 1]) for pos in range(1, n + 1))
                    if array_syndromes(y, P) == params:
                        matching += 1
                assert matching == 1
                assignment_checks += 1

    counts = {}
    n, P = 12, 2
    for x in product((0, 1), repeat=n):
        p = array_syndromes(x, P)
        key = (p.row_sums, p.weighted_vt)
        counts[key] = counts.get(key, 0) + 1
    redundancy = n - math.log2(max(counts.values()))
    bound = math.log2(n) + 2 * P * math.log2(3)
    assert redundancy <= bound + 1e-9
    announce(6, True,
             f"{erasure_cases} erasure and {deletion_cases} deletion roundtrips"
             f"{' (trimmed)' if FAST else ''}, {assignment_checks} unique-fill checks, "
             f"redundancy {redundancy:.2f} <= {bound:.2f} bits",
             time.perf_counter() - started)


def test_criterion_07_two_known_defects():
    """Two known defective cycles, n=24, zero decode failures demanded.

    This criterion is not attainable: distinct strands can share both their
    signature and their channel output under the same defect pair (smallest
    case: 1212 vs 2211 under cycles {2, 6}), and every syndrome of this
    family is a function of the signature, so no parameter choice separates
    such twins.  The sweep below quantifies how often that happens; the
    zero-failure assertion is kept as stated and is expected to fail.
    """
    from syndef.kdcc import (
        KnownDefectInstance,
        array2_params,
        decode_array2,
        spec_for_strand,
    )
    started = time.perf_counter()
    n = 24
    rng = SplitMix(7)
    strands = 1000 if not FAST else 100
    cases = failures = 0
    first_failure = None
    for _ in range(strands):
        x = rng.strand(n)
        params = array2_params(spec_for_strand("array2", x))
        sched = cycles(x)
        for i, d1 in enumerate(sched):
            for d2 in sched[i + 1:]:
                cases += 1
                inst = KnownDefectInstance(
                    apply_defects(x, {d1, d2}), (d1, d2), n)
                try:
                    ok = decode_array2(inst, params) == x
                except DecodeFailure:
                    ok = False
                if not ok:
                    failures += 1
                    if first_failure is None:
                        first_failure = (x, (d1, d2))
    elapsed = time.perf_counter() - started
    detail = (f"{failures}/{cases} decode failures"
              f"{' (trimmed)' if FAST else ''}; "
              f"first ambiguous case {first_failure}")
    announce(7, failures == 0, detail, elapsed, limit=120)


def test_criterion_08_composed_sketch_code():
    from syndef.sketch import (
        EParams,
        decode_E,
        encode_E,
        prefix_codeword_length,
        prefix_decode_one,
        prefix_decode_two,
        prefix_encode,
    )
    started = time.perf_counter()
    n, P1, P2 = 10, 2, 2
    params = EParams(n=n, P1=P1, P2=P2)
    L = params.total
    r12 = params.e1_bits + params.e2_bits
    cases = [
        ((2, 4), [(2, 2), (3, 2)]), ((5, 6), [(4, 2), (5, 2)]),
        ((1, 2), [(1, 2), (1, 2)]), ((9, 10), [(8, 2), (9, 2)]),
        ((2, 7), [(1, 2), (6, 2)]), ((3, 10), [(2, 2), (9, 2)]),
        ((1, 10), [(1, 2), (9, 2)]),
        ((10, 11), [(9, 2), (11, 2)]), ((9, 12), [(9, 2), (11, 2)]),
        ((11, 12), [(11, 2), (11, 2)]),
        ((n + 3, n + r12), [(n + 2, 2), (n + r12 - 1, 2)]),
        ((L - 1, L), [(L - 2, 2), (L - 1, 2)]),
    ]
    composed = 0
    words = list(product((0, 1), repeat=n)) if not FAST \
        else list(product((0, 1), repeat=n))[::16]
    for x in words:
        word = encode_E(x, P1, P2)
        assert len(word) - n == params.redundancy
        assert word[:n] == x
        for (d1, d2), ivs in cases:
            assert decode_E(delete(word, d1, d2), ivs, n, P1, P2) == x
            composed += 1
    for x in [bits_of("1011010010"), bits_of("0101111000")]:
        word = encode_E(x, P1, P2)
        for d1 in range(1, L + 1):
            for d2 in range(d1 + 1, min(d1 + 4, L) + 1):
                ivs = [(max(1, d1 - 1), 2), (max(1, d2 - 1), 2)]
                assert decode_E(delete(word, d1, d2), ivs, n, P1, P2) == x
                composed += 1

    k = 8
    Lp = prefix_codeword_length(k, P1, P2)
    marker_cases = [(1, 2), (4, 11), (k, k + 1), (k + 1, k + 2),
                    (k + 2, k + 3), (25, 26), (Lp - 1, Lp), (6, Lp - 4)]
    prefix_two = prefix_one = 0
    for z in product((0, 1), repeat=k):
        word = prefix_encode(z, P1, P2)
        for d1, d2 in marker_cases:
            ivs = [(max(1, d1 - 1), 2), (max(1, d2 - 1), 2)]
            assert prefix_decode_two(delete(word, d1, d2), ivs, k, P1, P2) == z
            prefix_two += 1
        for d in range(1, Lp + 1):
            assert prefix_decode_one(delete(word, d), k, P1, P2) == z
            prefix_one += 1
    announce(8, True,
             f"{composed} composed roundtrips, {prefix_two} marker two-deletion "
             f"and {prefix_one} single-deletion roundtrips, redundancy "
             f"{params.redundancy} bits as materialised"
             f"{' (trimmed)' if FAST else ''}",
             time.perf_counter() - started)


def test_criterion_09_cover_selection():
    from syndef.sdcc import default_cover_count, plan_covers, select_cover_shifts
    started = time.perf_counter()
    total = 0
    for n in (16, 32, 64):
        count = default_cover_count(n)
        sets = 200 if not FAST else 20
        for trial in range(sets):
            rng = SplitMix(n * 100000 + trial)
            strands = [rng.strand(n) for _ in range(count)]
            plan = select_cover_shifts(strands)  # quarter claims proven there
            assert plan_covers(strands, plan)
            total += 1
    announce(9, True,
             f"{total} random cover plans over n in (16, 32, 64), "
             "contraction <= 3/4 per step by proof",
             time.perf_counter() - started, limit=30)


def test_criterion_10_single_defect_tuples():
    from syndef.binary import vt_syndrome
    from syndef.sdcc import random_member_1sdcc, sdcc1_decode
    started = time.perf_counter()
    n, m = 16, 8
    codeword, plan, params = random_member_1sdcc(n, m, seed=7)
    for d in range(1, 4 * n + 1):
        out, window = sdcc1_decode(codeword.channel({d}), plan, params)
        assert out == codeword.strands

    # toy-scale ball disjointness: same-residue strand pairs at n=6
    n_toy = 6
    picks = [x for x in all_strands(n_toy)
             if sum(x) % 4 == 0 and vt_syndrome(signature(x)) % (n_toy + 1) == 0]
    members = [(a, b) for a in picks[:8] for b in picks[:8]]
    balls = {c: defect_ball(c, 1) for c in members}
    collisions = sum(1 for c1, c2 in combinations(members, 2)
                     if balls[c1] & balls[c2])
    announce(10, collisions == 0,
             f"all 64 defect positions decoded at n=16, m=8; "
             f"{len(members)} toy tuples with disjoint radius-1 balls",
             time.perf_counter() - started, limit=120)


def test_criterion_11_quaternary_two_deletions():
    from syndef.sdcc import c2d_decode, c2d_params_of
    started = time.perf_counter()
    n = 24
    rng = SplitMix(13)
    members = 200 if not FAST else 20
    cases = 0
    for idx in range(members):
        if idx % 4 == 0:
            # plant a period-two segment so consecutive alternating-run
            # deletions (the placement-ambiguous regime) are exercised
            seg_at = 4 + (idx // 4) % 10
            base = rng.strand(n)
            x = base[:seg_at] + (2, 1, 2, 1, 2, 1) + base[seg_at + 6:]
        else:
            x = rng.strand(n)
        params = c2d_params_of(x)
        for d1, d2 in combinations(range(1, n + 1), 2):
            assert c2d_decode(delete(x, d1, d2), params) == x
            cases += 1
    announce(11, True,
             f"{cases} two-deletion roundtrips on {members} strands, "
             f"alternating segments planted in every fourth"
             f"{' (trimmed)' if FAST else ''}",
             time.perf_counter() - started, limit=120)


def test_criterion_12_double_defect_tuples():
    from syndef.reports import stratified_delta_pairs
    from syndef.sdcc import c2d_params_of, random_member_2sdcc, sdcc2_decode
    started = time.perf_counter()
    n, m = 32, 12
    tuples = 20 if not FAST else 4
    cases = 0
    for seed in range(tuples):
        codeword, plan, params = random_member_2sdcc(n, m, seed=seed)
        deltas = [set(p) for p in stratified_delta_pairs(n, 70, seed + 1)]
        deltas += [{d} for d in range(1 + seed % 3, 4 * n + 1, 5)] + [set()]
        for delta in deltas:
            assert sdcc2_decode(codeword.channel(delta), plan, params) \
                == codeword.strands
            cases += 1

    from syndef.core import is_regular
    n_toy = 8
    rng = SplitMix(31)
    strands, seen = [], set()
    tries = 0
    while len(strands) < 12 and tries < 6000:
        tries += 1
        x = rng.strand(n_toy)
        if not is_regular(signature(x), 5):
            continue
        px = c2d_params_of(x)
        if px not in seen:
            seen.add(px)
            strands.append(x)
    members = [(strands[2 * i], strands[2 * i + 1]) for i in range(len(strands) // 2)]
    balls = {c: defect_ball(c, 2) for c in members}
    collisions = sum(1 for c1, c2 in combinations(members, 2)
                     if balls[c1] & balls[c2])
    announce(12, collisions == 0,
             f"{cases} sampled double-defect roundtrips at n=32, m=12; "
             f"{len(members)} toy tuples with disjoint radius-2 balls"
             f"{' (trimmed)' if FAST else ''}",
             time.perf_counter() - started, limit=300)


def test_criterion_13_bounds():
    from syndef.bounds import build_clique_cover, cover_size, kdcc_size_bounds, verify_cover
    from syndef.kdcc import best_residues
    started = time.perf_counter()
    exact, closed = cover_size(5)
    assert exact == 1012 and closed == 1012
    assert build_clique_cover(5).size == 1012
    for n in (5, 6):
        ok, witness = verify_cover(n)
        assert ok, witness
    for n in (5, 6, 7):
        upper, _ = cover_size(n)
        for family in ("sum1", "svt1"):
            _, size = best_residues(family, n)
            assert size <= upper
    report = kdcc_size_bounds(7)
    assert 0 < report["redundancy_bits_lower_bound"] <= 2 * math.log2(2)
    assert report["redundancy_bits_sum1"] >= report["redundancy_bits_lower_bound"]
    announce(13, True,
             f"cover size 1012 both ways at n=5, covers verified at n=5,6, "
             f"codebooks below the bound at n=5..7, lower bound "
             f"{report['redundancy_bits_lower_bound']:.3f} bits at n=7",
             time.perf_counter() - started)
