"""Channel-model tests: frozen examples plus brute-force oracles at desk scale."""

import pytest
from hypothesis import given, strategies as st

from syndef.core import (
    ParameterError,
    all_strands,
    apply_defects,
    apply_defects_shifted,
    apply_defects_tuple,
    confusable_ball,
    cycles,
    defect_ball,
    diff,
    inverse_diff,
    is_regular,
    run_sequence,
    shift_symbols,
    signature,
    smod4,
    symbol_positions,
)

from itertools import combinations


def s(text):
    return tuple(int(c) for c in text)


def ball_by_filtration(strand, delta):
    """Independent oracle: scan all of Sigma^n for the defining equation."""
    target = apply_defects(strand, delta)
    return {y for y in all_strands(len(strand)) if apply_defects(y, delta) == target}


class TestDiff:
    def test_paper_example(self):
        assert diff(s("1241321")) == s("1121233")

    def test_single_symbol(self):
        assert diff((1,)) == (1,)

    def test_constant_strand(self):
        # direct formula: first symbol, then (x_i - x_{i-1}) shifted mod 4
        assert diff(s("1111")) == s("1444")
        assert tuple([1] + [smod4(0)] * 3) == s("1444")

    def test_roundtrip_exhaustive(self):
        for n in range(1, 6):
            for x in all_strands(n):
                assert inverse_diff(diff(x)) == x

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=40))
    def test_roundtrip_random(self, symbols):
        x = tuple(symbols)
        assert inverse_diff(diff(x)) == x


class TestInverseDiff:
    def test_paper_example_inverted(self):
        assert inverse_diff(s("1121233")) == s("1241321")

    def test_trivial(self):
        assert inverse_diff((1,)) == (1,)

    def test_prefix_sums(self):
        assert inverse_diff(s("1444")) == s("1111")


class TestCycles:
    def test_paper_example(self):
        assert cycles(s("1241321")) == (1, 2, 4, 5, 7, 10, 13)

    def test_tuple_example(self):
        assert cycles(s("31411")) == (3, 5, 8, 9, 13)

    def test_template_prefix(self):
        assert cycles(s("1234")) == (1, 2, 3, 4)

    def test_schedule_invariants_exhaustive(self):
        for n in range(1, 6):
            for x in all_strands(n):
                sched = cycles(x)
                assert all(c2 - c1 in (1, 2, 3, 4) for c1, c2 in zip(sched, sched[1:]))
                assert all(smod4(c) == xx for c, xx in zip(sched, x))
                assert 1 <= sched[0] and sched[-1] <= 4 * n


class TestApplyDefects:
    def test_paper_example(self):
        assert apply_defects(s("1241321"), {12, 13}) == s("124132")

    def test_empty_delta(self):
        assert apply_defects(s("1241321"), set()) == s("1241321")

    def test_tuple_example_strand(self):
        assert apply_defects(s("14131"), {1}) == s("4131")

    def test_tuple_elementwise(self):
        c = (s("31411"), s("12213"), s("14131"))
        assert apply_defects_tuple(c, {1}) == (s("31411"), s("2213"), s("4131"))
        assert apply_defects_tuple(c, {10}) == c
        assert apply_defects_tuple(c, set()) == c


class TestConfusableBall:
    def test_four_insertions(self):
        assert confusable_ball(s("12341"), {5}) == {
            s("11234"), s("12134"), s("12314"), s("12341")}

    def test_single_option(self):
        assert confusable_ball(s("21231"), {5}) == {s("21231")}

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_filtration_single_defect(self, n):
        for x in all_strands(n):
            for d in cycles(x):
                assert confusable_ball(x, {d}) == ball_by_filtration(x, {d})

    def test_matches_filtration_two_defects(self):
        for x in all_strands(3):
            sched = cycles(x)
            for delta in combinations(range(1, 13), 2):
                if delta[0] in sched or delta[1] in sched:
                    assert confusable_ball(x, set(delta)) == ball_by_filtration(x, set(delta))

    def test_size_formula_single_defect(self):
        # |ball| = |{d-4..d-1} meet (cycle(rest) union {0})|
        for n in (3, 4, 5):
            for x in all_strands(n):
                for d in cycles(x):
                    rest = apply_defects(x, {d})
                    expected = len(set(range(d - 4, d)) & (set(cycles(rest)) | {0}))
                    assert len(confusable_ball(x, {d})) == expected


class TestDefectBall:
    def test_radius_zero(self):
        c = (s("31411"), s("12213"), s("14131"))
        assert defect_ball(c, 0) == {c}

    def test_contains_example_output(self):
        c = (s("31411"), s("12213"), s("14131"))
        assert (s("31411"), s("2213"), s("4131")) in defect_ball(c, 1)

    def test_matches_relevant_cycle_enumeration(self):
        # defects outside every schedule are no-ops, so restricting the
        # enumeration to scheduled cycles must give the same ball
        import itertools
        for c in itertools.product(all_strands(3), repeat=2):
            full = defect_ball(c, 1)
            relevant = {c} | {apply_defects_tuple(c, {d})
                              for d in set(cycles(c[0])) | set(cycles(c[1]))}
            assert full == relevant


class TestSignature:
    def test_nondecreasing(self):
        assert signature(s("1234")) == (1, 1, 1)

    def test_mixed(self):
        assert signature(s("31411")) == (0, 1, 0, 1)

    def test_longer(self):
        assert signature(s("122124123")) == (1, 1, 0, 1, 1, 0, 1, 1)

    def test_length_one_rejected(self):
        with pytest.raises(ParameterError):
            signature((2,))

    def test_deletion_shifts_one_bit(self):
        # deleting x_i removes bit i or i-1 of the signature
        for n in (3, 4, 5):
            for x in all_strands(n):
                sig = signature(x)
                for i in range(1, n + 1):
                    shorter = signature(x[:i - 1] + x[i:])
                    options = []
                    if i - 1 >= 1:
                        options.append(sig[:i - 2] + sig[i - 1:])
                    if i <= n - 1:
                        options.append(sig[:i - 1] + sig[i:])
                    assert shorter in options


class TestRunSequence:
    def test_paper_example(self):
        assert run_sequence(s("10010111")) == (1, 2, 2, 3, 4, 5, 5, 5)

    def test_single_run(self):
        assert run_sequence(s("0000")) == (1, 1, 1, 1)

    def test_alternation(self):
        assert run_sequence(s("0101")) == (1, 2, 3, 4)


class TestSymbolPositions:
    def test_count_and_positions(self):
        assert symbol_positions(s("122124123"), 2) == (4, (2, 3, 5, 8))
        assert symbol_positions(s("122124123"), 3) == (1, (9,))

    def test_absent_symbol(self):
        assert symbol_positions(s("1111"), 2) == (0, ())


class TestShift:
    X = (1, 3, 2, 1, 1, 4, 3, 2, 3, 4)

    def test_shift_by_one(self):
        symbols = shift_symbols(self.X, 1)
        assert symbols == (2, 4, 3, 2, 2, 1, 4, 3, 4, 1)
        # the re-timed schedule: a defect at each of its cycles drops that symbol
        schedule = (2, 4, 7, 10, 14, 17, 20, 23, 24, 25)
        for i, c in enumerate(schedule):
            assert apply_defects_shifted(symbols, 1, {c}) == symbols[:i] + symbols[i + 1:]

    def test_shift_by_six(self):
        assert shift_symbols(self.X, 6) == (3, 1, 4, 3, 3, 2, 1, 4, 1, 2)

    def test_identity(self):
        assert shift_symbols(self.X, 0) == self.X

    def test_commutes_with_defects(self):
        for x in all_strands(3):
            sched = cycles(x)
            for a in range(1 - sched[0], 12 - sched[-1] + 1):
                symbols = shift_symbols(x, a)
                for d in range(1, 13):
                    shifted_then_defect = apply_defects_shifted(symbols, a, {d + a})
                    defect_then_shift = tuple(smod4(v + a) for v in apply_defects(x, {d}))
                    assert shifted_then_defect == defect_then_shift


class TestRegularity:
    def test_all_ones_never_regular(self):
        assert not is_regular((1,) * 10, 4)
        assert not is_regular((1,) * 10, 8)

    def test_0011_repeated(self):
        assert is_regular(s("0011") * 4, 8)

    def test_vacuous_window(self):
        assert is_regular(s("0101"), 10)

    def test_window_too_small_rejected(self):
        with pytest.raises(ParameterError):
            is_regular(s("0011"), 3)


class TestIndexWindows:
    """Bounds relating deletion indices in a strand and in its confusable twins."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_strand_index_window(self, n):
        for x in all_strands(n):
            sched = cycles(x)
            for t in (1, 2):
                for delta in combinations(sched, t):
                    for y in confusable_ball(x, set(delta)):
                        ix = [i + 1 for i, c in enumerate(sched) if c in delta]
                        iy = [j + 1 for j, c in enumerate(cycles(y)) if c in delta]
                        for k, (i, j) in enumerate(zip(ix, iy), start=1):
                            assert abs(i - j) <= 4 * k - 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_signature_index_window(self, n):
        # some valid matching of signature deletions stays within 4k
        for x in all_strands(n):
            sched = cycles(x)
            sig = signature(x)
            for d in sched:
                i = sched.index(d) + 1
                for y in confusable_ball(x, {d}):
                    if y == x:
                        continue
                    sig_y = signature(y)
                    ok = False
                    for i1 in range(1, n):
                        for j1 in range(max(1, i1 - 4), min(n - 1, i1 + 4) + 1):
                            if (sig[:i1 - 1] + sig[i1:]) == (sig_y[:j1 - 1] + sig_y[j1:]):
                                ok = True
                                break
                        if ok:
                            break
                    assert ok
