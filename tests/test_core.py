"""Channel-model tests: frozen examples plus brute-force oracles at desk scale."""

import re

import pytest
from hypothesis import given, strategies as st

from syndef.core import (
    DecodeFailure,
    ParameterError,
    all_strands,
    apply_defects,
    apply_defects_shifted,
    apply_defects_tuple,
    as_spans,
    as_strand,
    confusable_ball,
    cycles,
    default_regular_window,
    defect_ball,
    diff,
    inverse_diff,
    is_regular,
    is_subsequence,
    longest_run,
    run_sequence,
    shift_symbols,
    signature,
    smod4,
    symbol_positions,
    unique,
)

import random
from itertools import combinations, product


def s(text):
    return tuple(int(c) for c in text)


def ball_by_filtration(strand, delta):
    """Independent oracle: scan all of Sigma^n for the defining equation."""
    target = apply_defects(strand, delta)
    return {y for y in all_strands(len(strand)) if apply_defects(y, delta) == target}


def balls_by_filtration(n, delta):
    """(strand, ball) for every strand of length ``n``: all of Sigma^n grouped
    by channel output, the same oracle at one scan per cycle set."""
    by_output = {}
    for y in all_strands(n):
        by_output.setdefault(apply_defects(y, delta), set()).add(y)
    return [(x, by_output[apply_defects(x, delta)]) for x in all_strands(n)]


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

    def test_one_own_cycle_drops_its_one_symbol(self):
        # a schedule is strictly increasing, so each cycle holds one symbol;
        # the verify-kdcc sweep builds its single-cycle outputs this way
        for n in range(7):
            for x in all_strands(n):
                for i, d in enumerate(cycles(x)):
                    assert x[:i] + x[i + 1:] == apply_defects(x, {d}), (x, d)


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_filtration_up_to_three_cycles(self, n):
        # every set of one to three cycles, those that miss the strand included
        for size in (1, 2, 3):
            for delta in combinations(range(1, 4 * n + 1), size):
                for x, ball in balls_by_filtration(n, delta):
                    assert confusable_ball(x, set(delta)) == ball, (x, delta)

    def test_matches_filtration_missing_and_three_cycles_n4(self):
        # every single cycle, hit or missed, and seeded sets of three
        rng = random.Random(4)
        deltas = [(d,) for d in range(1, 17)]
        deltas += [tuple(sorted(rng.sample(range(1, 17), 3))) for _ in range(40)]
        for delta in deltas:
            for x, ball in balls_by_filtration(4, delta):
                assert confusable_ball(x, set(delta)) == ball, (x, delta)

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


class TestAsStrand:
    def test_symbols_kept(self):
        assert as_strand([4, 1, 3]) == (4, 1, 3)

    @pytest.mark.parametrize("symbol", [1.5, 1.0, "1", True, False, 0, 5])
    def test_inexact_symbol_rejected(self, symbol):
        # int(1.9) and int("1") once turned these into symbols
        with pytest.raises(ParameterError, match="alphabet"):
            as_strand((2, symbol, 3))


class TestAsSpans:
    def test_pairs_kept(self):
        assert as_spans([[2, 3], (7, 1)], "an interval") == [(2, 3), (7, 1)]

    @pytest.mark.parametrize("spans", [5, None, [(2, True)], [(2.0, 3)], [(2, 3, 1)], [5]])
    def test_malformed_rejected(self, spans):
        with pytest.raises(ParameterError):
            as_spans(spans, "an interval")


class Unformattable:
    """A message field that fails the test if it is ever put in a message."""

    def __format__(self, spec):
        raise AssertionError("message built for a decode that succeeded")


class TestUnique:
    @pytest.mark.parametrize("kind", [list, set])
    def test_one_member_returned_and_left_in_place(self, kind):
        found = kind(["word"])
        assert unique(found, "words of {} bits", Unformattable()) == "word"
        assert found == kind(["word"])
        with pytest.raises(AssertionError, match="message built"):
            unique(kind(), "words of {} bits", Unformattable())

    @pytest.mark.parametrize("kind", [list, set])
    @pytest.mark.parametrize("members, count", [([], 0), (["u", "v"], 2)])
    def test_any_other_count_fails_with_it(self, kind, members, count):
        text = f"{count} words of 8 bits in [1, 4]"
        with pytest.raises(DecodeFailure, match=f"^{re.escape(text)}$"):
            unique(kind(members), "words of {} bits in [{}, {}]", 8, 1, 4)


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


def generator_subsequence(short, long) -> bool:
    """The scan form the iterator-membership kernel replaced."""
    it = iter(long)
    return all(any(b == s for b in it) for s in short)


class TestIsSubsequence:
    def test_all_binary_pairs_up_to_seven(self):
        words = [w for n in range(8) for w in product((0, 1), repeat=n)]
        for long in words:
            assert [is_subsequence(s, long) for s in words] == \
                [generator_subsequence(s, long) for s in words], long

    def test_argument_forms(self):
        # tuples, lists and one-shot iterators on either side
        words = [w for n in range(6) for w in product((0, 1), repeat=n)]
        for short, long in product(words, repeat=2):
            want = generator_subsequence(short, long)
            for f, g in product((tuple, list, iter), repeat=2):
                assert is_subsequence(f(short), g(long)) == want, (short, long)

    def test_random_quaternary_pairs(self):
        rng = random.Random(11)
        for _ in range(2000):
            long = tuple(rng.choice((1, 2, 3, 4)) for _ in range(rng.randrange(0, 25)))
            if long and rng.random() < 0.5:  # a subsequence, perhaps with one change
                short = tuple(v for v in long if rng.random() < 0.7)
                if short and rng.random() < 0.5:
                    i = rng.randrange(len(short))
                    short = short[:i] + (smod4(short[i] + 1),) + short[i + 1:]
            else:
                short = tuple(rng.choice((1, 2, 3, 4)) for _ in range(rng.randrange(0, 8)))
            want = generator_subsequence(short, long)
            assert is_subsequence(short, long) == want
            assert is_subsequence(list(short), iter(long)) == want
            assert is_subsequence(iter(short), list(long)) == want


class TestParameterErrors:
    """One malformed input for each input check, with the text it raises."""

    @pytest.mark.parametrize("call, text", [
        (lambda: as_strand(()), "empty strand"),
        (lambda: as_strand(5), "strand must be a sequence of symbols, got 5"),
        (lambda: defect_ball(((1, 2),), 3), "defect radius exceeds strand length"),
        (lambda: run_sequence(()), "empty word has no run sequence"),
        (lambda: symbol_positions((1, 2), 5), "symbol 5 outside alphabet"),
        (lambda: default_regular_window(1), "strand length must be an int >= 2, got 1"),
        (lambda: diff(()), "empty strand"),
        (lambda: inverse_diff(()), "empty strand"),
        (lambda: defect_ball((), 1), "a tuple of strands expected, got ()"),
        (lambda: defect_ball(((1, 2),), "1"), "defect radius must be an int, got '1'"),
        (lambda: symbol_positions(5, 1), "strand must be a sequence of symbols, got 5"),
        (lambda: all_strands(-1), "strand length must be an int >= 0, got -1"),
        (lambda: confusable_ball(5, {1}), "strand must be a sequence of symbols, got 5"),
        (lambda: confusable_ball((1, 2), 5), "a collection of defect cycles expected, got 5"),
        (lambda: confusable_ball((1, 2), {"1"}),
         "defect cycle must be an int, got '1'"),
        (lambda: run_sequence(5), "binary word expected, got 5"),
        (lambda: longest_run(5), "binary word expected, got 5"),
        (lambda: is_regular((0, 1), "4"), "regularity window must be an int >= 4, got '4'"),
        (lambda: is_regular(5, 4), "binary word expected, got 5"),
        (lambda: default_regular_window("8"), "strand length must be an int >= 2, got '8'"),
        (lambda: symbol_positions((1, 2), 1.0), "symbol must be an int, got 1.0"),
        (lambda: defect_ball(("12",), 1),
         "strands and a set of defect cycles expected, got ('12',), (1,)"),
        (lambda: apply_defects_tuple(5, {1}),
         "strands and a set of defect cycles expected, got 5, {1}"),
        (lambda: apply_defects_tuple(((1, 2),), 5),
         "strands and a set of defect cycles expected, got ((1, 2),), 5"),
    ], ids=["as_strand", "as_strand int", "defect_ball", "run_sequence", "symbol_positions",
            "default_regular_window", "diff empty", "inverse_diff empty", "defect_ball empty",
            "defect_ball str radius", "symbol_positions int", "all_strands negative",
            "confusable_ball int strand", "confusable_ball int cycles",
            "confusable_ball str cycle", "run_sequence int", "longest_run int",
            "is_regular str window", "is_regular int word", "default_regular_window str",
            "symbol_positions float symbol", "defect_ball str strand",
            "apply_defects_tuple int strands", "apply_defects_tuple int cycles"])
    def test_rejected(self, call, text):
        with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
            call()
