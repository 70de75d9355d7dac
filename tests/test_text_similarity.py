"""Unit and property-based tests for the string similarity functions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.similarity import (
    SIMILARITY_FUNCTIONS,
    available_similarity_functions,
    cosine_token_similarity,
    get_similarity_function,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_ratio,
    monge_elkan_similarity,
    overlap_coefficient,
    tokenize_value,
)
from repro.text.similarity import _normalise

short_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=" -."),
    max_size=30,
)


class TestTokenize:
    def test_basic_tokenization(self):
        assert tokenize_value("Here Comes The Fuzz [Explicit]") == [
            "here", "comes", "the", "fuzz", "explicit",
        ]

    def test_numbers_and_punctuation(self):
        assert tokenize_value("GPT-3.5, v0613!") == ["gpt", "3", "5", "v0613"]

    def test_none_and_empty(self):
        assert tokenize_value(None) == []
        assert tokenize_value("") == []
        assert tokenize_value("   ") == []


class TestLevenshtein:
    def test_identical_strings_have_zero_distance(self):
        assert levenshtein_distance("entity", "entity") == 0

    def test_known_distance(self):
        assert levenshtein_distance("kitten", "sitting") == 3

    def test_empty_versus_nonempty(self):
        assert levenshtein_distance("", "abcd") == 4
        assert levenshtein_distance("abcd", "") == 4

    def test_case_insensitive(self):
        assert levenshtein_distance("IPhone", "iphone") == 0

    def test_ratio_of_identical_strings_is_one(self):
        assert levenshtein_ratio("iphone-13", "iphone-13") == pytest.approx(1.0)

    def test_ratio_of_disjoint_strings(self):
        # Eq. 5: LR = 1 - LED / (len(a) + len(b)); replacing every character
        # costs len(a) edits, so fully disjoint equal-length strings score 0.5.
        assert levenshtein_ratio("aaaa", "zzzz") == pytest.approx(0.5)
        assert levenshtein_ratio("aaaa", "zzzzzzzz") < 0.5

    def test_ratio_both_empty(self):
        assert levenshtein_ratio("", "") == 1.0
        assert levenshtein_ratio(None, None) == 1.0

    def test_ratio_paper_example(self):
        # The paper's Section VI-G example contrasts LR("listen", "silent")
        # with its character-level Jaccard; under Eq. 5 the edit distance of 4
        # over a total length of 12 gives 1 - 4/12 = 2/3, well below the
        # character-Jaccard similarity of ~0.89 the paper quotes.
        assert levenshtein_ratio("listen", "silent") == pytest.approx(2 / 3)

    @given(short_text, short_text)
    @settings(max_examples=60, deadline=None)
    def test_distance_symmetry(self, left, right):
        assert levenshtein_distance(left, right) == levenshtein_distance(right, left)

    @given(short_text, short_text)
    @settings(max_examples=60, deadline=None)
    def test_ratio_bounds(self, left, right):
        assert 0.0 <= levenshtein_ratio(left, right) <= 1.0

    @given(short_text)
    @settings(max_examples=40, deadline=None)
    def test_identity_is_maximal(self, text):
        assert levenshtein_ratio(text, text) == pytest.approx(1.0)


def reference_levenshtein(left, right):
    """The two-row dynamic program the bit-parallel kernel replaced."""
    a = _normalise(left)
    b = _normalise(right)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            current.append(
                min(current[j - 1] + 1, previous[j] + 1, previous[j - 1] + (char_a != char_b))
            )
        previous = current
    return previous[-1]


def reference_ratio(left, right):
    total_length = len(_normalise(left)) + len(_normalise(right))
    if total_length == 0:
        return 1.0
    return 1.0 - reference_levenshtein(left, right) / total_length


#: Few distinct characters: many matches, long runs, carries across words.
small_alphabet_text = st.text(alphabet="abAB ", max_size=200)
#: Anything: non-ASCII, whitespace, mixed case, so normalisation is exercised.
any_text = st.text(max_size=200)


class TestLevenshteinAgainstDynamicProgram:
    """Differential test of the bit-parallel kernel against the two-row DP."""

    @staticmethod
    def check(left, right):
        assert levenshtein_distance(left, right) == reference_levenshtein(left, right)
        assert levenshtein_ratio(left, right) == reference_ratio(left, right)

    @given(small_alphabet_text, small_alphabet_text)
    @settings(max_examples=150, deadline=None)
    def test_small_alphabet(self, left, right):
        self.check(left, right)

    @given(any_text, any_text)
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_text(self, left, right):
        self.check(left, right)

    @pytest.mark.parametrize("length", [1, 63, 64, 65, 128])
    def test_pattern_word_boundaries(self, length):
        # The shorter normalised string is ``length`` long (padding and case
        # vanish under normalisation); the longer side shares runs with it,
        # reverses it, or shares nothing, on both sides of a 64-bit word.
        pattern = "".join("abcé"[(i * i) % 4] for i in range(length))
        texts = [
            "  " + pattern.upper() + "zz ",
            pattern[::-1] + "xyz",
            ("ab" * length)[: length + 5],
            "é" * (length + 1),
            pattern[: length // 2] + "q" + pattern[length // 2:] + "Ω" * 70,
        ]
        for text in texts:
            assert len(_normalise(pattern)) == length < len(_normalise(text))
            self.check(pattern, text)
            self.check(text, pattern)

    @pytest.mark.parametrize("other", [None, "", "   ", "a", "Entity Resolution"])
    def test_none_inputs(self, other):
        self.check(None, other)
        self.check(other, None)


class TestJaccard:
    def test_identical_token_sets(self):
        assert jaccard_similarity("red wireless mouse", "wireless red mouse") == 1.0

    def test_disjoint_token_sets(self):
        assert jaccard_similarity("alpha beta", "gamma delta") == 0.0

    def test_partial_overlap(self):
        # {"here","comes","the","fuzz"} vs {"here","comes","the","fuzz","explicit"}
        assert jaccard_similarity("Here Comes The Fuzz", "Here Comes The Fuzz [Explicit]") == pytest.approx(0.8)

    def test_both_empty_is_one(self):
        assert jaccard_similarity("", "") == 1.0

    def test_paper_example_listen_silent(self):
        # Token-level Jaccard cannot see character order; the paper notes the
        # character-level variant scores "listen"/"silent" much higher than LR.
        assert jaccard_similarity("listen", "silent") == 0.0

    @given(short_text, short_text)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bounds(self, left, right):
        forward = jaccard_similarity(left, right)
        backward = jaccard_similarity(right, left)
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0


class TestOtherSimilarities:
    def test_overlap_coefficient_subset_is_one(self):
        assert overlap_coefficient("samsung tv", "samsung tv 40 inch led") == 1.0

    def test_cosine_identical(self):
        assert cosine_token_similarity("a b c", "a b c") == pytest.approx(1.0)

    def test_cosine_disjoint(self):
        assert cosine_token_similarity("a b", "c d") == 0.0

    def test_jaro_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_jaro_known_value(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_jaro_winkler_boosts_common_prefix(self):
        plain = jaro_similarity("prefixed", "prefixes")
        boosted = jaro_winkler_similarity("prefixed", "prefixes")
        assert boosted >= plain

    def test_monge_elkan_token_alignment(self):
        value = monge_elkan_similarity("samsung galaxy tab", "galaxy tab samsung")
        assert value > 0.9

    @given(short_text, short_text)
    @settings(max_examples=40, deadline=None)
    def test_all_registered_functions_bounded(self, left, right):
        for name in available_similarity_functions():
            value = SIMILARITY_FUNCTIONS[name](left, right)
            assert 0.0 <= value <= 1.0 + 1e-9, name


class TestRegistry:
    def test_lookup_known_function(self):
        assert get_similarity_function("jaccard") is jaccard_similarity

    def test_lookup_unknown_function_raises(self):
        with pytest.raises(KeyError, match="unknown similarity function"):
            get_similarity_function("does-not-exist")

    def test_registry_is_complete(self):
        assert set(available_similarity_functions()) == set(SIMILARITY_FUNCTIONS)
