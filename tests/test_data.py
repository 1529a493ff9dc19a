import numpy as np
import pytest

from qsann.data import (
    EmbeddingTable,
    LabeledSequence,
    Vocabulary,
    build_splits,
    load_tsv,
    make_separable_corpus,
    tokenize,
    write_tsv,
    OOV_TOKEN,
)
from qsann.errors import ConfigurationError, EmptySequenceError, ParseError


class TestLoadTsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("Great food.\t1\nAwful service.\t0\n")
        assert load_tsv(path) == [("Great food.", 1), ("Awful service.", 0)]

    def test_line_without_tab(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("fine line\t1\nno tab here\n")
        with pytest.raises(ParseError, match=":2"):
            load_tsv(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("text\t2\n")
        with pytest.raises(ParseError, match=":1"):
            load_tsv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_tsv(path)

    def test_thousand_lines(self, tmp_path):
        path = tmp_path / "big.tsv"
        path.write_text("".join(f"sample number {i}\t{i % 2}\n" for i in range(1000)))
        assert len(load_tsv(path)) == 1000

    def test_text_may_contain_tabs(self, tmp_path):
        # label is the trailing field
        path = tmp_path / "tabs.tsv"
        path.write_text("left\tright\t1\n")
        assert load_tsv(path) == [("left\tright", 1)]


class TestTokenize:
    def test_strip_punctuation(self):
        assert tokenize("Great food.") == ["great", "food"]

    def test_whitespace_only(self):
        assert tokenize("  ") == []

    def test_interior_punctuation(self):
        assert tokenize("Wow... Loved it!") == ["wow", "loved", "it"]

    def test_case_folding(self):
        assert tokenize("GOOD Good good") == ["good", "good", "good"]


class TestVocabulary:
    def test_oov_reserved(self):
        vocab = Vocabulary.from_token_lists([["a", "b"], ["b", "c"]])
        assert vocab.id_to_token[0] == OOV_TOKEN
        assert vocab.size == 4
        assert vocab.encode(["a", "zzz"]) == [1, 0]

    def test_round_trip(self):
        vocab = Vocabulary.from_token_lists([["x", "y", "z"]])
        tokens = ["x", "z", "y", "x"]
        assert vocab.decode(vocab.encode(tokens)) == tokens

    def test_hash_changes_with_content(self):
        a = Vocabulary.from_token_lists([["a"]])
        b = Vocabulary.from_token_lists([["b"]])
        assert a.content_hash() != b.content_hash()
        assert a.content_hash() == Vocabulary.from_token_lists([["a"]]).content_hash()


class TestLabeledSequence:
    def test_rejects_empty(self):
        with pytest.raises(EmptySequenceError):
            LabeledSequence([], 1, "x")

    def test_rejects_bad_label(self):
        with pytest.raises(ConfigurationError):
            LabeledSequence([1], 2, "x")


class TestBuildSplits:
    def make_samples(self, n):
        return [(f"token{i} filler{i % 7}", i % 2) for i in range(n)]

    def test_eighty_twenty(self):
        ds = build_splits(self.make_samples(1000), (0.8, 0.2), seed=3)
        assert (len(ds.train), len(ds.dev), len(ds.test)) == (800, 0, 200)

    def test_mc_style_three_way(self):
        ds = build_splits(self.make_samples(130), (70 / 130, 30 / 130, 30 / 130), seed=1)
        assert (len(ds.train), len(ds.dev), len(ds.test)) == (70, 30, 30)

    def test_same_seed_identical(self):
        samples = self.make_samples(60)
        a = build_splits(samples, (0.8, 0.2), seed=9)
        b = build_splits(samples, (0.8, 0.2), seed=9)
        assert [s.text for s in a.train] == [s.text for s in b.train]
        assert [s.text for s in a.test] == [s.text for s in b.test]

    def test_splits_disjoint(self):
        ds = build_splits(self.make_samples(100), (0.6, 0.2, 0.2), seed=5)
        texts = [s.text for s in ds.train + ds.dev + ds.test]
        assert len(texts) == len(set(texts)) == 100

    def test_vocab_from_training_only_and_oov(self):
        samples = [("aaa bbb", 0)] * 8 + [("ccc ddd", 1), ("eee fff", 1)]
        # seed chosen arbitrarily; whatever lands in test, unseen words map to 0
        ds = build_splits(samples, (0.8, 0.2), seed=0)
        train_tokens = {t for s in ds.train for t in ds.vocabulary.decode(s.token_ids)}
        assert OOV_TOKEN not in train_tokens
        for seq in ds.test:
            for tid in seq.token_ids:
                token = ds.vocabulary.id_to_token[tid]
                assert tid == 0 or token in train_tokens

    def test_round_trip_training_sentences(self):
        ds = build_splits(self.make_samples(50), (0.8, 0.2), seed=2)
        from qsann.data import tokenize as tok

        for seq in ds.train:
            assert ds.vocabulary.decode(seq.token_ids) == tok(seq.text)

    def test_bad_ratios(self):
        with pytest.raises(ConfigurationError):
            build_splits(self.make_samples(10), (0.5, 0.6), seed=0)
        with pytest.raises(ConfigurationError):
            build_splits(self.make_samples(10), (1.0,), seed=0)
        with pytest.raises(ConfigurationError):
            build_splits(self.make_samples(10), (float("nan"), 0.2), seed=0)

    def test_empty_split_on_tiny_data(self):
        with pytest.raises(ConfigurationError):
            build_splits(self.make_samples(3), (0.9, 0.05, 0.05), seed=0)

    def test_empty_tokenization_raises_unless_dropped(self):
        samples = [("good stuff", 1), ("...", 0)] * 5
        with pytest.raises(EmptySequenceError):
            build_splits(samples, (0.8, 0.2), seed=0)
        ds = build_splits(samples, (0.8, 0.2), seed=0, drop_empty=True)
        assert ds.dropped_empty == 5
        assert len(ds.train) + len(ds.test) == 5


class TestEmbeddingTable:
    def test_shape(self):
        table = EmbeddingTable(np.zeros((7, 6)))
        assert table.vocab_size == 7 and table.dim == 6


class TestToyCorpus:
    def test_disjoint_class_vocabularies(self):
        corpus = make_separable_corpus(seed=4, n_samples=100)
        words = {0: set(), 1: set()}
        for text, label in corpus:
            words[label].update(text.split())
        assert words[0] and words[1]
        assert not words[0] & words[1]

    def test_lengths_and_balance(self):
        corpus = make_separable_corpus(seed=4, n_samples=100, min_len=3, max_len=4)
        assert len(corpus) == 100
        assert sum(label for _, label in corpus) == 50
        assert all(3 <= len(text.split()) <= 4 for text, _ in corpus)

    def test_write_then_load(self, tmp_path):
        corpus = make_separable_corpus(seed=1, n_samples=20)
        path = tmp_path / "toy.tsv"
        write_tsv(corpus, path)
        assert load_tsv(path) == corpus
