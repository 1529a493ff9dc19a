"""Corpus ingestion, tokenization, vocabulary and train/dev/test splitting.

Input format is one sample per line: the raw text, a single tab, then a 0/1
label.  Tokenization is deliberately plain (lowercase, whitespace split,
strip surrounding punctuation) since all target corpora are small-vocabulary
sentence sets.  The vocabulary is built from the training split only; every
unseen token maps to a shared out-of-vocabulary id 0 with its own trainable
embedding row.
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, EmptySequenceError, ParseError

OOV_TOKEN = "<oov>"
_STRIP_CHARS = string.punctuation


def load_tsv(path) -> list[tuple[str, int]]:
    """Read (text, label) pairs, preserving file order."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    samples: list[tuple[str, int]] = []
    for lineno, line in enumerate(lines, start=1):
        if line == "":
            continue
        if "\t" not in line:
            raise ParseError(f"{path}:{lineno}: expected a tab-separated label")
        text, label = line.rsplit("\t", 1)
        label = label.strip()
        if label not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: label must be 0 or 1, got {label!r}")
        samples.append((text, int(label)))
    if not samples:
        raise ParseError(f"{path}: file contains no samples")
    return samples


def tokenize(text: str) -> list[str]:
    tokens = []
    for raw in text.lower().split():
        stripped = raw.strip(_STRIP_CHARS)
        if stripped:
            tokens.append(stripped)
    return tokens


@dataclass
class Vocabulary:
    """Bidirectional token/id map with id 0 reserved for out-of-vocabulary."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        if not self.id_to_token or self.id_to_token[0] != OOV_TOKEN:
            raise ConfigurationError(f"id 0 must be the reserved {OOV_TOKEN} token")
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ConfigurationError("vocabulary contains duplicate tokens")

    @classmethod
    def from_token_lists(cls, token_lists) -> "Vocabulary":
        ordered = [OOV_TOKEN]
        seen = {OOV_TOKEN}
        for tokens in token_lists:
            for token in tokens:
                if token not in seen:
                    seen.add(token)
                    ordered.append(token)
        return cls(ordered)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    @property
    def oov_id(self) -> int:
        return 0

    def encode(self, tokens) -> list[int]:
        return [self.token_to_id.get(token, self.oov_id) for token in tokens]

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def content_hash(self) -> str:
        payload = "\n".join(self.id_to_token).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


@dataclass
class EmbeddingTable:
    """Trainable word vectors, one row per vocabulary id (row 0 = OOV)."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise ConfigurationError("embedding table must be 2-dimensional")

    @property
    def vocab_size(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def check_ids(self, sequence) -> list[int]:
        """The sequence as a list of row ids; empty or out-of-range ids raise."""
        ids = list(sequence)
        if not ids:
            raise EmptySequenceError("empty token sequence")
        for t in ids:
            if not 0 <= t < self.vocab_size:
                raise IndexError(f"token id {t} outside vocabulary")
        return ids

    @classmethod
    def init_gaussian(
        cls, vocab_size: int, dim: int, rng: np.random.Generator, std: float = 0.01
    ) -> "EmbeddingTable":
        return cls(rng.normal(0.0, std, (vocab_size, dim)))


@dataclass
class LabeledSequence:
    token_ids: list[int]
    label: int
    text: str

    def __post_init__(self) -> None:
        if not self.token_ids:
            raise EmptySequenceError(f"sample has no tokens: {self.text!r}")
        if self.label not in (0, 1):
            raise ConfigurationError(f"label must be 0 or 1, got {self.label!r}")


@dataclass
class Dataset:
    train: list[LabeledSequence]
    dev: list[LabeledSequence]
    test: list[LabeledSequence]
    vocabulary: Vocabulary
    dropped_empty: int = 0

    @property
    def splits(self) -> dict[str, list[LabeledSequence]]:
        return {"train": self.train, "dev": self.dev, "test": self.test}


def build_splits(
    samples,
    ratios,
    seed: int,
    drop_empty: bool = False,
) -> Dataset:
    """Shuffle, split, and tokenize a list of (text, label) pairs.

    ``ratios`` holds two (train, test) or three (train, dev, test) fractions
    summing to one.  The shuffle is a deterministic function of ``seed``.
    Samples whose tokenization is empty raise unless ``drop_empty`` is set,
    in which case they are discarded before splitting and counted.
    """
    samples = list(samples)
    ratios = [float(r) for r in ratios]
    if len(ratios) not in (2, 3):
        raise ConfigurationError("ratios must have 2 (train/test) or 3 entries")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigurationError(f"ratios must sum to 1, got {sum(ratios)}")
    if any(r < 0 for r in ratios):
        raise ConfigurationError("ratios must be non-negative")

    tokenized: list[tuple[list[str], int, str]] = []
    dropped = 0
    for text, label in samples:
        tokens = tokenize(text)
        if not tokens:
            if drop_empty:
                dropped += 1
                continue
            raise EmptySequenceError(f"sample tokenizes to nothing: {text!r}")
        tokenized.append((tokens, label, text))

    total = len(tokenized)
    if total == 0:
        raise ConfigurationError("no usable samples")
    if len(ratios) == 2:
        ratios = [ratios[0], 0.0, ratios[1]]
    # cumulative rounding keeps the sizes summing to the total exactly
    first = int(round(ratios[0] * total))
    second = int(round((ratios[0] + ratios[1]) * total))
    n_train = first
    n_dev = second - first
    n_test = total - second
    for count, ratio, name in (
        (n_train, ratios[0], "train"),
        (n_dev, ratios[1], "dev"),
        (n_test, ratios[2], "test"),
    ):
        if ratio > 0 and count <= 0:
            raise ConfigurationError(f"{name} split would be empty for {total} samples")

    order = np.random.default_rng(seed).permutation(total)
    shuffled = [tokenized[i] for i in order]
    train_part = shuffled[:n_train]
    dev_part = shuffled[n_train : n_train + n_dev]
    test_part = shuffled[n_train + n_dev :]

    vocab = Vocabulary.from_token_lists(tokens for tokens, _, _ in train_part)

    def realize(part) -> list[LabeledSequence]:
        return [
            LabeledSequence(vocab.encode(tokens), label, text)
            for tokens, label, text in part
        ]

    return Dataset(
        train=realize(train_part),
        dev=realize(dev_part),
        test=realize(test_part),
        vocabulary=vocab,
        dropped_empty=dropped,
    )


def make_separable_corpus(
    seed: int,
    n_samples: int = 100,
    words_per_class: int = 8,
    min_len: int = 3,
    max_len: int = 4,
) -> list[tuple[str, int]]:
    """Synthetic binary corpus with disjoint class vocabularies.

    Every sentence draws all its words from one class's word pool, so the
    task is linearly separable at the embedding level; useful for smoke
    experiments and learnability checks.
    """
    if words_per_class < 1 or min_len < 1 or max_len < min_len:
        raise ConfigurationError("invalid toy corpus geometry")
    rng = np.random.default_rng(seed)
    pools = [
        [f"neg{i:02d}" for i in range(words_per_class)],
        [f"pos{i:02d}" for i in range(words_per_class)],
    ]
    samples = []
    for idx in range(n_samples):
        label = idx % 2
        length = int(rng.integers(min_len, max_len + 1))
        words = [pools[label][int(k)] for k in rng.integers(0, words_per_class, length)]
        samples.append((" ".join(words), label))
    return samples


def write_tsv(samples, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for text, label in samples:
            handle.write(f"{text}\t{label}\n")
