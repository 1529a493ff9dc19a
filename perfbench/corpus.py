"""Seeded synthetic corpora for the benchmark workloads.

Sentence lengths and labels follow a fixed schedule that does not depend on
the seed, and the benchmark splits every corpus with one fixed split seed.
So each seed yields the same split sizes and the same tokens per split, and
every seed asks the program for the same amount of simulation.  The seed
picks the words: a Zipf-distributed shared lexicon (rare words dominate the
vocabulary) mixed with a few class cue words, so that training can lower
the loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Seed of the length schedule; fixed so that work per run is seed-independent.
SCHEDULE_SEED = 2205
ZIPF = 1.0  # exponent of the shared-word rank distribution
CUE_SHARE = 0.25  # probability that a token is a cue word of its class
_SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu",
    "na", "pe", "ri", "so", "tu", "va", "we", "xi", "yo", "zu",
)


@dataclass(frozen=True)
class CorpusSpec:
    sentences: int
    mean_len: float
    len_sd: float
    min_len: int
    max_len: int
    lexicon: int  # shared word types
    cue_words: int  # cue words per class


def word(index: int) -> str:
    """Distinct lowercase pseudo-word for every non-negative index."""
    out = ""
    while True:
        index, digit = divmod(index, len(_SYLLABLES))
        out += _SYLLABLES[digit]
        if index == 0:
            return out
        index -= 1


def lengths(spec: CorpusSpec) -> np.ndarray:
    rng = np.random.default_rng(SCHEDULE_SEED)
    raw = rng.normal(spec.mean_len, spec.len_sd, spec.sentences)
    return np.clip(np.rint(raw), spec.min_len, spec.max_len).astype(int)


def generate(spec: CorpusSpec, seed: int) -> list[tuple[str, int]]:
    """(text, label) pairs; every third position is negative, the rest positive."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, spec.lexicon + 1, dtype=np.float64)
    weights = ranks ** -ZIPF
    weights /= weights.sum()
    # shared words first, then the cue words of class 0, then of class 1
    cue_base = spec.lexicon
    samples = []
    for pos, length in enumerate(lengths(spec)):
        label = int(pos % 3 != 0)
        shared = rng.choice(spec.lexicon, size=length, p=weights)
        cue = rng.random(length) < CUE_SHARE
        cues = cue_base + label * spec.cue_words + rng.integers(0, spec.cue_words, length)
        ids = np.where(cue, cues, shared)
        samples.append((" ".join(word(int(i)) for i in ids), label))
    return samples


def stats(samples) -> dict:
    """Sentence count, length distribution, vocabulary and repeat share."""
    lens = np.array([len(text.split()) for text, _ in samples])
    seen: set[str] = set()
    repeats = 0
    for text, _ in samples:
        for token in text.split():
            repeats += token in seen
            seen.add(token)
    return {
        "sentences": len(samples),
        "tokens": int(lens.sum()),
        "len_mean": float(lens.mean()),
        "len_min": int(lens.min()),
        "len_max": int(lens.max()),
        "vocabulary": len(seen),
        "repeat_share": repeats / int(lens.sum()),
    }
