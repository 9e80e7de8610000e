"""Tokenization and term extraction over titles and abstracts.

The stopword list ships as a versioned data file; changing it is a
breaking output change for every bigram-based analysis.
"""
from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9\-']*")


def collapse_whitespace(text: str) -> str:
    """``text`` with each whitespace run made one space and the ends
    trimmed.  Whitespace is what ``str.isspace`` accepts, the same code
    points as the ``\\s`` of ``re``; ingest collapses every field so."""
    return " ".join(text.split())


@lru_cache(maxsize=1)
def stopwords() -> frozenset[str]:
    data = resources.files("scimap.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(line.strip() for line in data.splitlines()
                     if line.strip() and not line.startswith("#"))


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def bigrams_of(text: str) -> list[str]:
    """Stopword-filtered word bigrams of a text, in order of appearance.

    A bigram survives only when neither word is a stopword and neither is
    a bare number; duplicates within the text are kept (callers that want
    per-document presence semantics take the set).
    """
    stop = stopwords()
    # Each word is judged once; a dropped word becomes None and breaks
    # both bigrams it would have joined.
    words = [None if word in stop or word.isdigit() else word
             for word in tokenize(text)]
    return [f"{first} {second}" for first, second in zip(words, words[1:])
            if first and second]
