"""Test-only oracle: local-citation matching one mention at a time.

``scimap.graphs.match_local_citations`` matches and keys each distinct
cited reference once.  This is the matcher it replaced, kept verbatim so
a differential test can require an equal ``LocalCitations``, down to
the order of every dict and of the ``Counter``.
"""
from __future__ import annotations

from collections import Counter
from typing import Optional

from scimap.graphs import (
    LocalCitations, _doc_ref_label, _ref_label, _source_prefix_match,
)
from scimap.normalize import reference_key, surname_of
from scimap.records import CitedReference, Corpus, Document


def match_local_citations(corpus: Corpus) -> LocalCitations:
    """Match every cited reference against the corpus.

    A reference hits a corpus document when the DOIs agree, or when the
    normalized first-author surname, the year, and a source prefix of at
    least six characters all agree.  Local citation counts are distinct
    citing documents; references never matched still get counted.
    """
    by_doi: dict[str, str] = {}
    by_author_year: dict[tuple[str, int], list[Document]] = {}
    for doc in corpus.documents:
        if doc.doi:
            by_doi.setdefault(doc.doi, doc.id)
        if doc.authors and doc.pub_year is not None:
            key = (surname_of(doc.authors[0]), doc.pub_year)
            by_author_year.setdefault(key, []).append(doc)

    def match(ref: CitedReference) -> Optional[str]:
        if ref.doi and ref.doi in by_doi:
            return by_doi[ref.doi]
        if ref.first_author and ref.year is not None:
            key = (surname_of(ref.first_author), ref.year)
            for doc in by_author_year.get(key, []):
                if _source_prefix_match(ref.source, doc.source):
                    return doc.id
        return None

    labels: dict[tuple, str] = {}
    years: dict[tuple, Optional[int]] = {}
    mentions: dict[str, set[tuple]] = {}
    doc_by_id = {doc.id: doc for doc in corpus.documents}

    for doc in corpus.documents:
        seen: set[tuple] = set()
        for ref in doc.cited_refs:
            target = match(ref)
            if target == doc.id:
                continue  # a record citing itself carries no local signal
            key = ("doc", target) if target else reference_key(ref)
            seen.add(key)
            if key in labels:
                continue
            # The first mention names the key; later ones only count.
            if target:
                labels[key] = _doc_ref_label(doc_by_id[target])
                years[key] = doc_by_id[target].pub_year
            else:
                labels[key] = _ref_label(ref)
                years[key] = ref.year
        mentions[doc.id] = seen

    reference_counts = Counter()
    for keys in mentions.values():
        reference_counts.update(keys)
    return LocalCitations(mentions=mentions, reference_counts=reference_counts,
                          reference_labels=labels, reference_years=years)
