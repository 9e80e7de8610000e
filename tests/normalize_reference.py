"""Test-only oracle: the string parsers that ``scimap.normalize`` shipped
before it memoized them and before it collapsed whitespace with ``str``
methods, kept verbatim.

``fold_ascii`` always takes the NFKD path, and ``parse_cited_reference``
and ``surname_of`` recompute on every call.  ``parse_cited_reference``
fills a mutable copy of the reference, since ``CitedReference`` itself
cannot be edited, and runs every segment's regex with no shape check in
front.  Its two edits are marked by ``Edit`` comments: it still fills
the seven parts a reference had, volume and page included, and returns
the five that ``CitedReference`` keeps; and it drops the colon of a
``DOI:`` tag before the DOI is read.  ``normalize_author_name``,
``normalize_affiliation``, ``_split_terms``, ``_joined`` and ``corpus.normalized_title`` collapse
whitespace with one regex pass.  ``normalize_doi`` is a copy too, so
no DOI goes through the shipped code on both sides of a check.
``tests/test_normalize_memo.py`` and
``tests/test_normalize_differential.py`` require the shipped functions
to return the same values as these for every input.
"""
from __future__ import annotations

import re
import unicodedata
from types import SimpleNamespace
from typing import Optional

from scimap.records import CitedReference

_DOI_RE = re.compile(r"^10\.[^/\s]+/\S+$")
_YEAR_SEG = re.compile(r"^(1[4-9]\d{2}|20\d{2}|21\d{2})$")
_VOLUME_SEG = re.compile(r"^V\d+[A-Z]?$")
_PAGE_SEG = re.compile(r"^P[A-Z]?\d+[A-Z]?$")
WHITESPACE_RUN = re.compile(r"\s+")


def normalize_doi(raw: str) -> Optional[str]:
    """Canonical lowercase DOI, or None when the syntax does not hold."""
    text = raw.strip()
    for prefix in ("https://doi.org/", "http://doi.org/", "http://dx.doi.org/", "doi:", "DOI:", "DOI "):
        if text.lower().startswith(prefix.lower()):
            text = text[len(prefix):].strip()
    text = text.strip("[]")
    if "," in text:  # bracketed DOI lists in some CR exports: keep the first
        text = text.split(",")[0].strip()
    text = text.lower().rstrip(".;")
    return text if _DOI_RE.match(text) else None


def fold_ascii(text: str) -> str:
    """Fold diacritics to ASCII (NFKD decomposition, combining marks dropped)."""
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def surname_of(name: str) -> str:
    """Surname match key of a name in either convention.

    Handles "KUMAR, PR" and the citing form "KUMAR PR" alike; spaces and
    hyphens are squeezed out so multi-word surnames compare stably.
    """
    head = fold_ascii(name).upper().replace(".", " ").strip()
    if "," in head:
        head = head.split(",")[0]
    else:
        tokens = head.split()
        if len(tokens) > 1 and len(tokens[-1]) <= 3:
            tokens = tokens[:-1]  # trailing initials
        head = " ".join(tokens)
    return re.sub(r"[\s\-]+", "", head)


def parse_cited_reference(raw: str) -> CitedReference:
    """Classify the comma-separated segments of a cited-reference string.

    Segments are assigned positionally and by shape: leading name, 4-digit
    year, venue, V-token, P-token, DOI token.  Whatever cannot be
    classified stays in ``raw`` only; the function never fails.
    """
    # Filled in place as segments are classified, then frozen at the end.
    # Edit: volume and page are filled here but not returned.
    ref = SimpleNamespace(**CitedReference(raw=raw)._asdict(),
                          volume=None, page=None)
    kept = CitedReference._fields
    if not raw.strip():
        return CitedReference(*(getattr(ref, name) for name in kept))
    segments = [seg.strip() for seg in raw.split(",")]
    claimed = [False] * len(segments)

    for i, seg in enumerate(segments):
        upper = seg.upper()
        if ref.doi is None and (upper.startswith("DOI") or _DOI_RE.match(seg.rstrip(".;"))):
            # Edit: was seg[3:], which left the colon of a "DOI:" tag
            doi = normalize_doi(seg if not upper.startswith("DOI") else seg[3:].removeprefix(":"))
            if doi:
                ref.doi = doi
                claimed[i] = True
        elif ref.year is None and _YEAR_SEG.match(seg):
            ref.year = int(seg)
            claimed[i] = True
        elif ref.volume is None and _VOLUME_SEG.match(upper):
            ref.volume = upper
            claimed[i] = True
        elif ref.page is None and _PAGE_SEG.match(upper):
            ref.page = upper
            claimed[i] = True

    if segments and not claimed[0] and segments[0]:
        ref.first_author = re.sub(r"\s+", " ", fold_ascii(segments[0]).replace(".", " ")).strip().upper()
        claimed[0] = True
    # The venue is the first unclaimed letter-initial segment after the
    # author; segments of other shapes (e.g. a malformed year) stay in raw.
    for i, seg in enumerate(segments):
        if not claimed[i] and seg and i > 0 and seg[0].isalpha():
            ref.source = re.sub(r"\s+", " ", fold_ascii(seg)).strip().upper()
            break
    return CitedReference(*(getattr(ref, name) for name in kept))


def normalize_author_name(raw: str) -> str:
    """Normalize a personal name to ``SURNAME, IJ``.

    Accepts the comma form ("Tsai, Chih-Fong"), the surname-first citing
    form ("SHIN KS"), and anything already normalized; the function is
    idempotent and case-insensitive on input.  Blank input is an error.
    """
    if not raw or not raw.strip():
        raise ValueError("blank author name")
    text = fold_ascii(raw).replace(".", " ").strip()
    text = WHITESPACE_RUN.sub(" ", text)
    if "," in text:
        surname, _, given = text.partition(",")
    else:
        tokens = text.split(" ")
        if len(tokens) == 1:
            surname, given = tokens[0], ""
        else:
            # Surname-first convention: a short final token is the initials.
            surname, given = " ".join(tokens[:-1]), tokens[-1]
    initials = "".join(_initials_of(part) for part in re.split(r"[\s\-]+", given) if part)
    surname = re.sub(r"[^A-Za-z\- ]", "", surname).upper().strip()
    if not surname:
        raise ValueError(f"no surname in author name: {raw!r}")
    return f"{surname}, {initials}" if initials else surname


def _initials_of(part: str) -> str:
    # "KS" is two initials; "Kyung" contributes one.
    if part.isupper() and len(part) <= 3:
        return "".join(ch for ch in part if ch.isalpha())
    for ch in part:
        if ch.isalpha():
            return ch.upper()
    return ""


def normalize_affiliation(raw: str) -> str:
    """Normalize one affiliation line: strip the bracketed author list WoS
    prepends, fold to ASCII uppercase, collapse whitespace."""
    text = re.sub(r"^\[[^\]]*\]\s*", "", raw)
    text = fold_ascii(text).upper()
    text = WHITESPACE_RUN.sub(" ", text).strip().rstrip(".")
    return text


def _split_terms(values: list[str]) -> list[str]:
    """Split keyword value lines on ';', lowercase and trim, drop repeats."""
    seen: dict[str, None] = {}
    for value in values:
        for term in value.split(";"):
            term = WHITESPACE_RUN.sub(" ", term).strip().lower()
            if term:
                seen.setdefault(term, None)
    return list(seen)


def _joined(entries: dict[str, list[str]], tag: str) -> str:
    """The value lines of ``tag`` joined, whitespace runs collapsed."""
    return WHITESPACE_RUN.sub(" ", " ".join(entries.get(tag, []))).strip()


def normalized_title(title: str) -> str:
    text = fold_ascii(title).lower()
    text = re.sub(r"[^a-z0-9]+", " ", text)
    return WHITESPACE_RUN.sub(" ", text).strip()
