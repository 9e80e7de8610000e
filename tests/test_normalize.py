from __future__ import annotations

import random

import pytest

from conftest import make_document, make_ref
from scimap.normalize import (
    country_of, field_values, institution_of, normalize_author_name,
    normalize_doi, parse_cited_reference, to_document,
)
from scimap.parsing import parse_plaintext_export
from scimap.records import FIELD_ROLES, CitedReference


def test_full_given_name_reduced_to_initials():
    assert normalize_author_name("Tsai, Chih-Fong") == "TSAI, CF"


def test_surname_first_short_form():
    assert normalize_author_name("SHIN KS") == "SHIN, KS"


def test_multi_part_given_name():
    assert normalize_author_name("Kumar, P. Ravi") == "KUMAR, PR"
    assert normalize_author_name("Du Jardin, Philippe") == "DU JARDIN, P"


def test_diacritics_folded():
    assert normalize_author_name("Kudelić, Robert") == "KUDELIC, R"


def test_blank_name_is_error():
    with pytest.raises(ValueError):
        normalize_author_name("   ")


def test_normalization_idempotent_on_random_fixtures():
    rng = random.Random(7)
    surnames = ["Smith", "Del Toro", "O'Neill", "Zhang", "Kudelić", "van der Berg"]
    givens = ["Chih-Fong", "P. Ravi", "KS", "Anna Maria", "J", "Li-Wei"]
    for _ in range(200):
        raw = f"{rng.choice(surnames)}, {rng.choice(givens)}"
        once = normalize_author_name(raw)
        assert normalize_author_name(once) == once
    # case-insensitive on input
    assert normalize_author_name("tsai, chih-fong") == normalize_author_name("TSAI, CHIH-FONG")


def test_cited_reference_classic_segments():
    ref = parse_cited_reference("ALTMAN EI, 1968, J FINANC, V23, P589")
    assert ref.first_author == "ALTMAN EI"
    assert ref.year == 1968
    assert ref.source == "J FINANC"
    assert ref.doi is None
    assert ref.raw == "ALTMAN EI, 1968, J FINANC, V23, P589"
    assert ref._fields == ("raw", "first_author", "year", "source", "doi")


@pytest.mark.parametrize("raw, source", [
    ("A B, 2001, V1, V2, J X", "V2"),
    ("A B, 2001, p3, P4, J X", "P4"),
    ("A B, 2001, v1, p2, J X", "J X"),
    ("A B, 2001, P2, V1A, J X", "J X"),
])
def test_cited_reference_claims_only_the_first_volume_and_page(raw, source):
    # A later V- or P-token is unclaimed, so it can become the venue.
    assert parse_cited_reference(raw) == CitedReference(raw, "A B", 2001, source)


def test_cited_reference_empty_string():
    ref = parse_cited_reference("")
    assert ref.raw == ""
    assert ref.first_author is None and ref.year is None and ref.source is None


def test_cited_reference_unparseable_year():
    ref = parse_cited_reference("SOMEBODY A, 20XX, VENUE")
    assert ref.first_author == "SOMEBODY A"
    assert ref.year is None
    assert ref.source == "VENUE"
    assert "20XX" in ref.raw


def test_cited_reference_with_doi():
    ref = parse_cited_reference(
        "KUMAR PR, 2007, EUR J OPER RES, V180, P1, DOI 10.1016/j.ejor.2006.08.043")
    assert ref.doi == "10.1016/j.ejor.2006.08.043"
    assert ref.source == "EUR J OPER RES"


@pytest.mark.parametrize("tag, doi", [
    ("DOI:10.1000/abc", "10.1000/abc"),
    ("DOI: 10.1000/abc", "10.1000/abc"),
    ("doi:10.1000/ABC", "10.1000/abc"),
    ("DOI 10.1000/abc", "10.1000/abc"),
    ("DOI DOI 10.1000/abc", "10.1000/abc"),
    ("DOI [10.1000/abc, 10.1000/def]", "10.1000/abc"),
])
def test_cited_reference_doi_tag_forms(tag, doi):
    ref = parse_cited_reference(f"SMITH J, 2001, J FINANC, V5, P1, {tag}")
    assert (ref.doi, ref.year, ref.source) == (doi, 2001, "J FINANC")


def test_doi_normalization():
    assert normalize_doi("10.1016/J.EJOR.2006.08.043") == "10.1016/j.ejor.2006.08.043"
    assert normalize_doi("https://doi.org/10.2307/2490395") == "10.2307/2490395"
    assert normalize_doi("not a doi") is None


def test_affiliation_helpers():
    aff = "INST DEV & RES BANKING TECHNOL, HYDERABAD 500057, ANDHRA PRADESH, INDIA"
    assert institution_of(aff) == "INST DEV & RES BANKING TECHNOL"
    assert country_of(aff) == "INDIA"
    assert country_of("NYU STERN SCH BUSINESS, NEW YORK, NY 10012 USA") == "USA"
    assert country_of("UNIV SOUTHAMPTON, SOUTHAMPTON, ENGLAND") == "UNITED KINGDOM"
    assert country_of("ZHEJIANG NORMAL UNIV, JINHUA, PEOPLES R CHINA") == "CHINA"


RECORD = (
    "FN Thomson Reuters Web of Science\nVR 1.0\n"
    "PT J\n"
    "AU Kumar, P. Ravi\n"
    "   Ravi, V.\n"
    "TI Bankruptcy prediction in banks and firms\n"
    "SO EUROPEAN JOURNAL OF OPERATIONAL RESEARCH\n"
    "LA English\n"
    "DT Article\n"
    "DE bankruptcy prediction; Neural networks\n"
    "C1 [Kumar, P. Ravi] Inst Dev & Res Banking Technol, Hyderabad, India.\n"
    "RP Ravi, V. (corresponding author), Inst Dev & Res Banking Technol, Hyderabad, India.\n"
    "CR ALTMAN EI, 1968, J FINANC, V23, P589\n"
    "   OHLSON JA, 1980, J ACCOUNTING RES, V18, P109\n"
    "NR 2\n"
    "TC 609\n"
    "PY 2007\n"
    "DI 10.1016/j.ejor.2006.08.043\n"
    "WC Management; Operations Research\n"
    "ER\nEF\n"
)


def _one_record(text=RECORD):
    return parse_plaintext_export(text.encode(), source_file="sample.txt")[0]


def test_to_document_maps_py_and_tc():
    doc = to_document(_one_record(), reference_year=2023)
    assert doc.pub_year == 2007
    assert doc.total_citations == 609
    assert doc.authors == ["KUMAR, PR", "RAVI, V"]
    assert doc.source == "EUROPEAN JOURNAL OF OPERATIONAL RESEARCH"
    assert doc.author_keywords == ["bankruptcy prediction", "neural networks"]
    assert doc.doi == "10.1016/j.ejor.2006.08.043"
    assert doc.doc_type == "article"
    assert len(doc.cited_refs) == 2
    assert doc.affiliations == ["INST DEV & RES BANKING TECHNOL, HYDERABAD, INDIA"]


def test_missing_de_yields_empty_keywords():
    text = RECORD.replace("DE bankruptcy prediction; Neural networks\n", "")
    doc = to_document(_one_record(text), reference_year=2023)
    assert doc.author_keywords == []
    assert "DE" in doc.missing_fields


def test_unparseable_py_flags_but_does_not_fail():
    text = RECORD.replace("PY 2007\n", "PY 20O7\n")
    doc = to_document(_one_record(text), reference_year=2023)
    assert doc.pub_year is None
    assert any(flag.startswith("unparseable-py") for flag in doc.quality_flags)


def test_bad_tc_is_an_error():
    text = RECORD.replace("TC 609\n", "TC -3\n")
    with pytest.raises(ValueError):
        to_document(_one_record(text), reference_year=2023)
    text = RECORD.replace("TC 609\n", "TC many\n")
    with pytest.raises(ValueError):
        to_document(_one_record(text), reference_year=2023)


def test_nr_cr_mismatch_flagged_both_retained():
    text = RECORD.replace("NR 2\n", "NR 33\n")
    doc = to_document(_one_record(text), reference_year=2023)
    assert doc.ref_count == 33
    assert len(doc.cited_refs) == 2
    assert any(flag.startswith("nr-cr-mismatch") for flag in doc.quality_flags)


# Field accessor ---------------------------------------------------------------

def full_document():
    return make_document(
        "d1", authors=["TSAI, CF", "HSU, YF"], title="Deep credit scoring",
        source="EXPERT SYST APPL", pub_year=2020, total_citations=0,
        cited_refs=[make_ref("ALTMAN EI, 1968, J FINANC, V23, P589")],
        keywords=["Credit scoring"], keywords_plus=["Bankruptcy"],
        abstract="Credit scoring with deep networks.",
        affiliations=["NATL CENT UNIV, TAOYUAN, TAIWAN",
                      "UNIV OXFORD, OXFORD, ENGLAND"],
        corresponding="NATL CENT UNIV, TAOYUAN, TAIWAN", doi="10.1/x",
        categories=["Computer Science"], ref_count=1)


def test_field_values_cover_every_field_role():
    full, empty = full_document(), make_document("e", doc_type="", language="")
    for tag, _ in FIELD_ROLES:
        assert field_values(full, tag), tag
        # a zero citation count is a value, not absence
        assert bool(field_values(empty, tag)) == (tag == "TC"), tag


def test_field_values_of_entity_and_derived_fields():
    doc = full_document()
    assert field_values(doc, "AU") == {"TSAI, CF", "HSU, YF"}
    assert field_values(doc, "C1") == {"NATL CENT UNIV", "UNIV OXFORD"}
    assert field_values(doc, "CO") == {"TAIWAN", "UNITED KINGDOM"}
    assert field_values(doc, "CR_SO") == {"J FINANC"}
    assert field_values(doc, "TC") == {"0"}
    assert field_values(doc, "title-bigrams") == {"deep credit", "credit scoring"}
    assert "deep networks" in field_values(doc, "abstract-bigrams")
    assert field_values(make_document("e", doc_type="", language=""),
                        "abstract-bigrams") == set()


def test_field_values_unknown_tag_is_error():
    with pytest.raises(ValueError, match="'XX'"):
        field_values(full_document(), "XX")
