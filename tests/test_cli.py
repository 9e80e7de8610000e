from __future__ import annotations

import json
from pathlib import Path

import pytest

from scimap.cli import _commands, build_parser, main
from scimap.corpus import load_corpus
from scimap.graphio import read_graph, write_graph
from scimap.graphs import Graph, GraphNode

DATA = Path(__file__).parent / "data"
SAMPLE = str(DATA / "sample_export.txt")


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.dat"
    status = main(["ingest", "--format", "plaintext", SAMPLE,
                   "--reference-year", "2023", "-o", str(path)])
    assert status == 0
    return path


def read_csv(path):
    lines = path.read_bytes().decode().split("\r\n")
    head = lines[0].split("\n")
    meta = [line for line in head if line.startswith("#")]
    rows = [head[-1]] + [line for line in lines[1:] if line]
    return meta, rows


def test_ingest_builds_corpus_and_ledger(corpus_file):
    corpus = load_corpus(corpus_file)
    assert len(corpus) == 9  # ten records, one DOI duplicate merged
    assert corpus.reference_year == 2023
    ledger = corpus_file.with_suffix(".screening.csv")
    assert ledger.exists()
    _, rows = read_csv(ledger)
    assert any("duplicate-doi" in row for row in rows[1:])
    merged = {doc.id: doc for doc in corpus.documents}["sample_export.txt:1"]
    assert merged.total_citations == 512  # max of the duplicate snapshots
    assert "kernel methods" in merged.author_keywords  # keyword union


@pytest.mark.parametrize("line, edited, reason", [
    ("AU Shin, KS\n", "AU 123\n", "no surname in author name: '123'"),
    ("TC 456\n", "TC -3\n", "negative total citations: -3"),
])
def test_bad_record_names_the_export_and_record(tmp_path, capsys, line,
                                                edited, reason):
    text = Path(SAMPLE).read_text("utf-8")
    assert text.count(line) == 1  # the third record
    export = tmp_path / "bad.txt"
    export.write_text(text.replace(line, edited), "utf-8")
    corpus = tmp_path / "corpus.dat"
    assert main(["ingest", str(export), "--reference-year", "2023",
                 "-o", str(corpus)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scimap: error: {export}: record 3: {reason}")
    assert not corpus.exists()
    assert not corpus.with_suffix(".screening.csv").exists()


def test_missing_terminator_names_the_record_as_a_bad_record_does(tmp_path, capsys):
    # The third record loses its ER; the parser counts records as the
    # normalizer's error above does.
    records = Path(SAMPLE).read_text("utf-8").split("\nER\n")
    export = tmp_path / "bad.txt"
    export.write_text("\nER\n".join(records[:3]) + "\nEF\n", "utf-8")
    corpus = tmp_path / "corpus.dat"
    assert main(["ingest", str(export), "--reference-year", "2023",
                 "-o", str(corpus)]) == 1
    assert capsys.readouterr().err == (f"scimap: error: {export}: record 3: "
                                       "unterminated record (missing ER)\n")
    assert not corpus.exists()


def test_missing_export_names_its_path(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    corpus = tmp_path / "corpus.dat"
    assert main(["ingest", SAMPLE, str(missing), "-o", str(corpus)]) == 1
    assert capsys.readouterr().err == \
        f"scimap: error: export file not found: {missing}\n"
    assert not corpus.exists()


@pytest.mark.parametrize("fmt, sample", [("plaintext", SAMPLE),
                                         ("bibtex", DATA / "sample_export.bib")])
def test_non_utf8_export_names_its_full_path_once(tmp_path, capsys, fmt, sample):
    # Two exports share a basename; the error tells them apart.
    good, bad = tmp_path / "d1" / "a.txt", tmp_path / "d2" / "a.txt"
    good.parent.mkdir()
    bad.parent.mkdir()
    good.write_bytes(Path(sample).read_bytes())
    bad.write_bytes(b"PT J\n\xff\n")
    assert main(["ingest", "--format", fmt, str(good), str(bad),
                 "-o", str(tmp_path / "corpus.dat")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scimap: error: {bad}: byte 5: input is not valid "
                          "UTF-8: invalid start byte"), err
    assert err.count(str(bad)) == 1
    assert str(good) not in err


def test_ingest_retracted_file(tmp_path):
    bad = tmp_path / "retracted.txt"
    bad.write_text("10.1016/j.eswa.2022.117000\n")
    out = tmp_path / "corpus.dat"
    assert main(["ingest", SAMPLE, "--reference-year", "2023",
                 "--retracted", str(bad), "-o", str(out)]) == 0
    corpus = load_corpus(out)
    assert len(corpus) == 8
    assert all(d.doi != "10.1016/j.eswa.2022.117000" for d in corpus.documents)


def test_retraction_file_name_enters_the_config_hash(tmp_path):
    configs = []
    for name, listed in (("r1.txt", "sample_export.txt:2\n"), ("r2.txt", "")):
        retracted = tmp_path / name
        retracted.write_text(listed)
        out = tmp_path / name.replace(".txt", ".dat")
        assert main(["ingest", SAMPLE, "--reference-year", "2023",
                     "--retracted", str(retracted), "-o", str(out)]) == 0
        meta, _ = read_csv(out.with_suffix(".screening.csv"))
        configs += [line for line in meta if line.startswith("# config:")]
    assert len(configs) == 2 and configs[0] != configs[1]


def test_unknown_subcommand_exits_2(capsys):
    assert main(["explode"]) == 2
    assert "usage" in capsys.readouterr().err


def test_missing_corpus_is_data_error(tmp_path, capsys):
    assert main(["coverage", "--corpus", str(tmp_path / "nope.dat"),
                 "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_coverage_and_stats_artifacts(corpus_file, tmp_path):
    out = tmp_path / "arts"
    assert main(["coverage", "--corpus", str(corpus_file),
                 "--out", str(out)]) == 0
    meta, rows = read_csv(out / "coverage.csv")
    assert any(line.startswith("# config:") for line in meta)
    assert any(line.startswith("# corpus:") for line in meta)
    assert rows[0] == "key,description,missing_count,missing_pct,label"
    by_key = {row.split(",")[0]: row for row in rows[1:]}
    assert by_key["AU"].endswith("0,0.00,Excellent")
    # the early-access record has no PY: 1/9 missing
    assert by_key["PY"].split(",")[2:] == ["1", "11.11", "Acceptable"]

    assert main(["stats", "--corpus", str(corpus_file),
                 "--out", str(out)]) == 0
    _, stat_rows = read_csv(out / "stats.csv")
    values = dict(row.split(",", 1) for row in stat_rows[1:])
    assert values["documents"] == "9"
    assert values["timespan"] == "2007-2022"
    assert (out / "annual_production.csv").exists()
    assert (out / "citation_per_elapsed_years.csv").exists()


def test_hindex_amortized_artifact(corpus_file, tmp_path):
    assert main(["hindex", "--corpus", str(corpus_file), "--level", "source",
                 "--amortized", "--resolve-ties", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "hindex_source_amortized.csv")
    assert rows[0].startswith("entity,h_index,first_year")
    assert len(rows) > 1


def test_amortize_reference_table(tmp_path):
    table = tmp_path / "fixture_b1.csv"
    table.write_text(
        "year,metric\n1991,51\n1992,44\n1993,42\n1994,36\n1995,34\n"
        "1996,27\n1997,21\n1998,14\n1999,11\n2000,5\n")
    assert main(["amortize", "--table", str(table), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "amortized.csv")
    assert len(rows) == 11
    cells = [row.split(",") for row in rows[1:]]
    by_year = {row[0]: row for row in cells}
    assert by_year["1991"][5] == "5.1000"
    assert by_year["1997"][5] == "5.2500"
    assert by_year["2000"][5] == "5.0000"


def test_amortize_prints_a_metric_past_decimal_precision(tmp_path):
    table = tmp_path / "big.csv"
    table.write_text("year,metric\n2000,1\n2001,1e30\n")
    assert main(["amortize", "--table", str(table), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "amortized.csv")
    big = "1000000000000000019884624838656.0000"
    assert rows[2].split(",") == ["2001", big, "1", "2.0000", "1.0000", big, big]


def test_amortize_keeps_a_metric_below_one_billionth(tmp_path):
    table = tmp_path / "small.csv"
    table.write_text("2000,1e-12\n2001,3e-10\n")
    assert main(["amortize", "--table", str(table), "--display-scale", "1e12",
                 "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "amortized.csv")
    assert [row.split(",")[-1] for row in rows[1:]] == ["0.5000", "300.0000"]


def test_amortize_display_past_the_float_range_exits_1(tmp_path, capsys):
    table = tmp_path / "huge.csv"
    table.write_text("year,metric\n2000,1e300\n2001,1\n")
    out = tmp_path / "out"
    assert main(["amortize", "--table", str(table), "--display-scale", "1e300",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scimap: error: {table}: year 2000: "), err
    assert "float range" in err
    assert not out.exists()


@pytest.mark.parametrize("row", ["2020", "2020,abc", "MMXX,5", "2020,inf", "2020,nan"])
def test_amortize_malformed_row_names_file_and_line(tmp_path, capsys, row):
    table = tmp_path / "table.csv"
    table.write_text(f"year,metric\n# comment\n2019,4\n{row}\n2021,3\n")
    out = tmp_path / "out"
    assert main(["amortize", "--table", str(table), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"scimap: error: {table}: line 4: " in err
    assert repr(row) in err
    assert not out.exists()


@pytest.mark.parametrize("year", ["0", "1000", "-5", "1449", "2101"])
def test_reference_year_outside_plausible_range_exits_2(tmp_path, capsys, year):
    table = tmp_path / "table.csv"
    table.write_text("year,metric\n2019,4\n2020,3\n")
    out = tmp_path / "out"
    for argv in (["ingest", SAMPLE, "-o", str(out / "corpus.dat")],
                 ["amortize", "--table", str(table), "--out", str(out)]):
        assert main(argv + [f"--reference-year={year}"]) == 2
        assert (f"argument --reference-year: must be a year from 1450 to "
                f"2100, got {year}") in capsys.readouterr().err
    assert not out.exists()


def test_reference_year_at_the_plausible_bounds_is_accepted(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("year,metric\n1450,4\n")
    for year in ("1450", "2100"):
        assert main(["amortize", "--table", str(table), "--reference-year",
                     year, "--out", str(tmp_path / year)]) == 0


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan"])
def test_non_finite_float_exits_2_naming_the_flag(corpus_file, tmp_path, capsys,
                                                  value):
    table = tmp_path / "table.csv"
    table.write_text("year,metric\n2019,4\n2020,3\n")
    out = tmp_path / "out"
    for argv, flag in (
            (["amortize", "--table", str(table)], "--display-scale"),
            (["themes", "--corpus", str(corpus_file), "--slices", "2000-2023"],
             "--min-weight-index")):
        # "=" keeps argparse from reading "-inf" as an option
        assert main(argv + [f"{flag}={value}", "--out", str(out)]) == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_graph_pipeline_cooccur_pagerank_walktrap(corpus_file, tmp_path):
    out = tmp_path / "nets"
    assert main(["cooccur", "--corpus", str(corpus_file), "--field", "DE",
                 "--min-occurrence", "2", "--cluster", "--out", str(out)]) == 0
    graph_path = out / "cooccurrence.graphml"
    graph = read_graph(graph_path)
    assert len(graph.nodes) >= 3
    assert main(["pagerank", "--graph", str(graph_path),
                 "--out", str(out)]) == 0
    _, rows = read_csv(out / "pagerank.csv")
    total = sum(float(row.split(",")[1]) for row in rows[1:])
    assert abs(total - 1.0) < 1e-9
    assert main(["betweenness", "--graph", str(graph_path),
                 "--out", str(out)]) == 0
    assert main(["walktrap", "--graph", str(graph_path),
                 "--out", str(out)]) == 0
    meta, cluster_rows = read_csv(out / "clusters.csv")
    assert any("modularity" in line for line in meta)
    assert len(cluster_rows) - 1 == len(graph.nodes)


@pytest.mark.parametrize("walk_length", ["0", "-1"])
def test_walktrap_rejects_walk_length_below_one(tmp_path, capsys, walk_length):
    graph_path = tmp_path / "pair.graphml"
    write_graph(Graph(nodes=[GraphNode(id=i, label=i) for i in ("a", "b", "c")],
                      edges=[("a", "b", 1.0), ("b", "c", 2.0)]), graph_path)
    out = tmp_path / "out"
    assert main(["walktrap", "--graph", str(graph_path), "--walk-length",
                 walk_length, "--out", str(out)]) == 2
    assert "argument --walk-length: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_walktrap_rejects_directed_graph(tmp_path, capsys):
    graph_path = tmp_path / "cycles.graphml"
    write_graph(Graph(nodes=[GraphNode(id=i, label=i) for i in "abcdef"],
                      edges=[("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0),
                             ("d", "e", 1.0), ("e", "f", 1.0), ("f", "d", 1.0),
                             ("c", "d", 1.0)],
                      directed=True), graph_path)
    out = tmp_path / "out"
    assert main(["walktrap", "--graph", str(graph_path), "--out", str(out)]) == 1
    assert "needs an undirected graph" in capsys.readouterr().err
    assert not (out / "clusters.csv").exists()


def test_cocite_collab_and_more(corpus_file, tmp_path):
    out = tmp_path / "more"
    assert main(["cocite", "--corpus", str(corpus_file),
                 "--min-citations", "2", "--out", str(out)]) == 0
    assert (out / "cocitation.graphml").exists()
    assert main(["collab", "--corpus", str(corpus_file), "--level", "country",
                 "--out", str(out)]) == 0
    assert (out / "collab_country.graphml").exists()
    _, idx_rows = read_csv(out / "collaboration_indices.csv")
    assert idx_rows[0] == "country,scp,mcp,mcp_pct"
    assert main(["historiograph", "--corpus", str(corpus_file),
                 "--top-n", "5", "--flavor", "dot", "--out", str(out)]) == 0
    dot_graph = read_graph(out / "historiograph.dot")
    assert dot_graph.directed and len(dot_graph.edges) >= 3
    import csv as csvmod
    _, doc_rows = read_csv(out / "historiograph_documents.csv")
    top = next(csvmod.reader([doc_rows[1]]))
    # the review is the most locally cited document: 7 citing documents
    # over 17 citable years
    assert top[0] == "sample_export.txt:0"
    assert top[2] == "7" and top[4] == "0.41"
    assert main(["sankey", "--corpus", str(corpus_file), "--left", "CO",
                 "--middle", "DE", "--right", "C1", "--out", str(out)]) == 0
    assert (out / "sankey_flows.csv").exists()
    assert main(["rpys", "--corpus", str(corpus_file), "--out", str(out)]) == 0
    _, rpys_rows = read_csv(out / "rpys.csv")
    assert any(row.startswith("1764,1,1") for row in rpys_rows[1:])
    assert main(["trending", "--corpus", str(corpus_file), "--min-freq", "2",
                 "--out", str(out)]) == 0
    assert main(["terms", "--corpus", str(corpus_file), "--top-n", "5",
                 "--out", str(out)]) == 0
    _, term_rows = read_csv(out / "terms.csv")
    assert term_rows[1] == "machine learning,6"
    assert term_rows[2] == "bankruptcy prediction,5"
    assert main(["themes", "--corpus", str(corpus_file), "--slices",
                 "2007-2015,2016-2023", "--min-cluster-freq", "2",
                 "--out", str(out)]) == 0
    assert (out / "themes.csv").exists()


def test_sankey_same_field_in_two_pillars(corpus_file, tmp_path):
    import csv as csvmod
    out = tmp_path / "out"
    assert main(["terms", "--corpus", str(corpus_file), "--field", "DE",
                 "--out", str(out)]) == 0
    _, term_rows = read_csv(out / "terms.csv")
    frequency = {term: int(n) for term, n in csvmod.reader(term_rows[1:])}
    assert main(["sankey", "--corpus", str(corpus_file), "--left", "DE",
                 "--middle", "DE", "--right", "SO", "--k-left", "2",
                 "--k-mid", "4", "--k-right", "1", "--out", str(out)]) == 0
    _, item_rows = read_csv(out / "sankey_items.csv")
    pillars = {"left": {}, "middle": {}, "right": {}}
    for side, item, documents in csvmod.reader(item_rows[1:]):
        pillars[side][item] = int(documents)
    assert [len(pillars[side]) for side in ("left", "middle", "right")] == [2, 4, 1]
    for side in ("left", "middle"):
        assert pillars[side] == {t: frequency[t] for t in pillars[side]}
    assert set(pillars["left"]) < set(pillars["middle"])
    _, flow_rows = read_csv(out / "sankey_flows.csv")
    flows = [(span, a, b, int(w)) for span, a, b, w in csvmod.reader(flow_rows[1:])]
    left_middle = [(a, b, w) for span, a, b, w in flows if span == "left-middle"]
    assert {a for a, _, _ in left_middle} == set(pillars["left"])
    assert {b for _, b, _ in left_middle} <= set(pillars["middle"])
    # a term flows into itself once per document that carries it
    assert all(w == frequency[a] for a, b, w in left_middle if a == b)
    assert {b for span, _, b, _ in flows if span == "middle-right"} \
        == set(pillars["right"])


# The document fields local-citation matching reads, besides the id.
MATCHING = {"authors", "pub_year", "source", "doi", "cited_refs"}
# Command line -> the fields the command asks the loader for; the id
# always loads.
ASKED_FIELDS = {
    "sankey --left AU --middle SO --right CR": MATCHING,
    "sankey --left ID --middle CR_SO --right CO":
        {"keywords_plus", "cited_refs", "affiliations"},
    "sankey --left CO --middle DE --right C1":
        {"affiliations", "author_keywords"},
    "stats": {"pub_year", "source", "total_citations", "cited_refs",
              "author_keywords", "keywords_plus", "authors", "affiliations"},
    "rpys": MATCHING,
    "coverage": {"missing_fields"},
    "collab --level country": {"affiliations", "corresponding"},
    "cocite": MATCHING,
    "historiograph": MATCHING | {"total_citations"},
    "bradford": {"source"},
    "lotka": {"authors"},
    "hindex --level author --amortized": {"authors", "pub_year",
                                          "total_citations"},
    "terms --field abstract-bigrams": {"abstract"},
    "trending": {"author_keywords", "pub_year"},
    "cooccur --field ID": {"keywords_plus"},
    "collab --level author": {"authors", "affiliations", "corresponding"},
    "themes --slices 2000-2023": {"abstract", "pub_year"},
    "methods": {"author_keywords"},
}


@pytest.mark.parametrize("argv, references", [
    (["sankey", "--left", "AU", "--middle", "SO", "--right", "CR"], True),
    (["sankey", "--left", "ID", "--middle", "CR_SO", "--right", "CO"], True),
    (["sankey", "--left", "CO", "--middle", "DE", "--right", "C1"], False),
    (["stats"], True),
    (["rpys"], True),
    (["coverage"], False),
    (["collab", "--level", "country"], False),
    (["cocite"], True),
    (["historiograph"], True),
    (["bradford"], False),
    (["lotka"], False),
    (["hindex", "--level", "author", "--amortized"], False),
    (["terms", "--field", "abstract-bigrams"], False),
    (["trending"], False),
    (["cooccur", "--field", "ID"], False),
    (["collab", "--level", "author"], False),
    (["themes", "--slices", "2000-2023"], False),
    (["methods"], False),
])
def test_only_reference_readers_decode_references(corpus_file, tmp_path,
                                                  monkeypatch, argv, references):
    import scimap.cli
    asked = []

    def recording_load(path, fields):
        asked.append(set(fields))
        return load_corpus(path, fields)

    monkeypatch.setattr(scimap.cli, "load_corpus", recording_load)
    expected = ASKED_FIELDS[" ".join(argv)]
    if argv[0] == "methods":
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({"ML": ["machine learning"]}))
        argv = argv + ["--lexicon", str(lexicon), "--niches", str(lexicon)]
    assert main(argv + ["--corpus", str(corpus_file),
                        "--out", str(tmp_path / "out")]) == 0
    assert asked == [expected]
    assert ("cited_refs" in asked[0]) == references


def test_methods_command(corpus_file, tmp_path):
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps({
        "SVM": ["support vector machine"],
        "ML": ["machine learning"],
        "RF": ["random forest"]}))
    niches = tmp_path / "niches.json"
    niches.write_text(json.dumps({
        "prediction": ["bankruptcy prediction", "credit scoring"],
        "fintech": ["fintech", "crowdfunding"]}))
    assert main(["methods", "--corpus", str(corpus_file),
                 "--lexicon", str(lexicon), "--niches", str(niches),
                 "--min-occ", "2", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "methods.csv")
    assert rows[0] == "niche,ML,RF,SVM,total"
    data = {row.split(",")[0]: row.split(",") for row in rows[1:]}
    assert data["prediction"][1] == "4"  # ML: Shin, Tsai, Barboza, Garcia
    assert data["prediction"][3] == "2"  # SVM: Min, Shin
    assert data["fintech"][1] == "0"     # single ML mention suppressed


def test_mfas_and_calibration_cli(tmp_path, capsys):
    graph = tmp_path / "triangle.tsv"
    graph.write_text("john ellen 3\nellen tim 1\ntim john 2\n")
    assert main(["mfas", "--graph", str(graph), "-t", "20", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    # 1 - 2^-t holds only under the reference model, not for this graph
    assert capsys.readouterr().out == (
        "feedback arc set of size 1 after 20 runs (reference-model bound "
        "1 - 2^-20 = 0.9999990463, not measured on this graph)\n")
    meta, rows = read_csv(tmp_path / "mfas_solution.csv")
    assert any("best_size: 1" in line for line in meta)
    assert any("reference_bound: 1048575/1048576" in line for line in meta)
    assert rows[1] == "ellen,tim,1"
    assert main(["mfas-calibrate", "--graph", str(graph), "-t", "5",
                 "--trials", "40", "--seed", "11", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "calibration_trials.csv").exists()
    assert (tmp_path / "calibration_curve.csv").exists()


@pytest.mark.parametrize("confidence", ["-0.5", "0", "1", "1.5", "nan"])
def test_calibration_confidence_outside_unit_interval_exits_1(tmp_path, capsys,
                                                              confidence):
    graph = tmp_path / "triangle.tsv"
    graph.write_text("john ellen 3\nellen tim 1\ntim john 2\n")
    out = tmp_path / "out"
    assert main(["mfas-calibrate", "--graph", str(graph), "--confidence",
                 confidence, "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"confidence must lie in (0, 1), got {float(confidence)!r}" in err
    assert not out.exists()


def test_mfas_input_error_names_the_line(tmp_path, capsys):
    graph = tmp_path / "bad.tsv"
    graph.write_text("# bundles\na b 2\nb a x\n")
    assert main(["mfas", "--graph", str(graph), "-t", "3", "--seed", "1",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scimap: error: {graph}: line 3: ")
    assert not (tmp_path / "mfas_solution.csv").exists()


NOT_UTF8 = b"\xff\n"
DECODE_ERROR = "'utf-8' codec can't decode byte 0xff"
DOT_NODE = b'  "a" [label="a", weight=1.0];\n'


@pytest.mark.parametrize("argv, name, data, text", [
    (["coverage", "--corpus", "{bad}"], "bad.dat", NOT_UTF8, DECODE_ERROR),
    (["amortize", "--table", "{bad}"], "bad.csv", NOT_UTF8, DECODE_ERROR),
    (["ingest", SAMPLE, "--retracted", "{bad}", "-o", "{out}/c.dat"],
     "retracted.txt", NOT_UTF8, DECODE_ERROR),
    (["mfas", "--graph", "{bad}", "--seed", "1"], "bad.tsv", NOT_UTF8,
     DECODE_ERROR),
    (["terms", "--corpus", "{corpus}", "--config", "{bad}"], "conf.json",
     NOT_UTF8, DECODE_ERROR),
    (["terms", "--corpus", "{corpus}", "--config", "{bad}"], "conf.json",
     b"{bad", "Expecting property name"),
    (["methods", "--corpus", "{corpus}", "--lexicon", "{bad}", "--niches",
      "{good}"], "lexicon.json", b"{bad", "Expecting property name"),
    (["methods", "--corpus", "{corpus}", "--lexicon", "{good}", "--niches",
      "{bad}"], "niches.json", b"{bad", "Expecting property name"),
    (["mfas", "--graph", "{bad}", "--seed", "1"], "bad.tsv", b"a b x\n",
     "line 1: invalid literal for int()"),
    (["pagerank", "--graph", "{bad}"], "bad.dot",
     b"digraph G {\n" + DOT_NODE + DOT_NODE + b"}\n", "duplicate node ids"),
    (["pagerank", "--graph", "{bad}"], "bad.dot",
     b'digraph G {\n  "a" [label="a", weight=zz];\n}\n',
     "could not convert string to float: 'zz'"),
])
def test_input_file_error_names_the_file_once(corpus_file, tmp_path, capsys,
                                              argv, name, data, text):
    bad = tmp_path / name
    bad.write_bytes(data)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"x": ["machine learning"]}))
    out = tmp_path / "out"
    argv = [arg.format(bad=bad, good=good, corpus=corpus_file, out=out)
            for arg in argv]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scimap: error: {bad}: {text}"), err
    assert err.count(str(bad)) == 1


def test_seed_synthesized_and_echoed(tmp_path, capsys):
    graph = tmp_path / "t.tsv"
    graph.write_text("a b 1\nb a 1\n")
    assert main(["mfas", "--graph", str(graph), "-t", "3",
                 "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "synthesized seed" in err
    meta, _ = read_csv(tmp_path / "mfas_solution.csv")
    assert any(line.startswith("# seed:") for line in meta)


def test_config_file_and_env_precedence(corpus_file, tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("SCIMAP_OUT", str(env_dir))
    assert main(["terms", "--corpus", str(corpus_file)]) == 0
    assert (env_dir / "terms.csv").exists()
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"top_n": 1}))
    cfg_dir = tmp_path / "cfgout"
    assert main(["terms", "--corpus", str(corpus_file), "--config",
                 str(config), "--out", str(cfg_dir)]) == 0
    _, rows = read_csv(cfg_dir / "terms.csv")
    assert len(rows) == 2  # header + the single configured row


def test_config_value_overrides_a_non_none_default(corpus_file, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"min-occurrence": 100, "cluster": True}))
    argv = ["cooccur", "--corpus", str(corpus_file), "--config", str(config)]
    assert main(argv + ["--out", str(tmp_path / "cfg")]) == 0
    meta, rows = read_csv(tmp_path / "cfg" / "cooccurrence_nodes.csv")
    assert rows == ["id,label,weight,cluster"]
    assert any(line.startswith("# modularity:") for line in meta)
    # a flag on the command line wins over the file
    assert main(argv + ["--min-occurrence", "2", "--out", str(tmp_path / "flag")]) == 0
    _, rows = read_csv(tmp_path / "flag" / "cooccurrence_nodes.csv")
    assert len(rows) > 1


def test_config_sets_mfas_runs_and_ignores_keys_the_command_lacks(tmp_path, capsys):
    graph = tmp_path / "triangle.tsv"
    graph.write_text("john ellen 3\nellen tim 1\ntim john 2\n")
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"runs": 5, "min_occurrence": 3, "lexicon": "x"}))
    assert main(["mfas", "--graph", str(graph), "--seed", "7", "--config",
                 str(config), "--out", str(tmp_path)]) == 0
    assert "after 5 runs" in capsys.readouterr().out


def test_config_value_is_converted_like_its_flag(corpus_file, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"top_n": "3"}))
    assert main(["terms", "--corpus", str(corpus_file), "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "terms.csv")
    assert len(rows) == 4  # header + the three configured rows


@pytest.mark.parametrize("entry, flag", [
    ({"top-n": "three"}, "--top-n"),
    ({"top_n": 2.5}, "--top-n"),
    ({"top_n": True}, "--top-n"),
    ({"field": "XX"}, "--field"),
    ({"field": ["DE"]}, "--field"),
    ({"top_n": -1}, "--top-n"),
])
def test_bad_config_value_exits_2_naming_the_option(corpus_file, tmp_path, capsys,
                                                   entry, flag):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(entry))
    assert main(["terms", "--corpus", str(corpus_file), "--config", str(config),
                 "--out", str(tmp_path)]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "terms.csv").exists()


@pytest.mark.parametrize("command, flag", [
    ("terms", "--top-n"), ("collab", "--top-n"), ("historiograph", "--top-n"),
    ("sankey", "--k-left"), ("sankey", "--k-mid"), ("sankey", "--k-right"),
    ("trending", "--max-per-year"), ("themes", "--n-terms"),
])
def test_count_below_one_exits_2_naming_the_flag(corpus_file, tmp_path, capsys,
                                                 command, flag):
    out = tmp_path / "out"
    extra = ["--slices", "2000-2023"] if command == "themes" else []
    for value in ("0", "-2"):
        assert main([command, "--corpus", str(corpus_file), flag, value,
                     "--out", str(out)] + extra) == 2
        assert f"argument {flag}: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("mfas", "--runs"), ("mfas", "-t"),
    ("mfas-calibrate", "--runs"), ("mfas-calibrate", "-t"),
    ("mfas-calibrate", "--trials"),
])
def test_graph_count_below_one_exits_2_naming_the_flag(tmp_path, capsys,
                                                       command, flag):
    graph_path = tmp_path / "triangle.tsv"
    graph_path.write_text("john ellen 3\nellen tim 1\ntim john 2\n")
    # argparse names an option by all of its flags
    name = "--runs/-t" if flag in ("--runs", "-t") else flag
    out = tmp_path / "out"
    for value in ("0", "-2"):
        assert main([command, "--graph", str(graph_path), flag, value,
                     "--out", str(out), "--seed", "1"]) == 2
        assert f"argument {name}: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_empty_cr_separator_exits_2_naming_the_flag(tmp_path, capsys):
    bib = str(DATA / "sample_export.bib")
    out = tmp_path / "bib.dat"
    assert main(["ingest", "--format", "bibtex", "--cr-separator", "", bib,
                 "-o", str(out)]) == 2
    assert "argument --cr-separator: must not be empty" in capsys.readouterr().err
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"cr-separator": ""}))
    assert main(["ingest", "--format", "bibtex", "--config", str(config), bib,
                 "-o", str(out)]) == 2
    assert "argument --cr-separator: must not be empty" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_switch_exits_2(corpus_file, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"cluster": "yes"}))
    assert main(["cooccur", "--corpus", str(corpus_file), "--config",
                 str(config), "--out", str(tmp_path)]) == 2
    assert "--cluster" in capsys.readouterr().err


@pytest.mark.parametrize("damping, message", [
    ("1.5", "damping must lie in [0, 1]"),
    # damping 1 on a path never settles: the middle node's score swings
    ("1", "PageRank did not converge"),
])
def test_pagerank_failures_exit_1(tmp_path, capsys, damping, message):
    graph_path = tmp_path / "path.graphml"
    write_graph(Graph(nodes=[GraphNode(id=i, label=i) for i in "abc"],
                      edges=[("a", "b", 1.0), ("b", "c", 1.0)]), graph_path)
    out = tmp_path / "out"
    assert main(["pagerank", "--graph", str(graph_path), "--damping", damping,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scimap: error: ") and message in err
    assert not (out / "pagerank.csv").exists()


def test_methods_with_no_niche_hits_writes_zero_totals(corpus_file, tmp_path):
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps({"ML": ["machine learning"], "RF": []}))
    niches = tmp_path / "niches.json"
    niches.write_text(json.dumps({"nowhere": ["no such keyword"]}))
    assert main(["methods", "--corpus", str(corpus_file), "--lexicon",
                 str(lexicon), "--niches", str(niches), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "methods.csv")
    assert rows == ["niche,ML,RF,total", "total,0,0,0"]


@pytest.mark.parametrize("which, content, key", [
    ("lexicon", {"ML": "machine learning"}, "'ML'"),
    ("lexicon", {"ML": [1]}, "'ML'"),
    ("niches", {"fintech": "fintech"}, "'fintech'"),
    ("niches", ["fintech"], "JSON object"),
])
def test_methods_rejects_terms_that_are_not_a_list_of_strings(
        corpus_file, tmp_path, capsys, which, content, key):
    files = {"lexicon": {"ML": ["machine learning"]}, "niches": {"fintech": ["fintech"]}}
    files[which] = content
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    assert main(["methods", "--corpus", str(corpus_file),
                 "--lexicon", str(tmp_path / "lexicon.json"),
                 "--niches", str(tmp_path / "niches.json"),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{which}.json" in err and key in err
    assert not (tmp_path / "methods.csv").exists()


# The arguments each command needs besides its missing input file.
MISSING_INPUT_ARGS = {
    "ingest": ["{missing}", "-o", "{out}/corpus.dat"],
    "amortize": ["--table", "{missing}", "--out", "{out}"],
    "themes": ["--corpus", "{missing}", "--slices", "2000-2010", "--out", "{out}"],
    "methods": ["--corpus", "{missing}", "--lexicon", "{missing}",
                "--niches", "{missing}", "--out", "{out}"],
    **{command: ["--graph", "{missing}", "--out", "{out}"]
       for command in ("pagerank", "betweenness", "walktrap", "mfas",
                       "mfas-calibrate")},
}


@pytest.mark.parametrize("command", sorted(_commands(build_parser())))
def test_missing_input_file_exits_cleanly(tmp_path, capsys, command):
    args = MISSING_INPUT_ARGS.get(command,
                                  ["--corpus", "{missing}", "--out", "{out}"])
    argv = [command] + [arg.format(missing=tmp_path / "missing", out=tmp_path / "out")
                        for arg in args]
    assert main(argv) in (1, 2)
    assert "error: " in capsys.readouterr().err


def test_repeat_invocations_byte_identical(corpus_file, tmp_path):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    for out in (first, second):
        assert main(["stats", "--corpus", str(corpus_file),
                     "--out", str(out)]) == 0
        assert main(["bradford", "--corpus", str(corpus_file),
                     "--out", str(out)]) == 0
    for name in ("stats.csv", "annual_production.csv", "bradford_zones.csv"):
        a = (first / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b


def test_input_files_never_mutated(tmp_path):
    before = Path(SAMPLE).read_bytes()
    out = tmp_path / "c.dat"
    assert main(["ingest", SAMPLE, "--reference-year", "2023",
                 "-o", str(out)]) == 0
    assert Path(SAMPLE).read_bytes() == before


def test_bibtex_and_plaintext_carriers_agree(tmp_path):
    from_bib = tmp_path / "bib.dat"
    assert main(["ingest", "--format", "bibtex", str(DATA / "sample_export.bib"),
                 "--reference-year", "2023", "-o", str(from_bib)]) == 0
    from_txt = tmp_path / "txt.dat"
    assert main(["ingest", "--format", "plaintext", SAMPLE,
                 "--reference-year", "2023", "-o", str(from_txt)]) == 0
    bib = load_corpus(from_bib)
    txt = load_corpus(from_txt)
    pairs = {doc.doi: doc for doc in txt.documents if doc.doi}
    assert len(bib) == 2
    for doc in bib.documents:
        twin = pairs[doc.doi]
        assert doc.authors == twin.authors
        assert doc.pub_year == twin.pub_year
        assert doc.total_citations >= 490  # duplicate merge keeps the max
        assert doc.author_keywords[:2] == twin.author_keywords[:2]
        assert doc.source == twin.source
        assert doc.doc_type == twin.doc_type
        assert doc.affiliations == twin.affiliations
        assert len(doc.cited_refs) == len(twin.cited_refs)
        assert [r.first_author for r in doc.cited_refs] == \
            [r.first_author for r in twin.cited_refs]
