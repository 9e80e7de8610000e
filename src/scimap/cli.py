"""Command-line front end.

One corpus file is the interchange hub: ``ingest`` parses export files
once, every analysis command then reads the corpus and writes delimited
artifacts into the output directory.  Every artifact carries a header
block (engine version, config hash, corpus provenance, seed when
randomized) and every command is a pure function of (inputs, config,
seed): identical invocations produce byte-identical artifact trees.

Exit codes: 0 success, 1 data error, 2 usage error.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterable, Optional

from . import ENGINE_VERSION
from .amortize import (
    amortize, amortized_h_index, citable_years, h_index, resolve_amortized_ties,
)
from .centrality import PageRankDivergence, betweenness, pagerank
from .community import walktrap
from .corpus import coverage_report, dedupe_and_screen, load_corpus, save_corpus
from .graphio import read_graph, write_graph
from .graphs import (
    MATCHING_FIELDS, cocitation_graph, collaboration_graph, cooccurrence_graph,
    historiograph, match_local_citations, rpys, three_field_flow,
)
from .metrics import (
    annual_production, author_document_counts, bradford_zones,
    collaboration_indices, descriptive_summary, lotka_fit,
    mean_citation_per_elapsed_years, method_occurrence, source_article_counts,
    term_frequencies, trending_terms,
)
from .normalize import LEVEL_TAGS, field_values, tag_fields, to_document
from .parsing import parse_bibtex_export, parse_plaintext_export
from .records import Corpus, MAX_PLAUSIBLE_YEAR, MIN_PLAUSIBLE_YEAR
from .tables import config_hash, fmt, ranked, write_table
from .themes import thematic_evolution
from .mfas import (
    GENERATOR_ID, Multigraph, calibration_harness, solve, witness_order,
)


# A third-generation threshold no count of young collections reaches.
_NO_FULL_COLLECTION = 2**31 - 1


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; returns its exit status.

    Without ``argv`` the command line is the process's own, as when the
    ``scimap`` script runs: once the command has returned, ``main``
    flushes stdout and stderr and ends the process with that status,
    skipping the interpreter's teardown (a full collection over the heap,
    then freeing every object).  Every artifact is closed by then.  If a
    flush fails, ``main`` returns and the interpreter reports the error
    as usual.  Called with a list, ``main`` returns the status, so a
    library caller keeps its process."""
    status = _run(sys.argv[1:] if argv is None else argv)
    if argv is None:
        _end_process(status)
    return status


def _run(argv: list[str]) -> int:
    """Parse ``argv`` and run its command; returns the exit status.

    The cyclic garbage collector makes no full collection while the
    command parses its arguments and runs: each full collection rescans
    every long-lived object, the loaded corpus included, so their cost
    grows with the corpus.  Young collections still run and free the
    cyclic garbage that argument parsing and numpy's import leave, which
    would otherwise stay alive through walktrap.  The caller's
    thresholds are restored on return."""
    thresholds = gc.get_threshold()
    gc.set_threshold(thresholds[0], thresholds[1], _NO_FULL_COLLECTION)
    try:
        args = _parse_args(argv)
        args.handler(args, _resolve_config(args))
    except SystemExit as exc:  # argparse: usage errors, --help, --version
        return int(exc.code or 0)
    except (PageRankDivergence, ValueError, OSError) as exc:
        print(f"scimap: error: {exc}", file=sys.stderr)
        return 1
    finally:
        gc.set_threshold(*thresholds)
    return 0


def _end_process(status: int) -> None:
    """Exit now, without teardown; returns only if a flush fails."""
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a broken pipe, a full disk, a closed stream
        return  # the interpreter's own exit reports it
    os._exit(status)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The command line, parsed by a parser holding only the subcommand
    that ``argv`` names, or every subcommand when it names none.  The
    parser is garbage once this returns, before the command runs."""
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if args.config:
        # Config entries enter as flags ahead of the command line's own,
        # so argparse converts and checks them as it does flags, and a
        # flag given on the line wins.
        args = parser.parse_args(argv[:1] + _config_flags(parser, args) + argv[1:])
    return args


def _commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Subcommand name -> its parser."""
    return next(action.choices for action in parser._actions
                if action.dest == "command")


def _config_flags(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> list[str]:
    """The ``--config`` file's entries for this command's options, as
    flags.  A key is an option's long flag without its leading dashes,
    with ``-`` or ``_`` between words; keys the command lacks are
    ignored, so one file can serve every command."""
    file_config = _read_input(args.config, _read_json_object, "config")
    command = _commands(parser)[args.command]
    options = {action.dest: action for action in command._actions
               if action.option_strings and action.dest not in ("help", "config")}
    flags = []
    for key, value in file_config.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            continue
        flag = max(action.option_strings, key=len)
        # A refused value is a usage error that names the file and the key.
        where = f"{args.config}: config key {key!r}"
        if action.nargs == 0:  # a switch such as --cluster
            if not isinstance(value, bool):
                command.error(f"{where}: {flag} takes true or false")
            if value:
                flags.append(flag)
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            try:  # argparse's own conversion and choice check
                command._get_values(action, [str(value)])
            except argparse.ArgumentError as exc:
                command.error(f"{where}: {exc}")
            flags.append(f"{flag}={value}")
        else:
            command.error(f"{where}: {flag} takes a string or a number")
    return flags


# File options hashed by their basename: an input's identity is its name
# (and the provenance meta), not where it lies.
_HASHED_BY_NAME = ("inputs", "graph", "table", "lexicon", "niches", "retracted")
# Options never hashed: the handler and where the command reads its
# config and corpus and writes its output.
_NOT_HASHED = {"handler", "config", "out", "corpus", "output"}


def _resolve_config(args: argparse.Namespace) -> dict:
    """The analysis parameters the artifact headers hash; the output
    directory falls back to ``SCIMAP_OUT``, then the working directory.
    Writers create it as they write."""
    if getattr(args, "out", None) is None:
        args.out = os.environ.get("SCIMAP_OUT", ".")
    args.out = Path(args.out)
    resolved = {key: value for key, value in sorted(vars(args).items())
                if key not in _NOT_HASHED and key not in _HASHED_BY_NAME
                and value is not None}
    resolved["engine"] = ENGINE_VERSION
    for key in _HASHED_BY_NAME:
        value = getattr(args, key, None)
        if value is not None:
            names = [Path(v).name for v in value] \
                if isinstance(value, list) else [Path(value).name]
            resolved[key] = ";".join(names)
    return resolved


def _meta(config: dict, corpus: Optional[Corpus] = None, **extra) -> dict:
    meta = {"command": config.get("command", ""),
            "config": config_hash(config)}
    if corpus is not None:
        meta["corpus"] = ";".join(corpus.provenance) or "unknown"
        meta["reference-year"] = corpus.reference_year
    meta.update(extra)
    return meta


def _read_input(path, read, kind: str):
    """``read(path)``, the one place an input error names its file: a
    missing file, or a ValueError the read raises, is a ValueError that
    reads ``PATH: `` and then the read's message, which places the problem."""
    path = Path(path)
    try:
        return read(path)
    except FileNotFoundError:
        raise ValueError(f"{kind} file not found: {path}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_text(path: Path) -> str:
    return path.read_text("utf-8")


def _read_json_object(path: Path) -> dict:
    data = json.loads(path.read_text("utf-8"))
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    return data


def _load(args, fields: Iterable[str]) -> Corpus:
    """Load ``--corpus`` with the document fields the command reads; the
    load decodes no other line but the ids', and every other field is
    None."""
    return _read_input(args.corpus, lambda path: load_corpus(path, fields),
                       "corpus")


def _require_seed(args, config: dict) -> int:
    """Randomized commands must replay: synthesize and echo when absent."""
    if args.seed is None:
        args.seed = int.from_bytes(os.urandom(8), "big")
        config["seed"] = args.seed
        print(f"scimap: synthesized seed {args.seed}", file=sys.stderr)
    return args.seed


# Command handlers -----------------------------------------------------------

def _export_documents(args, path: Path) -> list:
    """One export's documents, read through ``_read_input``; its bytes and
    raw records are freed before the next export is read.  A record that
    cannot be normalized raises placing it by its 1-based number."""
    data = path.read_bytes()
    # The basename is data: it prefixes the fallback ids of the records.
    if args.format == "bibtex":
        records = parse_bibtex_export(data, source_file=path.name,
                                      reference_separator=args.cr_separator)
    else:
        records = parse_plaintext_export(data, source_file=path.name)
    del data
    year_cap = MAX_PLAUSIBLE_YEAR if args.reference_year is None \
        else args.reference_year
    documents = []
    for record in records:
        try:
            documents.append(to_document(record, year_cap))
        except ValueError as exc:
            raise ValueError(f"record {record.record_index + 1}: {exc}") from None
    return documents


def cmd_ingest(args, config):
    documents = []
    provenance = []
    for name in args.inputs:
        documents.extend(_read_input(
            name, lambda path: _export_documents(args, path), "export"))
        provenance.append(Path(name).name)
    retracted = set()
    if args.retracted:
        retracted = {line.strip() for line in
                     _read_input(args.retracted, _read_text,
                                 "retraction").splitlines()
                     if line.strip()}
    corpus = dedupe_and_screen(documents, retracted=retracted,
                               reference_year=args.reference_year,
                               provenance=provenance)
    out = Path(args.output)
    save_corpus(corpus, out)
    rows = [(e.removed_id, e.reason, e.kept_id, e.detail)
            for e in corpus.screening]
    write_table(rows, ["removed_id", "reason", "kept_id", "detail"],
                out.with_suffix(".screening.csv"), _meta(config, corpus))
    print(f"corpus: {len(corpus)} documents "
          f"({len(corpus.screening)} screened out) -> {out}")


def cmd_coverage(args, config):
    corpus = _load(args, ["missing_fields"])
    rows = [(r.tag, r.description, r.missing_count, fmt(r.missing_pct), r.label)
            for r in coverage_report(corpus)]
    write_table(rows, ["key", "description", "missing_count", "missing_pct",
                       "label"], args.out / "coverage.csv",
                _meta(config, corpus))


def cmd_stats(args, config):
    corpus = _load(args, ["pub_year", "source", "total_citations", "cited_refs",
                          "author_keywords", "keywords_plus", "authors",
                          "affiliations"])
    stats = descriptive_summary(corpus)
    growth = "" if stats.annual_growth_rate_pct is None \
        else fmt(stats.annual_growth_rate_pct)
    rows = [
        ("timespan", f"{stats.first_year}-{stats.last_year}"),
        ("sources", stats.sources),
        ("documents", stats.documents),
        ("annual_growth_rate_pct", growth),
        ("document_average_age", fmt(stats.document_average_age)),
        ("average_citations", fmt(stats.average_citations)),
        ("references", stats.total_references),
        ("author_keywords", stats.author_keywords),
        ("keywords_plus", stats.keywords_plus),
        ("authors", stats.authors),
        ("single_document_authors", stats.single_document_authors),
        ("single_authored_documents", stats.single_authored_documents),
        ("coauthors_per_document", fmt(stats.coauthors_per_document)),
        ("international_coauthorship_pct", fmt(stats.international_coauthorship_pct)),
    ]
    production = annual_production(corpus)
    write_table(rows, ["metric", "value"], args.out / "stats.csv",
                _meta(config, corpus))
    write_table(production.points,
                ["year", "documents"], args.out / "annual_production.csv",
                _meta(config, corpus, undated=production.undated))
    citations = mean_citation_per_elapsed_years(corpus)
    write_table([(y, fmt(float(v))) for y, v in citations],
                ["year", "mean_citation_per_elapsed_years"],
                args.out / "citation_per_elapsed_years.csv",
                _meta(config, corpus))


def cmd_bradford(args, config):
    corpus = _load(args, ["source"])
    counts = source_article_counts(corpus)
    zones = bradford_zones(counts)
    source_rows = []
    for zone in zones:
        for (source, count), cumulative in zip(zone.sources, zone.cumulative):
            source_rows.append((zone.zone_index, source, count, cumulative))
    write_table(source_rows, ["zone", "source", "articles", "cumulative"],
                args.out / "bradford_sources.csv", _meta(config, corpus))
    zone_rows = [(z.zone_index, len(z.sources),
                  sum(c for _, c in z.sources), fmt(z.source_share_pct),
                  fmt(z.article_share_pct)) for z in zones]
    write_table(zone_rows, ["zone", "sources", "articles", "source_share_pct",
                            "article_share_pct"],
                args.out / "bradford_zones.csv", _meta(config, corpus))


def cmd_lotka(args, config):
    corpus = _load(args, ["authors"])
    fit = lotka_fit(author_document_counts(corpus))
    rows = [(n, fit.observed[n], fmt(fit.predicted[n]))
            for n in sorted(fit.observed)]
    write_table(rows, ["documents", "observed_authors", "predicted_authors"],
                args.out / "lotka.csv",
                _meta(config, corpus, baseline=fit.baseline_authors))


def cmd_hindex(args, config):
    corpus = _load(args, tag_fields(LEVEL_TAGS[args.level], "PY", "TC"))
    groups: dict[str, list] = {}
    for doc in corpus.documents:
        for key in field_values(doc, LEVEL_TAGS[args.level]):
            groups.setdefault(key, []).append(doc)
    plain = []
    for entity in sorted(groups):
        docs = groups[entity]
        years = [d.pub_year for d in docs if d.pub_year is not None]
        plain.append((entity, h_index([d.total_citations for d in docs]),
                      min(years) if years else None))
    if not args.amortized:
        write_table(ranked((e, h) for e, h, _ in plain), ["entity", "h_index"],
                    args.out / f"hindex_{args.level}.csv",
                    _meta(config, corpus))
        return
    dated = [(e, h, y) for e, h, y in plain if y is not None]
    if not dated:
        raise ValueError("amortized h-index needs dated documents")
    items = amortized_h_index(dated, corpus.reference_year)
    if args.resolve_ties:
        items = resolve_amortized_ties(items)
    rows = [(item.id, item.h, item.first_year, item.citable_years,
             fmt(float(item.normalized_ps), 4), fmt(float(item.amortized), 4),
             item.tie_flag or "") for item in items]
    write_table(rows, ["entity", "h_index", "first_year", "citable_years",
                       "normalized_ps", "amortized", "flag"],
                args.out / f"hindex_{args.level}_amortized.csv",
                _meta(config, corpus))


def _year_metric_rows(path: Path) -> list[tuple[int, float]]:
    """The (year, metric) rows of an ``amortize`` table; blank lines,
    ``#`` comments and a ``year`` header line are skipped."""
    rows = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("year"):
            continue
        try:
            year_text, metric_text = line.split(",")[:2]
            metric = float(metric_text)
            if not math.isfinite(metric):
                raise ValueError(metric)
            rows.append((int(year_text), metric))
        except ValueError:
            raise ValueError(f"line {lineno}: expected an integer year and "
                             f"a finite number, got {line!r}") from None
    if not rows:
        raise ValueError("no (year, metric) rows")
    return rows


def cmd_amortize(args, config):
    rows_in = _read_input(args.table, _year_metric_rows, "table")
    reference_year = max(year for year, _ in rows_in) \
        if args.reference_year is None else args.reference_year
    rows = amortize(rows_in, reference_year, display_scale=args.display_scale)
    out_rows = [(r.year, fmt(float(r.metric), 4), r.citable_years,
                 fmt(float(r.pondering_scalar), 4),
                 fmt(float(r.normalized_ps), 4), fmt(float(r.amortized), 4),
                 fmt(_display_value(r, args.table), 4)) for r in rows]
    write_table(out_rows, ["year", "metric", "citable_years",
                           "pondering_scalar", "normalized_ps", "amortized",
                           "display"],
                args.out / "amortized.csv",
                _meta(config, **{"reference-year": reference_year}))


def _display_value(row, table) -> float:
    """The row's display value as a float; past the float range (a
    large metric times a large ``--display-scale``) a ValueError."""
    try:
        return float(row.display)
    except OverflowError:
        raise ValueError(f"{table}: year {row.year}: the display value "
                        f"(amortized times --display-scale) exceeds the "
                        f"float range") from None


def cmd_terms(args, config):
    corpus = _load(args, tag_fields(args.field))
    write_table(term_frequencies(corpus, args.field, top_n=args.top_n),
                ["term", "frequency"], args.out / "terms.csv",
                _meta(config, corpus))


def cmd_trending(args, config):
    corpus = _load(args, tag_fields("DE", "PY"))
    stats = trending_terms(corpus, min_freq=args.min_freq,
                           max_per_year=args.max_per_year)
    rows = [(s.term, s.frequency, s.q1_year, s.median_year, s.q3_year)
            for s in stats]
    write_table(rows, ["term", "frequency", "q1_year", "median_year", "q3_year"],
                args.out / "trending.csv", _meta(config, corpus))


def _nodes_by_weight(graph) -> list:
    nodes = {node.id: node for node in graph.nodes}
    return [nodes[node_id] for node_id, _ in
            ranked((node.id, node.weight) for node in graph.nodes)]


def _write_graph_artifacts(args, config, corpus, graph, stem):
    extra = {}
    if args.cluster:
        clustering = walktrap(graph)
        graph = graph._replace(nodes=[
            node._replace(cluster=clustering.assignment.get(node.id))
            for node in graph.nodes])
        extra["modularity"] = repr(clustering.modularity)
        extra["clusters"] = clustering.n_clusters
    meta = _meta(config, corpus, **extra)
    write_graph(graph, args.out / f"{stem}.{args.flavor}", flavor=args.flavor,
                meta=meta)
    write_table([(node.id, node.label, node.weight, node.cluster)
                 for node in _nodes_by_weight(graph)],
                ["id", "label", "weight", "cluster"],
                args.out / f"{stem}_nodes.csv", meta)
    write_table(sorted(graph.edges), ["source", "target", "weight"],
                args.out / f"{stem}_edges.csv", meta)


def cmd_cooccur(args, config):
    corpus = _load(args, tag_fields(args.field))
    graph = cooccurrence_graph(corpus, args.field,
                               min_occurrence=args.min_occurrence)
    _write_graph_artifacts(args, config, corpus, graph, "cooccurrence")


def cmd_cocite(args, config):
    corpus = _load(args, MATCHING_FIELDS)
    graph = cocitation_graph(match_local_citations(corpus),
                             min_citations=args.min_citations)
    _write_graph_artifacts(args, config, corpus, graph, "cocitation")


def cmd_collab(args, config):
    # collaboration_indices reads the countries and corresponding address
    corpus = _load(args, tag_fields(LEVEL_TAGS[args.level], "CO", "RP"))
    graph = collaboration_graph(corpus, args.level, top_n=args.top_n)
    _write_graph_artifacts(args, config, corpus, graph, f"collab_{args.level}")
    rows, excluded = collaboration_indices(corpus)
    write_table([(r.country, r.scp, r.mcp, fmt(r.mcp_pct, 1)) for r in rows],
                ["country", "scp", "mcp", "mcp_pct"],
                args.out / "collaboration_indices.csv",
                _meta(config, corpus, excluded=len(excluded)))


def cmd_pagerank(args, config):
    graph = _read_input(args.graph, read_graph, "graph")
    scores = pagerank(graph, damping=args.damping)
    write_table([(n, repr(s)) for n, s in ranked(scores.items())],
                ["node", "pagerank"], args.out / "pagerank.csv",
                _meta(config, damping=args.damping))


def cmd_betweenness(args, config):
    graph = _read_input(args.graph, read_graph, "graph")
    scores = betweenness(graph)
    write_table([(n, repr(s)) for n, s in ranked(scores.items())],
                ["node", "betweenness"], args.out / "betweenness.csv",
                _meta(config, paths="hop-count shortest paths; edge weights ignored"))


def cmd_walktrap(args, config):
    # A graph that walktrap refuses is an input error, so it names the file.
    clustering = _read_input(
        args.graph, lambda path: walktrap(read_graph(path), args.walk_length), "graph")
    rows = sorted(clustering.assignment.items())
    write_table(rows, ["node", "cluster"], args.out / "clusters.csv",
                _meta(config, modularity=repr(clustering.modularity),
                      clusters=clustering.n_clusters))


def cmd_historiograph(args, config):
    corpus = _load(args, [*MATCHING_FIELDS, "total_citations"])
    graph, flags = historiograph(corpus, match_local_citations(corpus),
                                 n=args.top_n)
    path = args.out / f"historiograph.{args.flavor}"
    write_graph(graph, path, flavor=args.flavor,
                meta=_meta(config, corpus, flags=len(flags)))
    by_id = {doc.id: doc for doc in corpus.documents}
    rows = []
    for node in _nodes_by_weight(graph):
        doc = by_id[node.id]
        # yearly average over citable years
        yearly = "" if doc.pub_year is None else fmt(
            node.weight / citable_years(doc.pub_year, corpus.reference_year))
        rows.append((node.id, node.label, int(node.weight),
                     doc.total_citations, yearly))
    write_table(rows, ["id", "label", "local_citations", "global_citations",
                       "avg_yearly_local_citations"],
                args.out / "historiograph_documents.csv",
                _meta(config, corpus, flags=len(flags)))
    if flags:
        write_table([(flag,) for flag in flags], ["flag"],
                    args.out / "historiograph_flags.csv",
                    _meta(config, corpus))


def cmd_sankey(args, config):
    pillars = (args.left, args.middle, args.right)
    # a CR pillar shows local-citation labels, which matching gives
    corpus = _load(args, tag_fields(*pillars).union(
        MATCHING_FIELDS if "CR" in pillars else ()))
    flow = three_field_flow(corpus, *pillars,
                            k_left=args.k_left, k_mid=args.k_mid,
                            k_right=args.k_right)
    fields = "-".join(pillars)
    item_rows = []
    for side, items in (("left", flow.left), ("middle", flow.middle),
                        ("right", flow.right)):
        for item, count in items:
            item_rows.append((side, item, count))
    write_table(item_rows, ["pillar", "item", "documents"],
                args.out / "sankey_items.csv", _meta(config, corpus, fields=fields))
    flow_rows = [("left-middle", a, b, w) for a, b, w in flow.flows_left]
    flow_rows += [("middle-right", a, b, w) for a, b, w in flow.flows_right]
    write_table(flow_rows, ["span", "from", "to", "weight"],
                args.out / "sankey_flows.csv", _meta(config, corpus, fields=fields))


def _parse_slices(text: str) -> list[tuple[int, int]]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            start, end = chunk.split("-")
            out.append((int(start), int(end)))
        except ValueError:
            raise ValueError(f"bad slice {chunk!r}: expected START-END")
    return out


def cmd_themes(args, config):
    corpus = _load(args, ["abstract", "pub_year"])
    slices = thematic_evolution(corpus, _parse_slices(args.slices),
                                n_terms=args.n_terms,
                                min_cluster_freq=args.min_cluster_freq,
                                min_weight_index=args.min_weight_index,
                                ngram=args.ngram)
    cluster_rows = []
    link_rows = []
    for piece in slices:
        start, end = piece.period
        for cluster in piece.clusters:
            cluster_rows.append((start, end, cluster.label, cluster.frequency,
                                 "; ".join(cluster.terms)))
        if not piece.clusters and piece.flag:
            cluster_rows.append((start, end, "", 0, piece.flag))
        for a, b, w in piece.links_to_next:
            link_rows.append((start, end, a, b, fmt(w, 4)))
    write_table(cluster_rows, ["slice_start", "slice_end", "theme",
                               "frequency", "terms"],
                args.out / "themes.csv", _meta(config, corpus))
    write_table(link_rows, ["slice_start", "slice_end", "from_theme",
                            "to_theme", "inclusion_index"],
                args.out / "themes_links.csv", _meta(config, corpus))


def cmd_rpys(args, config):
    corpus = _load(args, MATCHING_FIELDS)
    rows, undated = rpys(match_local_citations(corpus))
    write_table([(r.year, r.n_references, r.citations) for r in rows],
                ["year", "n_references", "citations"],
                args.out / "rpys.csv",
                _meta(config, corpus, undated_mentions=undated))


def _term_lists(path: Path) -> dict[str, list[str]]:
    """A JSON object mapping each name to a list of terms."""
    data = _read_json_object(path)
    for key, terms in data.items():
        if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
            raise ValueError(f"{key!r} must map to a list of strings")
    return data


def cmd_methods(args, config):
    corpus = _load(args, tag_fields("DE"))
    lexicon = _read_input(args.lexicon, _term_lists, "term list")
    niches = _read_input(args.niches, _term_lists, "term list")
    result = method_occurrence(corpus, niches, lexicon, min_occ=args.min_occ)
    header = ["niche"] + result.methods + ["total"]
    rows = []
    for niche in result.niches:
        rows.append([niche] + [result.counts[(niche, m)] for m in result.methods]
                    + [result.row_totals[niche]])
    rows.append(["total"] + [result.column_totals[m] for m in result.methods]
                + [sum(result.column_totals.values())])
    write_table(rows, header, args.out / "methods.csv",
                _meta(config, corpus, suppressed=len(result.suppressed),
                      min_occ=args.min_occ))


def _load_multigraph(path: str) -> Multigraph:
    return _read_input(
        path, lambda path: Multigraph.from_lines(_read_text(path).splitlines()),
        "multigraph")


def cmd_mfas(args, config):
    mg = _load_multigraph(args.graph)
    seed = _require_seed(args, config)
    best, report = solve(mg, t=args.runs, seed=seed)
    meta = _meta(config, seed=seed, generator=GENERATOR_ID,
                 runs=report.runs, best_size=report.best_size,
                 reference_bound=f"{report.reference_bound.numerator}"
                                 f"/{report.reference_bound.denominator}",
                 witness_order=" ".join(witness_order(mg, best.removed)))
    write_table([(u, v, count) for (u, v), count in sorted(best.removed.items())],
                ["from", "to", "removed"], args.out / "mfas_solution.csv",
                meta)
    print(f"feedback arc set of size {best.size} after {report.runs} runs "
          f"(reference-model bound 1 - 2^-{report.runs} = "
          f"{float(report.reference_bound):.10f}, not measured on this graph)")


def cmd_mfas_calibrate(args, config):
    mg = _load_multigraph(args.graph)
    seed = _require_seed(args, config)
    result = calibration_harness(mg, t=args.runs, trials=args.trials,
                                 seed=seed, confidence=args.confidence)
    meta = _meta(config, seed=seed, generator=GENERATOR_ID,
                 optimum=result.optimum,
                 per_run_success_rate=repr(result.per_run_success_rate),
                 wilson_low=repr(result.wilson_low),
                 wilson_high=repr(result.wilson_high),
                 confidence=result.confidence)
    write_table([(r.trial, r.best_size,
                  "" if r.first_success_run is None else r.first_success_run,
                  r.successes) for r in result.records],
                ["trial", "best_size", "first_success_run", "successes"],
                args.out / "calibration_trials.csv", meta)
    curve_rows = [(run, repr(empirical), repr(float(bound)))
                  for run, (empirical, bound) in enumerate(
                      zip(result.empirical_cumulative,
                          result.theoretical_cumulative), start=1)]
    write_table(curve_rows, ["run", "empirical_success", "reference_bound"],
                args.out / "calibration_curve.csv", meta)
    print(f"optimum {result.optimum}; per-run success rate "
          f"{result.per_run_success_rate:.4f} "
          f"(Wilson {result.wilson_low:.4f}..{result.wilson_high:.4f})")


# Parser ----------------------------------------------------------------------

def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _count(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _separator(text: str) -> str:
    """An argparse type: a string of at least one character."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _year(text: str) -> int:
    """An argparse type: a year the normalizer accepts as plausible."""
    value = _int(text)
    if not MIN_PLAUSIBLE_YEAR <= value <= MAX_PLAUSIBLE_YEAR:
        raise argparse.ArgumentTypeError(
            f"must be a year from {MIN_PLAUSIBLE_YEAR} to "
            f"{MAX_PLAUSIBLE_YEAR}, got {value}")
    return value


def _finite(text: str) -> float:
    """An argparse type: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _common(p, corpus=True, out=True):
    """The options most commands share; with no others, a corpus
    command's arguments."""
    if out:
        p.add_argument("--out", "-o", default=None,
                       help="output directory (default: $SCIMAP_OUT or .)")
    p.add_argument("--config", default=None,
                   help="JSON config file; flags take precedence")
    if corpus:
        p.add_argument("--corpus", required=True,
                       help="corpus file produced by ingest")


def _ingest_args(p):
    p.add_argument("inputs", nargs="+", help="export files")
    p.add_argument("--format", choices=["plaintext", "bibtex"],
                   default="plaintext")
    p.add_argument("--reference-year", type=_year, default=None)
    p.add_argument("--retracted", default=None,
                   help="file listing retracted ids or DOIs, one per line")
    p.add_argument("--cr-separator", type=_separator, default="\n",
                   help="cited-references separator for the BibTeX flavor")
    p.add_argument("--output", "-o", required=True,
                   help="corpus file to write (screening ledger lands beside it)")
    _common(p, corpus=False, out=False)


def _hindex_args(p):
    _common(p)
    p.add_argument("--level", choices=["source", "author"], default="source")
    p.add_argument("--amortized", action="store_true")
    p.add_argument("--resolve-ties", action="store_true")


def _amortize_args(p):
    p.add_argument("--table", required=True, help="CSV of year,metric rows")
    p.add_argument("--reference-year", type=_year, default=None)
    p.add_argument("--display-scale", type=_finite, default=1.0)
    _common(p, corpus=False)


def _terms_args(p):
    _common(p)
    p.add_argument("--field", choices=["DE", "ID", "title-bigrams",
                                       "abstract-bigrams"], default="DE")
    p.add_argument("--top-n", type=_count, default=None)


def _trending_args(p):
    _common(p)
    p.add_argument("--min-freq", type=int, default=5)
    p.add_argument("--max-per-year", type=_count, default=4)


def _flavor(p):
    p.add_argument("--flavor", choices=["graphml", "dot"], default="graphml")


def _cooccur_args(p):
    _common(p)
    p.add_argument("--field", choices=["DE", "ID"], default="DE")
    p.add_argument("--min-occurrence", type=int, default=5)
    _flavor(p)
    p.add_argument("--cluster", action="store_true",
                   help="attach walktrap clusters")


def _cocite_args(p):
    _common(p)
    p.add_argument("--min-citations", type=int, default=20)
    _flavor(p)
    p.add_argument("--cluster", action="store_true")


def _collab_args(p):
    _common(p)
    p.add_argument("--level", choices=["author", "institution", "country"],
                   default="institution")
    p.add_argument("--top-n", type=_count, default=None)
    _flavor(p)
    p.add_argument("--cluster", action="store_true")


def _pagerank_args(p):
    p.add_argument("--graph", required=True)
    p.add_argument("--damping", type=float, default=0.85)
    _common(p, corpus=False)


def _betweenness_args(p):
    p.add_argument("--graph", required=True)
    _common(p, corpus=False)


def _walktrap_args(p):
    p.add_argument("--graph", required=True)
    p.add_argument("--walk-length", type=_count, default=4)
    _common(p, corpus=False)


def _historiograph_args(p):
    _common(p)
    p.add_argument("--top-n", type=_count, default=30)
    _flavor(p)


def _sankey_args(p):
    _common(p)
    p.add_argument("--left", default="CO")
    p.add_argument("--middle", default="DE")
    p.add_argument("--right", default="C1")
    p.add_argument("--k-left", type=_count, default=10)
    p.add_argument("--k-mid", type=_count, default=10)
    p.add_argument("--k-right", type=_count, default=10)


def _themes_args(p):
    _common(p)
    p.add_argument("--slices", required=True,
                   help="comma-separated START-END year ranges")
    p.add_argument("--n-terms", type=_count, default=1000)
    p.add_argument("--min-cluster-freq", type=int, default=20)
    p.add_argument("--min-weight-index", type=_finite, default=0.02)
    p.add_argument("--ngram", type=int, choices=[1, 2], default=2)


def _methods_args(p):
    _common(p)
    p.add_argument("--lexicon", required=True,
                   help="JSON: method -> synonym terms")
    p.add_argument("--niches", required=True,
                   help="JSON: niche -> marker keywords")
    p.add_argument("--min-occ", type=int, default=3)


def _mfas_args(p):
    p.add_argument("--graph", required=True,
                   help="multigraph file: 'u v multiplicity' lines")
    p.add_argument("--runs", "-t", type=_count, default=20)
    p.add_argument("--seed", type=int, default=None)
    _common(p, corpus=False)


def _mfas_calibrate_args(p):
    p.add_argument("--graph", required=True)
    p.add_argument("--runs", "-t", type=_count, default=10)
    p.add_argument("--trials", type=_count, default=1000)
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--seed", type=int, default=None)
    _common(p, corpus=False)


# Subcommand name -> (help, handler, argument builder), in help order.
COMMANDS = {
    "ingest": ("parse export files into a corpus", cmd_ingest, _ingest_args),
    "coverage": ("data coverage quality table", cmd_coverage, _common),
    "stats": ("descriptive statistics", cmd_stats, _common),
    "bradford": ("Bradford source zones", cmd_bradford, _common),
    "lotka": ("author productivity law", cmd_lotka, _common),
    "hindex": ("entity h-index, optionally amortized", cmd_hindex,
               _hindex_args),
    "amortize": ("amortize a (year, metric) table", cmd_amortize,
                 _amortize_args),
    "terms": ("most frequent terms", cmd_terms, _terms_args),
    "trending": ("trending terms with quartile years", cmd_trending,
                 _trending_args),
    "cooccur": ("keyword co-occurrence network", cmd_cooccur, _cooccur_args),
    "cocite": ("reference co-citation network", cmd_cocite, _cocite_args),
    "collab": ("collaboration network and indices", cmd_collab, _collab_args),
    "pagerank": ("PageRank over an exported graph", cmd_pagerank,
                 _pagerank_args),
    "betweenness": ("betweenness over an exported graph", cmd_betweenness,
                    _betweenness_args),
    "walktrap": ("walktrap clustering of a graph file", cmd_walktrap,
                 _walktrap_args),
    "historiograph": ("direct-citation historiograph", cmd_historiograph,
                      _historiograph_args),
    "sankey": ("three-field flow data", cmd_sankey, _sankey_args),
    "themes": ("thematic evolution over time slices", cmd_themes,
               _themes_args),
    "rpys": ("reference publication year spectroscopy", cmd_rpys, _common),
    "methods": ("lexicon method occurrence by niche", cmd_methods,
                _methods_args),
    "mfas": ("Monte Carlo minimum feedback arc set", cmd_mfas, _mfas_args),
    "mfas-calibrate": ("calibrate solver vs oracle", cmd_mfas_calibrate,
                       _mfas_calibrate_args),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser with every subcommand, or with only
    ``command``.  The usage line names every subcommand either way, so
    both parsers print the same text for the same input."""
    parser = argparse.ArgumentParser(
        prog="scimap",
        description="Bibliometric analysis and science mapping engine.")
    parser.add_argument("--version", action="version",
                        version=f"scimap {ENGINE_VERSION}")
    names = list(COMMANDS) if command is None else [command]
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name in names:
        help_text, handler, add_arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(handler=handler)
    return parser


if __name__ == "__main__":
    sys.exit(main())
