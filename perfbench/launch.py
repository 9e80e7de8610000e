"""Traced launcher: run one ``scimap`` command with layer spans recorded.

Usage: python3 perfbench/launch.py TRACE.jsonl ARGV...

It imports ``scimap.cli``, replaces the public library functions as they
are bound in their calling modules with wrappers that record a span
(name, start, end, parent) plus a few work counters, runs
``scimap.cli.main(ARGV)`` under a root span named ``cli.main``, and writes
the spans as JSON lines when the command returns.  Nothing in the
program changes; spans live in memory until the end.  Clock values are
CLOCK_MONOTONIC, so the parent can line them up with its own stamps.
"""
import time

_clock = time.monotonic
T_FIRST = _clock()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _local_match(result) -> dict:
    seen = matched = 0
    for keys in result.mentions.values():
        seen += len(keys)
        matched += sum(1 for key in keys if key[0] == "doc")
    return {"mentions": seen, "matched": matched}


def _graph_size(args) -> dict:
    return {"nodes": len(args[0].nodes), "edges": len(args[0].edges)}


# Span name -> counters taken from (args, result).  The name is the
# defining module (without the package) and the function name.
COUNTERS = {
    "parsing.parse_plaintext_export":
        lambda a, r: {"records": len(r), "bytes": len(a[0])},
    "normalize.to_document": lambda a, r: {"cited_refs": len(r.cited_refs)},
    "corpus.dedupe_and_screen":
        lambda a, r: {"documents": len(r.documents), "screened": len(r.screening)},
    "corpus.save_corpus": lambda a, r: {"bytes": os.path.getsize(r)},
    "tables.write_table": lambda a, r: {"rows": len(a[0])},
    "graphs.match_local_citations": lambda a, r: _local_match(r),
    "graphs.cooccurrence_graph": lambda a, r: {"edges": len(r.edges)},
    "graphs.cocitation_graph": lambda a, r: {"edges": len(r.edges)},
    "graphs.collaboration_graph": lambda a, r: {"edges": len(r.edges)},
    "graphs.historiograph": lambda a, r: {"edges": len(r[0].edges)},
    "graphio.write_graph": lambda a, r: {"bytes": os.path.getsize(r)},
    "graphio.read_graph": lambda a, r: {"edges": len(r.edges)},
    "centrality.pagerank": lambda a, r: _graph_size(a),
    "centrality.betweenness": lambda a, r: _graph_size(a),
    "community.walktrap": lambda a, r: _graph_size(a),
    "mfas.run_once": lambda a, r: {"size": r.size},
    "mfas.solve": lambda a, r: {"best_size": r[1].best_size},
    "mfas.calibration_harness":
        lambda a, r: {"per_run_success_rate": r.per_run_success_rate},
}

# (calling module, bound name) pairs to wrap.  A function bound in two
# modules gets one wrapper, so each call records exactly one span.
BINDINGS = {
    "scimap.cli": (
        "parse_plaintext_export", "to_document", "dedupe_and_screen",
        "save_corpus", "load_corpus", "coverage_report",
        "descriptive_summary", "annual_production",
        "mean_citation_per_elapsed_years", "source_article_counts",
        "bradford_zones", "author_document_counts", "lotka_fit",
        "term_frequencies", "trending_terms", "collaboration_indices",
        "h_index", "amortized_h_index", "resolve_amortized_ties", "amortize",
        "write_table", "cooccurrence_graph", "cocitation_graph",
        "collaboration_graph", "historiograph", "match_local_citations",
        "rpys", "three_field_flow", "write_graph", "read_graph", "pagerank",
        "betweenness", "walktrap", "thematic_evolution", "solve",
        "calibration_harness"),
    "scimap.graphs": ("match_local_citations",),
    "scimap.themes": ("walktrap",),
    "scimap.mfas": ("run_once", "brute_force_optimum"),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        walk = name == "community.walktrap"
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if name == "tables.write_table":
                # rows may be a generator; a list lets the counter take its length
                args = (list(args[0]),) + args[1:]
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            rss = _rss_mb() if walk else 0.0
            span["start"] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = _clock()
                stack.pop()
            if count is not None:
                span["counts"] = count(args, result)
            if walk:
                span["counts"]["rss_rise_mb"] = _rss_mb() - rss
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        wrapped = {}
        for module_name, names in BINDINGS.items():
            module = modules[module_name]
            for attr in names:
                fn = getattr(module, attr)
                if id(fn) not in wrapped:
                    name = f"{fn.__module__.removeprefix('scimap.')}.{fn.__name__}"
                    wrapped[id(fn)] = self.wrap(name, fn)
                setattr(module, attr, wrapped[id(fn)])


def main(trace_path: str, argv: list[str]) -> int:
    start = _clock()
    import scimap.cli
    import_s = _clock() - start
    tracer = Tracer()
    tracer.install(sys.modules)
    code = tracer.wrap("cli.main", scimap.cli.main)(argv)
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
        handle.write(json.dumps({"process": True, "t_first": T_FIRST,
                                 "import_s": import_s, "t_last": _clock()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
