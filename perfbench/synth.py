"""Seeded synthetic inputs for the benchmark: WoS plaintext exports and
MFAS multigraph files.

Everything here is a pure function of the seed and the size arguments.
Each generator also returns the ground truth the correctness checks in
``checks.py`` compare the program's artifacts against (record counts,
planted duplicates and local citations, reference mentions, and the
exact MFAS optimum of the small calibration instance).
"""
from __future__ import annotations

import itertools
import random
from bisect import bisect_right

# Letters-only syllables: normalize_author_name strips digits, so digit
# suffixes cannot make surnames distinct.
_SYLLABLES = ("ka", "lo", "mi", "ren", "tas", "vu", "sel", "dor", "fin",
              "gar", "hol", "jus", "kel", "mar", "nor", "pel", "quin", "ros",
              "sun", "tor", "val", "wes", "yar", "zen", "bri", "cal", "den",
              "ev", "fro", "ga", "hu", "is", "jo", "li", "mo", "nu", "ob")
_STOP = ("the", "of", "and", "in", "to", "for", "with", "on", "by", "is",
         "we", "this", "that", "from", "are", "an", "as", "at")
_JOURNAL_FORMS = ("JOURNAL OF {a} {b}", "ANNALS OF {a} {b}",
                  "{a} {b} REVIEW", "TRANSACTIONS ON {a} {b}",
                  "INTERNATIONAL JOURNAL OF {a} {b}")

FIRST_YEAR = 1995
REFERENCE_YEAR = 2023
DUP_SHARE = 0.15                  # share of the first file repeated in the second
ABSTRACT_WORDS = (90, 150)        # enough for themes and abstract bigrams
SCC_SIZES = (40, 26, 16, 9)       # strongly connected components of the large graph
CHORDS_PER_NODE = 4.0             # about 1,050 arcs in total
SMALL_CANDIDATES = 8              # small calibration graphs tried per seed


class Zipf:
    """Rank-frequency sampler: item r has weight 1 / (r + 1) ** s."""

    def __init__(self, items, s: float = 1.0):
        self.items = list(items)
        total = 0.0
        self.cum = []
        for rank in range(len(self.items)):
            total += 1.0 / (rank + 1) ** s
            self.cum.append(total)

    def one(self, rng: random.Random):
        return self.items[bisect_right(self.cum, rng.random() * self.cum[-1])]

    def distinct(self, rng: random.Random, k: int) -> list:
        out: dict = {}
        while len(out) < min(k, len(self.items)):
            out.setdefault(self.one(rng), None)
        return list(out)


def _words(rng: random.Random, n: int, lo: int = 2, hi: int = 3) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < n:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(lo, hi)))
        if word not in _STOP:
            seen.setdefault(word, None)
    return list(seen)


# WoS plaintext export ---------------------------------------------------------

def _record_lines(rec: dict) -> list[str]:
    lines = ["PT J"]

    def multi(tag, values):
        if values:
            lines.append(f"{tag} {values[0]}")
            lines.extend(f"   {v}" for v in values[1:])

    multi("AU", rec["AU"])
    lines.append(f"TI {rec['TI']}")
    lines.append(f"SO {rec['SO']}")
    lines.append("LA English")
    lines.append(f"DT {rec['DT']}")
    lines.append(f"DE {'; '.join(rec['DE'])}")
    lines.append(f"ID {'; '.join(rec['ID'])}")
    # abstracts wrap like real exports: continuation lines of ~12 words
    words = rec["AB"].split(" ")
    multi("AB", [" ".join(words[i:i + 12]) for i in range(0, len(words), 12)])
    multi("C1", rec["C1"])
    lines.append(f"RP {rec['RP']}")
    multi("CR", rec["CR"])
    lines.append(f"NR {len(rec['CR'])}")
    lines.append(f"TC {rec['TC']}")
    lines.append(f"PY {rec['PY']}")
    lines.append(f"WC {rec['WC']}")
    if rec["DI"]:
        lines.append(f"DI {rec['DI']}")
    lines.append(f"UT {rec['UT']}")
    lines.append("ER")
    return lines


def _export_text(records: list[dict]) -> str:
    lines = ["FN Clarivate Analytics Web of Science", "VR 1.0"]
    for rec in records:
        lines.extend(_record_lines(rec))
        lines.append("")
    lines.append("EF")
    return "\n".join(lines) + "\n"


def wos_exports(seed: int, n_docs: int):
    """Two overlapping plaintext exports of ``n_docs`` distinct documents.

    The second file repeats ``DUP_SHARE`` of the first file's records
    (with a higher citation count and one extra keyword) so dedupe merges
    them: records with a DOI by DOI, the others by title and year.
    Some references cite earlier corpus documents, by DOI or by first
    author, year and a source prefix; the rest come from a Zipf pool of
    outside references, plus a few undated ones.

    Returns ``(text1, text2, truth)``.  Malformed records (``AU 123``,
    ``TC -3``) are left out on purpose: today they abort ``ingest``.
    """
    rng = random.Random(f"wos:{seed}:{n_docs}")
    vocab = _words(rng, 3000)
    content = Zipf(vocab, 1.05)
    keyword_phrases = Zipf([" ".join(p) for p in zip(vocab[::3], vocab[1::3])][:600], 1.0)
    plus_phrases = Zipf([f"{a}-{b}".upper() for a, b in zip(vocab[2::3], vocab[5::3])][:400], 1.0)
    surnames = _words(rng, max(400, n_docs), 2, 4)
    authors = Zipf([f"{s.capitalize()}, {rng.choice('ABCDEFGHJKLMNPRSTW')}"
                    f"{rng.choice(['', 'A', 'J', 'K', 'M'])}" for s in surnames], 0.9)
    journal_words = [w.upper() for w in _words(rng, 120, 3, 4)]
    sources = []
    for a, b in zip(journal_words[::2], journal_words[1::2]):
        sources.append(rng.choice(_JOURNAL_FORMS).format(a=a, b=b))
    sources = Zipf(sources, 1.1)
    countries = Zipf(["USA", "Peoples R China", "England", "Germany", "Japan",
                      "France", "Canada", "Italy", "Spain", "Australia",
                      "India", "South Korea", "Brazil", "Netherlands",
                      "Sweden", "Switzerland", "Taiwan", "Turkey", "Iran",
                      "Poland", "Scotland", "Belgium", "Denmark", "Mexico",
                      "Norway", "Finland", "Austria", "Israel", "Chile",
                      "Portugal"], 1.0)
    institutions = Zipf([f"Univ {w.capitalize()}" for w in _words(rng, 300, 2, 3)], 0.9)
    categories = Zipf([f"{a.capitalize()} {b.capitalize()}"
                       for a, b in zip(vocab[7:400:7], vocab[8:400:7])], 1.0)

    # Outside references: unique (author, year, source) keys; sources are
    # abbreviations ("J XYZ ...") that never prefix a corpus source.
    pool, pool_keys = [], set()
    while len(pool) < 4 * n_docs:
        author = rng.choice(surnames).upper() + " " + rng.choice("ABCDEFGHJKLMNPRSTW")
        year = rng.randint(1950, REFERENCE_YEAR)
        source = "J " + " ".join(w.upper()[:4] for w in rng.sample(journal_words, 2))
        key = (author, year, source)
        if key in pool_keys:
            continue
        pool_keys.add(key)
        text = f"{author}, {year}, {source}, V{rng.randint(1, 90)}, P{rng.randint(1, 900)}"
        if rng.random() < 0.3:
            text += f", DOI 10.9{seed % 1000:03d}/pool.{len(pool)}"
        pool.append(text)
    pool_refs = Zipf(pool, 0.9)
    undated = [f"ANONYMOUS, TECHNICAL REPORT {w.upper()}" for w in vocab[:40]]

    years = sorted(FIRST_YEAR + int((REFERENCE_YEAR - FIRST_YEAR + 1) * rng.random() ** 0.6)
                   for _ in range(n_docs))
    docs, titles = [], set()
    for i, year in enumerate(years):
        while True:
            title = " ".join(content.one(rng) for _ in range(rng.randint(7, 12)))
            if title not in titles:
                titles.add(title)
                break
        au = list(dict.fromkeys(authors.one(rng) for _ in range(rng.randint(1, 5))))
        aff_countries = [countries.one(rng) for _ in range(rng.randint(1, 3))]
        c1 = [f"[{au[0]}] {institutions.one(rng)}, Dept {rng.choice(vocab).capitalize()}, "
              f"{rng.choice(vocab).capitalize()}, {c}." for c in aff_countries]
        ab, n_words = [], rng.randint(*ABSTRACT_WORDS)
        while len(ab) < n_words:
            ab.append(rng.choice(_STOP) if rng.random() < 0.25 else content.one(rng))
        docs.append({
            "AU": au, "TI": title.capitalize(), "SO": sources.one(rng),
            "DT": "Review" if rng.random() < 0.1 else "Article",
            "DE": keyword_phrases.distinct(rng, rng.randint(3, 6)),
            "ID": plus_phrases.distinct(rng, rng.randint(2, 5)),
            "AB": " ".join(ab).capitalize() + ".",
            "C1": c1, "RP": f"{au[0]} (corresponding author), {c1[0].split('] ')[1]}",
            "TC": rng.randint(0, 60) + (REFERENCE_YEAR - year) * rng.randint(0, 5),
            "PY": year, "WC": categories.one(rng),
            "DI": f"10.5{seed % 1000:03d}/bench.{year}.{i}" if rng.random() < 0.6 else "",
            "UT": f"WOS:{seed % 10 ** 6:06d}{i:09d}", "CR": [],
        })

    # A meta-route reference matches the first document with its surname
    # and year whose source it prefixes, so only targets alone under their
    # (surname, year) key are cited that way.
    meta_key = {}
    for doc in docs:
        key = (doc["AU"][0].split(",")[0].upper(), doc["PY"])
        meta_key[key] = meta_key.get(key, 0) + 1
    popularity = Zipf(range(n_docs), 0.8)
    mentions = dated = 0
    dated_keys: set = set()
    for i, doc in enumerate(docs):
        refs: dict[str, object] = {}
        for text in pool_refs.distinct(rng, rng.randint(8, 30)):
            refs[text] = ("pool", text)
        for _ in range(rng.randint(0, 6)):
            j = popularity.one(rng)
            target = docs[j]
            if target["PY"] >= doc["PY"] or ("doc", j) in refs.values():
                continue
            surname = target["AU"][0].split(",")[0].upper()
            initial = target["AU"][0].split(", ")[1]
            unique_meta = meta_key[(surname, target["PY"])] == 1
            prefix = target["SO"][:rng.randint(8, len(target["SO"]))].rstrip()
            text = (f"{surname} {initial}, {target['PY']}, {prefix}, "
                    f"V{rng.randint(1, 40)}, P{rng.randint(1, 500)}")
            if target["DI"] and (rng.random() < 0.5 or not unique_meta):
                text += f", DOI {target['DI'].upper()}"
            elif not unique_meta:
                continue
            refs[text] = ("doc", j)
        if rng.random() < 0.1:
            refs[rng.choice(undated)] = ("undated", None)
        doc["CR"] = list(refs)
        rng.shuffle(doc["CR"])
        for key in refs.values():
            mentions += 1
            if key[0] != "undated":
                dated += 1
                dated_keys.add(key)

    order = list(range(n_docs))
    rng.shuffle(order)
    first = sorted(order[: n_docs * 6 // 10])
    second_new = sorted(order[n_docs * 6 // 10:])
    n_dups = int(len(first) * DUP_SHARE)
    dups = []
    for j in sorted(rng.sample(first, n_dups)):
        copy = dict(docs[j])
        copy["TC"] = docs[j]["TC"] + rng.randint(1, 9)
        copy["DE"] = docs[j]["DE"] + [keyword_phrases.one(rng)]
        dups.append(copy)
    second = [docs[j] for j in second_new] + dups
    rng.shuffle(second)

    truth = {
        "records": n_docs + n_dups,
        "documents": n_docs,
        "duplicates": n_dups,
        "duplicates_by_doi": sum(1 for d in dups if d["DI"]),
        "dated_mentions": dated,
        "undated_mentions": mentions - dated,
        "dated_references": len(dated_keys),
    }
    return (_export_text([docs[j] for j in first]), _export_text(second), truth)


# MFAS multigraphs -------------------------------------------------------------

def _components(nodes, bundles) -> dict:
    """Strongly connected components of a small digraph by reachability."""
    out = {u: set() for u in nodes}
    for u, v in bundles:
        out[u].add(v)
    reach = {}
    for u in nodes:
        seen, stack = {u}, [u]
        while stack:
            for nxt in out[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[u] = seen
    return {u: min(v for v in reach[u] if u in reach[v]) for u in nodes}


def _is_acyclic(nodes, bundles) -> bool:
    comp = _components(nodes, bundles)
    return all(comp[u] != comp[v] for u, v in bundles)


def small_optimum(bundles: dict) -> int:
    """Exact minimum feedback arc set size by exhaustive bundle subsets."""
    nodes = {x for b in bundles for x in b}
    items = sorted(bundles.items())
    best = sum(bundles.values())
    for r in range(len(items) + 1):
        for subset in itertools.combinations(range(len(items)), r):
            size = sum(items[i][1] for i in subset)
            if size >= best:
                continue
            rest = [items[i][0] for i in range(len(items)) if i not in subset]
            if _is_acyclic(nodes, rest):
                best = size
    return best


def _one_run(bundles: dict, rng: random.Random) -> int:
    work = dict(bundles)
    nodes = {x for b in bundles for x in b}
    removed = 0
    while True:
        comp = _components(nodes, work)
        on_cycle = sorted((b, m) for b, m in work.items() if comp[b[0]] == comp[b[1]])
        if not on_cycle:
            return removed
        pick = rng.randrange(sum(m for _, m in on_cycle))
        for bundle, mult in on_cycle:
            if pick < mult:
                break
            pick -= mult
        removed += 1
        work[bundle] -= 1
        if not work[bundle]:
            del work[bundle]


def mfas_graphs(seed: int):
    """A large multigraph and a small oracle-feasible one, as file texts.

    The large graph has strongly connected components of ``SCC_SIZES``
    nodes (a Hamiltonian cycle plus random chords each, bundle
    multiplicities 1-3) joined by acyclic arcs from earlier to later
    components.  The small one has 6 nodes and 9 bundles of multiplicity
    1 or 2 (at most 18 arcs) and a per-run success rate near one half.
    Returns ``(large_text, small_text, truth)``.
    """
    rng = random.Random(f"mfas:{seed}")
    bundles: dict = {}
    comp_nodes = []
    for c, size in enumerate(SCC_SIZES):
        names = [f"c{c}n{k}" for k in range(size)]
        rng.shuffle(names)
        comp_nodes.append(names)
        for a, b in zip(names, names[1:] + names[:1]):
            bundles[(a, b)] = rng.randint(1, 3)
        for _ in range(int(CHORDS_PER_NODE * size)):
            a, b = rng.sample(names, 2)
            bundles[(a, b)] = bundles.get((a, b), 0) + rng.randint(1, 3)
    for _ in range(sum(SCC_SIZES)):
        c1, c2 = sorted(rng.sample(range(len(SCC_SIZES)), 2))
        a, b = rng.choice(comp_nodes[c1]), rng.choice(comp_nodes[c2])
        bundles[(a, b)] = bundles.get((a, b), 0) + rng.randint(1, 2)
    large = "".join(f"{u} {v} {m}\n" for (u, v), m in sorted(bundles.items()))

    # A fixed number of candidates keeps set-up time independent of the
    # seed; the one whose per-run success rate is closest to one half wins.
    candidates = []
    for _ in range(SMALL_CANDIDATES):
        names = [f"s{k}" for k in range(6)]
        small: dict = {}
        for a, b in zip(names, names[1:] + names[:1]):
            small[(a, b)] = rng.choice((1, 1, 2))
        while len(small) < len(names) + 3:
            a, b = rng.sample(names, 2)
            small.setdefault((a, b), rng.choice((1, 1, 2)))
        optimum = small_optimum(small)
        trial_rng = random.Random(rng.random())
        rate = sum(_one_run(small, trial_rng) == optimum for _ in range(100)) / 100
        candidates.append((abs(rate - 0.5), len(candidates), small, optimum))
    _, _, small, optimum = min(candidates)
    small_text = "".join(f"{u} {v} {m}\n" for (u, v), m in sorted(small.items()))
    return large, small_text, {"small_optimum": optimum}
