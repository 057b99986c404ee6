"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of its seed: the same seed gives the
same records, vocabulary and query lists.  The corpora are drawn from
:data:`CORPUS_SEED`; the workload seed orders the query stream and
draws the live client's choices.  The program under test only ever
receives these generated inputs.

Two corpora:

* **ambient** — the Topix-shaped load of ``benchmarks/bench_columnar.py``
  (144 streams on a grid × 360 snapshots, single-term documents, long
  windows of background chatter with one compact burst per term).  It
  is re-stated here rather than imported so the benchmark's inputs stay
  fixed when the pytest benchmark scripts change.
* **topix** — :func:`repro.datagen.generate_topix_corpus`: real-country
  MDS geography, a 12k-term Zipf vocabulary, multi-term documents and
  the Table-9 events.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro import Document, Point
from repro.datagen import CorpusSettings, generate_topix_corpus
from repro.search.topk import normalize_query_terms
from repro.streams.document import tokenize


@dataclasses.dataclass
class Corpus:
    """Raw records: what a feed delivers before any indexing."""

    timeline: int
    streams: List[Tuple[str, Point]]
    documents: List[Document]  # arrival order: (timestamp, doc_id)
    vocabulary: List[str]  # mined terms, most documents first
    live_vocabulary: List[str]  # terms the live client asks about
    pinned_queries: List[str]  # always in the query pool (Table 9)

    def snapshots(self) -> List[List[Document]]:
        batches: List[List[Document]] = [[] for _ in range(self.timeline)]
        for document in self.documents:
            batches[document.timestamp].append(document)
        return batches


def _by_arrival(documents) -> List[Document]:
    return sorted(documents, key=lambda d: (d.timestamp, d.doc_id))


def _by_frequency(documents, terms) -> List[str]:
    counts = Counter(t for d in documents for t in set(d.terms) if t in terms)
    return sorted(terms, key=lambda t: (-counts[t], t))


def ambient_corpus(
    seed: int, n_terms: int, n_streams: int = 144, timeline: int = 360
) -> Corpus:
    """Wide background chatter with one compact burst per term."""
    rng = random.Random(seed)
    side = int(n_streams ** 0.5)
    streams = [
        (f"s{i:03d}", Point(float(i % side) * 5.0, float(i // side) * 5.0))
        for i in range(n_streams)
    ]
    documents = []
    window_hi = max(40, timeline // 5)
    for index in range(n_terms):
        term = f"topic{index:03d}"
        start = rng.randint(0, timeline - window_hi - 10)
        window = rng.randint(window_hi - 10, window_hi)
        for _ in range(window * 12):
            t = rng.randint(start, min(timeline - 1, start + window))
            stream = f"s{rng.randint(0, n_streams - 1):03d}"
            documents.append(Document(len(documents), stream, t, (term,)))
        burst_start = rng.randint(start + 5, start + window - 12)
        members = sorted(
            {
                max(0, min(n_streams - 1, rng.randint(0, n_streams - 1) + d))
                for d in (0, 1, side, side + 1)
            }
        )
        for t in range(burst_start, burst_start + rng.randint(5, 9)):
            for member in members:
                for _ in range(rng.randint(2, 4)):
                    documents.append(
                        Document(len(documents), f"s{member:03d}", t, (term,))
                    )
    vocabulary = _by_frequency(documents, {d.terms[0] for d in documents})
    return Corpus(
        timeline=timeline,
        streams=streams,
        documents=_by_arrival(documents),
        vocabulary=vocabulary,
        live_vocabulary=vocabulary,
        pinned_queries=[],
    )


def topix_corpus(
    seed: int, n_countries: int, head_terms: int, live_terms: int,
    live_from: int,
) -> Corpus:
    """Topix-style corpus: mines the Table-9 tokens, the Zipf head and
    the live client's terms.

    Background chatter a little above the generator's default (6
    rather than 5 documents per country-week) and half its event volume
    keep one index build near two seconds.  The live client follows
    ``live_terms`` background terms from frequency rank ``live_from``
    on: like every Table-9 token they arrive every week, and a re-sync
    of one costs milliseconds, so a full feed replay stays short enough
    to repeat.
    """
    generated = generate_topix_corpus(
        CorpusSettings(n_countries=n_countries, background_rate=6.0,
                       event_scale=0.5, seed=seed)
    )
    collection = generated.collection
    documents = list(collection.documents())
    queries = [query for _, query in generated.queries()]
    tokens = {token for query in queries for token in tokenize(query)}
    counts = Counter(t for d in documents for t in set(d.terms))
    background = [
        term for term, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if term not in tokens
    ]
    head = background[:head_terms]
    followed = background[live_from:live_from + live_terms]
    return Corpus(
        timeline=collection.timeline,
        streams=list(collection.locations().items()),
        documents=_by_arrival(documents),
        vocabulary=_by_frequency(documents, tokens | set(head) | set(followed)),
        live_vocabulary=_by_frequency(documents, set(followed)),
        pinned_queries=queries,
    )


def _zipf_pick(rng: random.Random, cumulative: Sequence[float]) -> int:
    target = rng.random() * cumulative[-1]
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _zipf_cumulative(n: int, exponent: float = 1.0) -> List[float]:
    total, cumulative = 0.0, []
    for rank in range(n):
        total += 1.0 / (rank + 1) ** exponent
        cumulative.append(total)
    return cumulative


#: Stream shares of 1-, 2- and 3-term queries.  A three-term query
#: costs several times a shorter one; at 5% of the stream the p99 falls
#: inside their body rather than in the jitter tail of the cheap ones,
#: with enough of them that it is not set by a few heavy queries.
WIDTH_SHARES = (0.50, 0.45, 0.05)

#: Seeds the query pool, which is the same for every workload seed.
QUERY_MIX_SEED = 17

#: Seeds both corpora, which are the same for every workload seed.
#: Drawn from the workload seed, the corpora's sizes and burst shapes
#: moved mining time, store bytes per document and the live query tail
#: by 10-40% between seeds, which would have hidden a regression of
#: that size behind which seeds a run drew.
CORPUS_SEED = 5


def _apportion(total: int, weights: Sequence[float]) -> List[int]:
    """Split ``total`` in proportion to ``weights`` (largest remainder)."""
    whole = sum(weights)
    shares = [total * weight / whole for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)),
                          key=lambda i: (counts[i] - shares[i], i))
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def query_stream(
    corpus: Corpus, seed: int, pool_size: int, length: int
) -> Tuple[List[str], List[int]]:
    """A pool of distinct queries and a stream of indexes into it.

    The query mix is fixed; the seed only orders it.  Queries have 1–3
    terms drawn with Zipf popularity over the mined vocabulary (most
    documents first), plus the pinned Table-9 queries, and each width's
    pool is ranked by popularity, the product of its terms' Zipf
    weights.  The stream holds exactly :data:`WIDTH_SHARES` of each
    width, and each query of a width a fixed number of times, by a mild
    Zipf skew over that ranking, so combinations of popular terms
    repeat as they do in a real query log.  The seed draws the corpus
    and shuffles the stream; a fixed mix keeps which queries set the
    p50 and p99 from moving with it.
    """
    rng = random.Random(QUERY_MIX_SEED)
    term_weights = _zipf_cumulative(len(corpus.vocabulary))
    pools: Dict[int, List[str]] = {1: [], 2: [], 3: []}
    seen = set()

    def add(terms) -> None:
        key = normalize_query_terms(tuple(terms))
        if key not in seen:
            seen.add(key)
            pools[min(len(key), 3)].append(" ".join(key))

    for query in corpus.pinned_queries:
        add(tokenize(query))
    for width, queries in pools.items():
        for _ in range(5 * pool_size):  # a small vocabulary has few singles
            if len(queries) >= pool_size // 3:
                break
            terms = set()
            while len(terms) < width:
                terms.add(corpus.vocabulary[_zipf_pick(rng, term_weights)])
            add(terms)
    rank = {term: number for number, term in enumerate(corpus.vocabulary)}

    def popularity(query: str) -> Tuple[float, str]:
        return (sum(math.log(rank.get(term, len(rank)) + 1)
                    for term in query.split()), query)

    pool: List[str] = []
    stream: List[int] = []
    widths = _apportion(length, WIDTH_SHARES)
    for width, queries in pools.items():
        offset = len(pool)
        pool.extend(sorted(queries, key=popularity))
        zipf = [1.0 / (number + 1) ** 0.3 for number in range(len(queries))]
        for number, count in enumerate(_apportion(widths[width - 1], zipf)):
            stream += [offset + number] * count
    random.Random(seed * 7919 + 17).shuffle(stream)
    return pool, stream


#: Snapshots without documents after which a term counts as quiet.
QUIET = 5

#: The live client re-syncs fresh terms on every second snapshot, which
#: keeps re-syncs a small share of its queries (3-13%).
FRESH_EVERY = 2


@dataclasses.dataclass(frozen=True)
class LiveMix:
    """The live client's per-snapshot query mix, fixed per workload.

    After each snapshot from ``warm`` on is ingested, the client asks,
    in this order:

    * ``settled`` distinct queries over terms that were synced after
      their last ingest, each one such term or a pair of them (the
      engine serves them from its current state);
    * on every :data:`FRESH_EVERY`-th snapshot, ``fresh`` distinct
      terms ingested in this very snapshot (each forces a re-sync:
      incremental re-mining plus a posting rebuild or delta), taken in
      rotation so every term is re-synced at a regular pace;
    * up to ``combos`` multi-term queries over those fresh terms (their
      pairs, then their triples): new cache keys over terms synced
      moments ago, so the engine serves them from its current state
      (for feeds without settled terms);
    * each fresh query once more (an LRU cache hit).

    The shares of the three latency modes are therefore fixed, with
    most queries in the served-current mode (real top-k work, not a
    microsecond cache hit), so neither the feed's wall time nor the
    per-mode latencies move with the seed.  Right after
    ingesting snapshot ``warm - 1`` the client subscribes to
    ``subscribe`` terms that have gone quiet (no documents in the last
    :data:`QUIET` snapshots; one query each, excluded from the latency
    samples), which seeds the settled pool.  Terms still arriving are
    left out: their next document would unsettle them anyway.  A fixed
    count keeps the subscriptions' cost from moving with the seed.
    """

    warm: int
    subscribe: int
    settled: int
    fresh: int
    combos: int
    checkpoint_every: int


def live_schedule(
    corpus: Corpus, mix: LiveMix, seed: int
) -> List[List[Tuple[str, str]]]:
    """Per snapshot, the ``(kind, query)`` list the live client sends.

    ``kind`` is ``"subscribe"``, ``"settled"``, ``"fresh"``,
    ``"repeat"`` or ``"combo"``.  Computed up front from the records alone: a query
    syncs its term, so the client knows which terms are settled
    without asking the engine.
    """
    rng = random.Random(seed * 104729 + 3)
    vocabulary = set(corpus.live_vocabulary)
    last_ingest: Dict[str, int] = {}
    synced: Dict[str, int] = {}
    schedule: List[List[Tuple[str, str]]] = []
    for t, batch in enumerate(corpus.snapshots()):
        arrived = sorted({term for d in batch for term in d.terms} & vocabulary)
        for term in arrived:
            last_ingest[term] = t
        queries: List[Tuple[str, str]] = []
        if t == mix.warm - 1:
            quiet = [term for term in sorted(last_ingest)
                     if last_ingest[term] < t - QUIET]
            queries = [("subscribe", term) for term in
                       rng.sample(quiet, min(mix.subscribe, len(quiet)))]
        elif t >= mix.warm:
            pool = sorted(
                term for term, when in synced.items()
                if when >= last_ingest[term] and term not in arrived
            )
            pool += [f"{a} {b}" for a, b in itertools.combinations(pool, 2)]
            settled = rng.sample(pool, min(mix.settled, len(pool)))
            fresh: List[str] = []
            if (t - mix.warm) % FRESH_EVERY == 0:
                start = (t * mix.fresh) % max(1, len(arrived))
                fresh = (arrived[start:] + arrived[:start])[:mix.fresh]
            combos = itertools.chain(itertools.combinations(fresh, 2),
                                     itertools.combinations(fresh, 3))
            queries = [("settled", term) for term in settled]
            queries += [("fresh", term) for term in fresh]
            queries += [("combo", " ".join(terms))
                        for terms in itertools.islice(combos, mix.combos)]
            queries += [("repeat", term) for term in fresh]
        for _, query in queries:
            for term in query.split():
                synced[term] = t
        schedule.append(queries)
    return schedule
