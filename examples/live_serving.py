"""Live ingestion + serving: the ingest → invalidate → serve lifecycle.

The static stack answers queries over a finished collection; this
example runs the online counterpart (`repro.live`): documents are
ingested snapshot by snapshot while queries are served continuously,
and every answer reflects everything ingested so far.

Watch three mechanisms as the feed plays:

* the epoch-keyed LRU result cache — repeating a query inside one
  epoch is a cache hit, any ingest silently retires the entry;
* per-term invalidation — a query whose term saw no new documents is
  served from its existing posting list ("served without any work"
  below), while a term whose pattern set shifted rebuilds only its own
  posting list; pattern-stable terms only score their new documents.

At the end the live state is cross-checked against a cold batch
rebuild — the same differential oracle the test suite enforces.

Run with:  python examples/live_serving.py
"""

from __future__ import annotations

import random

from repro import (
    BatchMiner,
    BurstySearchEngine,
    Document,
    LiveCollection,
    LiveSearchEngine,
    Point,
    SpatiotemporalCollection,
)

TIMELINE = 36
VOCABULARY = ["earthquake", "transit", "market", "festival", "rain"]


def main() -> None:
    rng = random.Random(42)

    live = LiveCollection(TIMELINE)
    cities = {
        f"city-{col}{row}": Point(col * 12.0, row * 12.0)
        for col in range(5)
        for row in range(5)
    }
    for city, point in cities.items():
        live.add_stream(city, point)
    engine = LiveSearchEngine(live, cache_size=64)

    doc_id = 0

    def background(day: int) -> list:
        nonlocal doc_id
        docs = []
        for city in cities:
            if rng.random() < 0.35:
                text = " ".join(
                    rng.choice(VOCABULARY[1:]) for _ in range(rng.randint(1, 3))
                )
                docs.append(Document.from_text(doc_id, city, day, text))
                doc_id += 1
        return docs

    def outbreak(day: int) -> list:
        nonlocal doc_id
        docs = []
        for city in ("city-00", "city-01", "city-10", "city-11"):
            docs.append(
                Document.from_text(
                    doc_id, city, day, "earthquake earthquake aftershock"
                )
            )
            doc_id += 1
        return docs

    print("replaying 36 daily snapshots with queries every 6 days...\n")
    for day in range(TIMELINE):
        docs = background(day)
        if 14 <= day <= 20:
            docs.extend(outbreak(day))
        live.ingest_snapshot(day, docs)

        if day % 6 == 5:
            engine.search("festival", k=3)  # background term: re-synced
            results = engine.search("earthquake", k=3)
            hit_check = engine.search("earthquake", k=3)  # same epoch → LRU hit
            assert hit_check == results
            top = (
                f"doc {results[0].document.doc_id} from "
                f"{results[0].document.stream_id} (score {results[0].score:.2f})"
                if results
                else "nothing bursty yet"
            )
            print(
                f"day {day:>2}: {live.document_count:>4} docs ingested | "
                f"'earthquake' → {len(results)} result(s); top: {top}"
            )

    stats = engine.stats
    print(
        f"\nserving stats: {stats.cache_hits} LRU hits / "
        f"{stats.cache_misses} misses, {stats.rebuilds} posting rebuilds, "
        f"{stats.served_current} terms served without any work"
    )

    # ------------------------------------------------------------------
    # The differential oracle: live state == cold batch rebuild.
    # ------------------------------------------------------------------
    cold = SpatiotemporalCollection(TIMELINE)
    for city, point in cities.items():
        cold.add_stream(city, point)
    for document in live.ingested_documents():
        cold.add_document(document)
    batch_engine = BurstySearchEngine(cold, BatchMiner().mine_regional(cold))

    for query in ("earthquake", "market rain", "festival"):
        lively = [
            (r.document.doc_id, r.score) for r in engine.search(query, k=10)
        ]
        coldly = [
            (r.document.doc_id, r.score)
            for r in batch_engine.search(query, k=10)
        ]
        status = "identical" if lively == coldly else "MISMATCH"
        print(f"differential check {query!r}: live vs cold rebuild ... {status}")
        assert lively == coldly

    print("\nlive serving state verified against the batch oracle.")


if __name__ == "__main__":
    main()
