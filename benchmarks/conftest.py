"""Shared fixtures for the benchmark harness.

One Topix-style laboratory (corpus + tensor + pattern caches) is built
per session and shared by every corpus-backed benchmark, exactly as the
paper evaluates one dataset across Tables 1/3 and Figures 4–7.

Scale note: the default corpus uses the full 181 countries and 48 weeks
but a reduced background document rate, keeping the whole benchmark
suite laptop-sized.  Set ``REPRO_FULL=1`` in the environment to run the
paper-sized configuration.
"""



import os
import sys

import pytest

from repro.datagen import CorpusSettings
from repro.eval import TopixLab


#: Smoke-size run (``REPRO_BENCH_TINY=1``): the speed benchmarks shrink
#: their inputs and skip their ratio floors.
TINY = os.environ.get("REPRO_BENCH_TINY", "") == "1"


def is_full_run() -> bool:
    return os.environ.get("REPRO_FULL", "") == "1"


@pytest.fixture(scope="session")
def lab() -> TopixLab:
    if is_full_run():
        settings = CorpusSettings(background_rate=5.0, seed=0)
    else:
        settings = CorpusSettings(background_rate=2.0, seed=0)
    return TopixLab(settings)


_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The reference implementations the speed benchmarks time the shipped
#: paths against live with the tests, in ``tests/oracles/``.
sys.path.insert(0, os.path.join(_REPO_ROOT, "tests"))


def report(name: str, text: str) -> None:
    """Print a rendered result and persist it under benchmarks/results/.

    pytest captures stdout of passing tests, so the persisted copy is
    what survives a plain ``pytest benchmarks/ --benchmark-only`` run.
    """
    print()
    print(text)
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    path = os.path.join(_RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def persist_summary(name: str, payload) -> None:
    """Write a ``BENCH_*.json`` summary to results/ and the repo root.

    The results/ copy feeds the CI artifact upload; the repo-root copy
    is committed, so the perf trajectory is tracked in-tree across PRs
    instead of living only in expiring CI artifacts.  A smoke run
    (``REPRO_BENCH_TINY=1``) writes results/ only: its smoke-size
    numbers must not replace the committed full-size summary.
    """
    import json

    os.makedirs(_RESULTS_DIR, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    directories = [_RESULTS_DIR]
    if not TINY:
        directories.append(_REPO_ROOT)
    for directory in directories:
        with open(
            os.path.join(directory, f"BENCH_{name}.json"),
            "w",
            encoding="utf-8",
        ) as handle:
            handle.write(text)
