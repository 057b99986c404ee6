"""Term-sharded multiprocessing for the batch mining pipeline.

Terms are independent in both STComb and STLocal, so a multi-term
workload parallelises embarrassingly: split the vocabulary into one
contiguous-ish shard per worker, run the snapshot-major sweep on each
shard in its own process, merge the per-shard pattern maps.

Because the trackers evaluate streams in a fixed sorted order (immune
to per-process string-hash randomisation), the merged result is
bit-identical to a serial sweep.

Everything shipped to a worker must pickle: the tensor (its column
snapshot: NumPy arrays, lists and dicts), the stream locations, and the
miner configurations.  A custom
``baseline_factory`` must therefore be a module-level callable, not a
lambda.
"""

from __future__ import annotations

import concurrent.futures
from typing import Dict, Hashable, List, Optional, Sequence

from repro.spatial.geometry import Point

__all__ = ["mine_shards", "split_terms"]


def split_terms(terms: Sequence[str], shards: int) -> List[List[str]]:
    """Round-robin split: balances heavy terms across shards even when
    term weight correlates with vocabulary order.

    An empty vocabulary yields *no* shards (``[]``, not ``[[]]``) — a
    single empty shard used to make :func:`mine_shards` spawn a worker
    process just to mine nothing.
    """
    if not terms:
        return []
    shards = max(1, min(shards, len(terms)))
    return [list(terms[offset::shards]) for offset in range(shards)]


def _mine_shard(kind, stlocal, stcomb, tensor, terms, locations):
    """Worker entry point: mine one shard serially in this process."""
    from repro.pipeline.batch import BatchMiner

    miner = BatchMiner(stlocal=stlocal, stcomb=stcomb, workers=1)
    if kind == "regional":
        return miner.mine_regional(tensor, terms, locations)
    return miner.mine_combinatorial(tensor, terms)


def mine_shards(
    kind: str,
    miner,
    tensor,
    terms: Sequence[str],
    locations: Optional[Dict[Hashable, Point]],
    workers: int,
) -> Dict:
    """Fan a term list out over worker processes and merge the results.

    Args:
        kind: ``"regional"`` or ``"combinatorial"``.
        miner: The parent :class:`~repro.pipeline.BatchMiner` (supplies
            the algorithm configurations).
        tensor: The shared frequency tensor (pickled to each worker).
        terms: Full term list to mine.
        locations: Stream locations (regional mining only).
        workers: Number of worker processes.

    Returns:
        The merged term → patterns map (unordered; the caller restores
        term order).
    """
    shards = split_terms(terms, workers)
    if not shards:
        return {}
    if len(shards) <= 1:
        return _mine_shard(
            kind, miner.stlocal, miner.stcomb, tensor, list(terms), locations
        )
    merged: Dict = {}
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=len(shards)
    ) as pool:
        futures = [
            pool.submit(
                _mine_shard,
                kind,
                miner.stlocal,
                miner.stcomb,
                tensor,
                shard,
                locations,
            )
            for shard in shards
        ]
        for future in futures:
            merged.update(future.result())
    return merged
