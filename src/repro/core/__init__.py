"""Skueue core: batches, anchor, the 4-stage protocol node, membership, structures."""

from repro.core.anchor import QueueAnchorState, StackAnchorState
from repro.core.batch import Batch, combine_runs
from repro.core.cluster import SkueueCluster
from repro.core.requests import BOTTOM, INSERT, REMOVE, OpRecord

__all__ = [
    "BOTTOM",
    "Batch",
    "INSERT",
    "OpRecord",
    "QueueAnchorState",
    "REMOVE",
    "SkueueCluster",
    "StackAnchorState",
    "combine_runs",
]
