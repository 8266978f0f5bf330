"""Baselines.

The paper's introduction motivates Skueue against server-based queues
(ActiveMQ/IBM MQ-style): a central server is a throughput and storage
bottleneck.  These baselines quantify that claim and ablate Skueue's key
design choice (batching) on the same simulation substrate.
"""

from repro.baselines.central import CentralQueueCluster
from repro.baselines.nobatch import NoBatchQueueCluster

__all__ = [
    "CentralQueueCluster",
    "NoBatchQueueCluster",
]
