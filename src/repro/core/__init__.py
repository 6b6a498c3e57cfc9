"""The paper's primary contribution: the Triage temporal prefetcher."""

from repro.core.metadata_store import MetadataEntry, MetadataStore
from repro.core.partition import PartitionController, PartitionDecision
from repro.core.training_unit import TrainingUnit
from repro.core.triage import TriageConfig, TriagePrefetcher

__all__ = [
    "MetadataEntry",
    "MetadataStore",
    "PartitionController",
    "PartitionDecision",
    "TrainingUnit",
    "TriageConfig",
    "TriagePrefetcher",
]
