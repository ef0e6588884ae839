"""Output checks, run after the timed region of every unit.

Each check returns a list of failure lines; an empty list is a pass.
They read the program's state through its public read paths and compare
it with an independently rebuilt expectation, so a defect anywhere
between the build pipeline and the storage engines shows as a mismatch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: at least this many samples must lie beyond a reported p99
P99_TAIL_SAMPLES = 10


def expected_dataset(config, rates: Sequence[Optional[float]]):
    """Rebuild the last version's dataset with a fresh seeded pipeline.

    ``rates`` is the bootstrap (ignored) followed by one mutation rate
    per cycle, exactly as the run passed them.
    """
    from repro.indexing.builders import IndexBuildPipeline, PipelineConfig
    from repro.indexing.corpus import SyntheticWebCorpus
    from repro.indexing.vocabulary import ZipfVocabulary

    corpus = SyntheticWebCorpus(
        doc_count=config.doc_count,
        vocabulary=ZipfVocabulary(config.vocabulary_size, seed=config.seed),
        doc_length=config.doc_length,
        mutation_rate=config.mutation_rate,
        seed=config.seed,
    )
    pipeline = IndexBuildPipeline(
        corpus,
        PipelineConfig(
            forward_value_bytes=config.forward_value_bytes,
            summary_value_bytes=config.summary_value_bytes,
        ),
    )
    dataset = pipeline.build_version()
    for rate in rates[1:]:
        dataset = pipeline.advance_and_build(rate)
    return dataset


def check_readback(system, dataset) -> Tuple[List[str], List[float], int]:
    """Read every key of ``dataset`` back through ``MintCluster.query``.

    Summary keys are read only where the topology stores them.  Values
    must be byte-equal and no key of any live version may be
    under-replicated.  Returns the failures, each read's simulated
    service time (the device-clock advance across the key's group) and
    the number of reads that did not return the expected bytes.
    """
    from repro.errors import ReproError
    from repro.indexing.types import IndexKind
    from repro.mint.cluster import storage_key

    failures: List[str] = []
    latencies: List[float] = []
    active = system.versions.active_version
    if active != dataset.version:
        failures.append(
            f"active version is {active}, expected {dataset.version}"
        )
        return failures, latencies, 0
    summary_dcs = {
        dc for dcs in system.topology.summary_dcs.values() for dc in dcs
    }
    mismatches = 0
    for dc, cluster in sorted(system.clusters.items()):
        for kind in IndexKind:
            if kind is IndexKind.SUMMARY and dc not in summary_dcs:
                continue
            for entry in dataset.of_kind(kind):
                nodes = cluster.group_for(storage_key(kind, entry.key)).nodes
                before = [node.engine.device.now for node in nodes]
                try:
                    value = cluster.query(kind, entry.key, dataset.version)
                except ReproError as exc:
                    value = exc
                latencies.append(
                    max(
                        node.engine.device.now - start
                        for node, start in zip(nodes, before)
                    )
                )
                if value != entry.value:
                    mismatches += 1
                    if mismatches <= 3:
                        failures.append(
                            f"{dc} {kind.value} {entry.key!r}@"
                            f"{dataset.version}: read {value!r:.60}"
                        )
    if mismatches > 3:
        failures.append(f"... {mismatches} read-back mismatches in all")
    short = sum(
        len(cluster.under_replicated()) for cluster in system.clusters.values()
    )
    if short:
        failures.append(f"{short} (key, version) pairs are under-replicated")
    return failures, latencies, mismatches


def check_serving(report: Dict[str, object]) -> List[str]:
    """Serving accounting: every request is admitted or shed, and no
    admitted read failed, fleet-wide and in every data center."""
    failures: List[str] = []
    scopes = [("fleet", report["fleet"])] + sorted(report["per_dc"].items())
    for scope, counts in scopes:
        if counts["requests"] != counts["admitted"] + counts["shed"]:
            failures.append(
                f"{scope}: requests {counts['requests']} != admitted "
                f"{counts['admitted']} + shed {counts['shed']}"
            )
        for name in ("not_found", "errors"):
            if counts[name]:
                failures.append(f"{scope}: {counts[name]} reads {name}")
    fleet = report["fleet"]
    for name in ("requests", "admitted", "shed", "not_found", "errors"):
        total = sum(counts[name] for counts in report["per_dc"].values())
        if total != fleet[name]:
            failures.append(
                f"fleet {name} {fleet[name]} != sum over DCs {total}"
            )
    return failures


def check_rebalance(data: Dict[str, object]) -> List[str]:
    """The elastic contract: nothing acknowledged was lost, everything
    is fully replicated, and the grown fleet stores exactly what a
    fleet provisioned at its final shape from the start stores."""
    failures: List[str] = []
    if data["lost_acknowledged_keys"]:
        failures.append(
            f"{data['lost_acknowledged_keys']} acknowledged keys lost"
        )
    if data["under_replicated_final"]:
        failures.append(
            f"{data['under_replicated_final']} keys under-replicated"
        )
    equivalence = data["equivalence"]
    if equivalence["live_digest"] != equivalence["baseline_digest"]:
        failures.append(
            "fleet digest differs from the replayed baseline "
            f"({equivalence['live_digest'][:12]} vs "
            f"{equivalence['baseline_digest'][:12]})"
        )
    return failures


def percentiles(samples: Sequence[float]) -> Tuple[float, float]:
    """(p50, p99) of raw samples; p99 needs enough tail behind it."""
    ordered = sorted(samples)
    count = len(ordered)
    if count < 100 * P99_TAIL_SAMPLES:
        raise ValueError(
            f"{count} samples leave fewer than {P99_TAIL_SAMPLES} "
            "beyond the p99"
        )
    return ordered[count // 2], ordered[int(count * 0.99)]
