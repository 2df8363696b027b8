#!/usr/bin/env python3
"""Validate an `erasmus-perfbench/v10` fleet report.

Usage:
    validate_perfbench.py REPORT.json [--lossless] [--recovered]
                          [--expect-seed N] [--expect-loss P]
                          [--expect-crashes N] [--expect-ring-capacity N]

Checks the structural invariants every v10 document must satisfy (rates
positive, per-thread sums consistent, delivered + dropped == attempted,
the reliability ledger conserved — `unique_accepted + exhausted_retries +
churn_losses + stale_retries == attempted`, the retry histogram summing
to the deliveries, hub dedup drops equal to injected duplicates — hub
ingestion conserved through frame losses, non-negative on-demand latency
percentiles, lane fields well-formed, wire accounting conserved, scaling
sweep well-formed). With `--lossless` it additionally requires a perfect
delivery record with zero retransmissions and fault counters; with
`--recovered` it requires that faults actually fired (retransmissions,
duplicates) and that the ARQ recovered every attempt anyway; with
`--expect-loss` it requires that the lossy network actually dropped
something; with `--expect-crashes` it pins the per-shard hub
crash/restore cycle count and requires snapshot bytes.

Every cohort instant lane-batches its due devices (8-wide groups, one
4-wide group, scalar for the rest), so a shard holding at least four
devices per stagger group must report multi-lane jobs, and the scalar
remainder can never exceed the measurement total.

The `events` block (cohort coalescing ledger, event-pool high-water,
calendar-queue counters) must conserve: `coalesced + singleton ==
scheduled`, and every queue push must eventually pop.

Verifier history is a per-device ring of `ring_capacity` entries: the
per-result `history` block's retention ledger must conserve
(`evictions + resident == entries`), its hash chains must all verify
(`chains_verified == devices_tracked`), and — the point of the ring — its
resident state must stay memory-bounded: `resident <= devices_tracked *
ring_capacity`. The per-result `aggregation` block (hierarchical swarm
rollup over the hub) must cover every tracked device exactly once:
`leaves == devices_tracked`, `root_entries == history_entries`, and a
64-hex-char root digest whenever any device is tracked.
`--expect-ring-capacity` pins the window size.

v9 dropped the top-level `delivery`, `scheduler` and `history` fields,
the per-result `delivery` and `scheduler` fields and `history.mode`: the
fleet runtime has one path (wire delivery, calendar queue, ring history).
v10 dropped the top-level and per-result `lanes` fields and the per-result
scalar-vs-lane probe: the lane width follows the cohort size.
"""

import argparse
import json
import sys


def validate(
    path: str,
    lossless: bool,
    recovered: bool,
    expect_seed,
    expect_loss,
    expect_crashes,
    expect_ring_capacity,
) -> None:
    with open(path) as fh:
        doc = json.load(fh)

    assert doc["schema"] == "erasmus-perfbench/v10", doc["schema"]
    assert doc["provers"] >= 1000, doc["provers"]
    assert doc["threads"] >= 2, doc["threads"]
    assert doc["ring_capacity"] >= 1, doc["ring_capacity"]
    if expect_ring_capacity is not None:
        assert doc["ring_capacity"] == expect_ring_capacity, (
            doc["ring_capacity"],
            expect_ring_capacity,
        )
    assert isinstance(doc["seed"], int), doc["seed"]
    if expect_seed is not None:
        assert doc["seed"] == expect_seed, (doc["seed"], expect_seed)

    for result in doc["results"]:
        # Non-positive rates mean the sub-resolution clamp regressed.
        assert result["measurements_per_sec"] > 0, result
        assert result["verifications_per_sec"] > 0, result
        assert result["all_healthy"], result
        # A device whose every collection was dropped never reaches the hub,
        # so only a lossless run is guaranteed full coverage.
        assert result["devices_tracked"] <= result["provers"], result
        if lossless:
            assert result["devices_tracked"] == result["provers"], result
        assert result["seed"] == doc["seed"], result

        # Compact-history ledger. Lifetime entries are conserved across
        # eviction (`evictions + resident == entries`), every device's hash
        # chain must re-verify after the merge, and the resident footprint
        # is the bounded-memory claim itself: at most `ring_capacity`
        # entries per tracked device.
        history = result["history"]
        assert history["ring_capacity"] == doc["ring_capacity"], history
        assert (
            history["evictions"] + history["resident"] == result["history_entries"]
        ), (history, result["history_entries"])
        assert history["chains_verified"] == result["devices_tracked"], (
            history,
            result["devices_tracked"],
        )
        if result["devices_tracked"] > 0:
            assert history["resident_state_bytes"] > 0, history
        assert (
            history["resident"] <= result["devices_tracked"] * history["ring_capacity"]
        ), ("ring resident state exceeds devices * capacity", history)
        # Coarse absolute ceiling so resident_state_bytes cannot grow with
        # the entry count: fixed per-device state plus the window.
        assert history["resident_state_bytes"] <= result["devices_tracked"] * (
            1024 + 64 * history["ring_capacity"]
        ), history
        if lossless:
            # In-order delivery never discards a stale (pre-window) entry.
            assert history["stale_discards"] == 0, history

        # Aggregation tree: the hierarchical rollup must cover every
        # tracked device exactly once — leaves match the hub, the root
        # totals match the flat history ledger, and the root digest is a
        # real 32-byte value whenever anything was aggregated.
        aggregation = result["aggregation"]
        assert aggregation["fanout"] >= 2, aggregation
        assert aggregation["leaves"] == result["devices_tracked"], (
            aggregation,
            result["devices_tracked"],
        )
        assert aggregation["root_entries"] == result["history_entries"], (
            aggregation,
            result["history_entries"],
        )
        assert aggregation["healthy_devices"] == result["devices_tracked"], aggregation
        if result["devices_tracked"] > 0:
            assert aggregation["nodes"] > aggregation["leaves"] or (
                aggregation["leaves"] == 1 and aggregation["nodes"] >= 1
            ), aggregation
            assert aggregation["depth"] >= 1, aggregation
            assert len(aggregation["root_digest"]) == 64, aggregation
            assert all(
                c in "0123456789abcdef" for c in aggregation["root_digest"]
            ), aggregation

        # Event-runtime ledger. Insertion-time coalescing means one
        # queue slot may deliver many same-instant measurements; the ledger
        # must conserve, and — because the queue drains dry before a shard
        # reports — every push must eventually pop. The pool high-water is
        # the leak guard: it tracks in-flight responses, never run length.
        events = result["events"]
        assert (
            events["coalesced"] + events["singleton"] == events["scheduled"]
        ), events
        assert events["scheduled"] <= result["measurements_total"], (
            events,
            result["measurements_total"],
        )
        assert events["queue_pushes"] == events["queue_pops"], events
        assert events["queue_max_pending"] >= 1, events
        assert events["pool_high_water"] >= 1, events
        assert events["queue_overflow_pushes"] <= events["queue_pushes"], events
        assert events["queue_buckets"] > 0, events
        assert events["queue_bucket_width_nanos"] > 0, events
        if result["provers"] > result["stagger_groups"]:
            assert events["coalesced"] > 0, (
                "devices share stagger offsets but nothing coalesced",
                events,
            )

        network = result["network"]
        for knob in ("loss", "duplicate", "reorder", "corrupt"):
            assert 0.0 <= network[knob] <= 1.0, (knob, network)
        assert network["latency_ms"] >= 0 and network["jitter_ms"] >= 0, network
        if expect_loss is not None:
            assert network["loss"] == expect_loss, (network, expect_loss)

        collections = result["collections"]
        attempted = collections["attempted"]
        delivered = collections["delivered"]
        dropped = collections["dropped"]
        assert delivered + dropped == attempted, collections
        assert result["hub_batches"] >= 1, result
        assert 1 <= result["largest_batch"] <= delivered, result
        if lossless:
            assert dropped == 0, collections
            assert result["history_entries"] == result["measurements_total"], result
        if expect_loss:
            assert dropped > 0, "lossy run dropped nothing — loss knob broken?"

        # Reliability ledger. Every scheduled collection attempt must be
        # accounted for exactly once: delivered (after 0..retries ARQ
        # rounds), exhausted past the budget, lost to an absent device, or
        # discarded as a stale retry after a churn transition.
        reliability = result["reliability"]
        collect = reliability["collect"]
        frame = reliability["frame"]
        hub = reliability["hub"]
        retries = reliability["retries"]
        assert retries >= 0, reliability
        assert collect["attempted"] == attempted, (collect, collections)
        assert collect["unique_accepted"] == delivered, (collect, collections)
        assert (
            collect["unique_accepted"]
            + collect["exhausted_retries"]
            + collect["churn_losses"]
            + collect["stale_retries"]
            == attempted
        ), collect
        assert (
            dropped
            == collect["exhausted_retries"]
            + collect["churn_losses"]
            + collect["stale_retries"]
        ), (collect, collections)
        histogram = collect["retry_histogram"]
        assert len(histogram) == retries + 1, (histogram, retries)
        assert all(bucket >= 0 for bucket in histogram), histogram
        assert sum(histogram) == collect["unique_accepted"], (histogram, collect)
        # Exactly-once at the hub: every duplicate the network injected on
        # the frame link was dropped by the dedup window, no more, no less.
        assert hub["duplicates_dropped"] == frame["duplicates_injected"], (hub, frame)
        assert hub["crashes"] >= 0 and hub["snapshot_bytes"] >= 0, hub
        if hub["crashes"] > 0:
            assert hub["snapshot_bytes"] > 0, hub
        if frame["exhausted"] > 0:
            # Every exhausted frame carried at least one response record.
            assert frame["lost_responses"] >= frame["exhausted"], frame
        else:
            assert frame["lost_responses"] == 0, frame
        # Hub ingestion conserved through frame losses: responses the frame
        # hop lost for good never reach a history, everything else does.
        od_done = result["on_demand"]["completed"]
        assert (
            result["collections_ingested"]
            == delivered - frame["lost_responses"] + od_done
        ), (result["collections_ingested"], delivered, frame, od_done)
        if lossless:
            for counter in (
                collect["retransmits"],
                collect["exhausted_retries"],
                collect["stale_retries"],
                collect["reorders"],
                frame["retransmits"],
                frame["duplicates_injected"],
                frame["corrupt_decode"],
                frame["corrupt_tamper"],
                frame["exhausted"],
                hub["duplicates_dropped"],
            ):
                assert counter == 0, reliability
        if recovered:
            assert collect["retransmits"] > 0, "faulty run never retransmitted"
            assert frame["duplicates_injected"] > 0, "faulty run injected no duplicate"
            assert collect["unique_accepted"] == attempted, (
                "ARQ failed to recover every report",
                collect,
            )
            assert collect["exhausted_retries"] == 0, collect
            assert frame["exhausted"] == 0, frame
        if expect_crashes is not None:
            assert hub["crashes"] == expect_crashes * result["threads"], (
                hub,
                expect_crashes,
                result["threads"],
            )
            if expect_crashes > 0:
                assert hub["snapshot_bytes"] > 0, hub

        # Wire accounting. Every periodic collection crosses the wire as
        # part of an encoded frame and on-demand reports fold in verified
        # at arrival, so frame-decoded accepts plus on-demand completions
        # must conserve the hub's ingestion total exactly.
        wire = result["wire"]
        for key in ("frames", "bytes", "responses", "decoded_accepted", "decode_rejects"):
            assert wire[key] >= 0, (key, wire)
        assert wire["encode_wall_secs"] >= 0, wire
        assert wire["ingest_wall_secs"] >= 0, wire
        assert wire["decode_mib_per_sec"] >= 0, wire
        od_completed = result["on_demand"]["completed"]
        assert wire["frames"] >= 1, "run encoded no frame"
        assert wire["bytes"] > 0, wire
        assert wire["responses"] == delivered, (wire, collections)
        assert (
            wire["decoded_accepted"] + od_completed == result["collections_ingested"]
        ), (wire, result["collections_ingested"], od_completed)
        assert wire["decode_rejects"] == 0, wire
        assert wire["decode_mib_per_sec"] > 0, wire
        if lossless and od_completed == 0:
            assert wire["decoded_accepted"] == result["collections_ingested"], (
                wire,
                result["collections_ingested"],
            )

        assert result["lane_jobs"] >= 0 and result["lane_remainder"] >= 0, result
        assert result["lane_remainder"] <= result["measurements_total"], result

        on_demand = result["on_demand"]
        assert on_demand["completed"] <= on_demand["attempted"], on_demand
        for key in ("latency_ms_p50", "latency_ms_p90", "latency_ms_p99"):
            assert on_demand[key] >= 0, on_demand
        assert on_demand["latency_ms_p50"] <= on_demand["latency_ms_p99"], on_demand

        shards = result["per_thread"]
        assert len(shards) == result["threads"], result
        assert sum(s["measurements"] for s in shards) == result["measurements_total"]
        assert sum(s["provers"] for s in shards) == result["provers"]
        assert sum(s["collections_attempted"] for s in shards) == attempted
        assert sum(s["collections_delivered"] for s in shards) == delivered
        assert sum(s["wire_frames"] for s in shards) == wire["frames"], result
        assert sum(s["wire_bytes"] for s in shards) == wire["bytes"], result
        assert sum(s["wire_accepted"] for s in shards) == wire["decoded_accepted"], result
        assert sum(s["lane_jobs"] for s in shards) == result["lane_jobs"], result
        assert sum(s["events_scheduled"] for s in shards) == events["scheduled"], result
        assert sum(s["singleton_events"] for s in shards) == events["singleton"], result
        assert sum(s["coalesced_events"] for s in shards) == events["coalesced"], result
        assert (
            sum(s["event_pool_high_water"] for s in shards) == events["pool_high_water"]
        ), result
        assert sum(s["queue_pushes"] for s in shards) == events["queue_pushes"], result
        assert sum(s["queue_pops"] for s in shards) == events["queue_pops"], result
        assert (
            max(s["queue_max_pending"] for s in shards) == events["queue_max_pending"]
        ), result
        for shard in shards:
            assert (
                shard["coalesced_events"] + shard["singleton_events"]
                == shard["events_scheduled"]
            ), shard
            assert shard["queue_pushes"] == shard["queue_pops"], shard
            # Shards own contiguous device ranges and stagger groups are
            # round-robin, so a shard with at least 4 devices per group has
            # cohorts of at least 4 — each fires a multi-lane job. (A
            # fleet-wide `provers / stagger_groups >= 4` is not enough: at
            # high thread counts every shard's cohorts can be smaller.)
            if shard["provers"] >= 4 * result["stagger_groups"]:
                assert shard["lane_jobs"] > 0, ("no multi-lane job ran", shard)
        assert all(s["all_healthy"] for s in shards), result

    scaling = doc["scaling"]
    assert scaling, "scaling sweep missing"
    assert scaling[0]["threads"] == 1, scaling
    assert scaling[-1]["threads"] == doc["threads"], scaling
    for point in scaling:
        assert point["measurements_per_sec"] > 0, point
        assert point["verifications_per_sec"] > 0, point
        assert point["speedup"] > 0, point

    print(
        f"ok: {path}: {len(doc['results'])} algorithms, {doc['provers']} provers, "
        f"{doc['threads']} threads, "
        f"ring({doc['ring_capacity']}) history, seed {doc['seed']}, "
        f"{len(scaling)} scaling points"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report")
    parser.add_argument("--lossless", action="store_true")
    parser.add_argument("--recovered", action="store_true")
    parser.add_argument("--expect-seed", type=int, default=None)
    parser.add_argument("--expect-loss", type=float, default=None)
    parser.add_argument("--expect-crashes", type=int, default=None)
    parser.add_argument("--expect-ring-capacity", type=int, default=None)
    args = parser.parse_args()
    validate(
        args.report,
        args.lossless,
        args.recovered,
        args.expect_seed,
        args.expect_loss,
        args.expect_crashes,
        args.expect_ring_capacity,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
