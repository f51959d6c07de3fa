"""Tests for the event-driven replay drivers (closed-loop and open-loop).

Covers the PR's acceptance criteria: closed-loop aggregate throughput rises
monotonically with the client count on the Figure 12 workload, a 2-client
run shows genuinely overlapping chunk-transfer intervals in the event trace
(which the sequential facade cannot produce), and seeds-fixed runs are
bit-for-bit deterministic.
"""

from __future__ import annotations

import pytest

from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.experiments import figure12
from repro.utils.units import MB, MIB
from repro.workload import ClosedLoopDriver, OpenLoopDriver, Trace, TraceRecord


def small_deployment(seed: int = 77, straggler_probability: float = 0.0) -> InfiniCacheDeployment:
    return InfiniCacheDeployment(InfiniCacheConfig(
        num_proxies=2,
        lambdas_per_proxy=8,
        lambda_memory_bytes=512 * MIB,
        data_shards=4,
        parity_shards=2,
        backup_enabled=False,
        straggler=StragglerModel(probability=straggler_probability),
        seed=seed,
    ))


def seeded_plans(deployment: InfiniCacheDeployment, clients: int, requests: int,
                 objects: int = 4, size: int = 8 * MB):
    seeder = deployment.new_client("seeder")
    for index in range(clients):
        for obj in range(objects):
            seeder.put_sized(f"c{index}/obj-{obj}", size)
    return [
        [(f"c{index}/obj-{r % objects}", size) for r in range(requests)]
        for index in range(clients)
    ]


class TestClosedLoopDriver:
    def test_all_hits_and_request_accounting(self):
        deployment = small_deployment()
        report = ClosedLoopDriver(deployment).run(seeded_plans(deployment, 2, 5))
        assert report.mode == "closed-loop"
        assert report.clients == 2
        assert report.requests == 10
        assert report.hits == 10 and report.misses == 0
        assert report.hit_ratio == 1.0
        assert report.total_bytes == 10 * 8 * MB
        assert report.duration_s > 0
        assert report.total_cost > 0

    def test_two_clients_overlap_chunk_transfers(self):
        """Acceptance: overlapping transfer intervals, from the event trace."""
        deployment = small_deployment()
        report = ClosedLoopDriver(deployment).run(seeded_plans(deployment, 2, 4))
        assert report.overlapping_flow_pairs() > 0
        # Transfers of *different clients'* requests genuinely share the wire.
        by_client = {
            prefix: [i for i in report.flow_intervals if f":{prefix}/" in i.label]
            for prefix in ("c0", "c1")
        }
        assert by_client["c0"] and by_client["c1"]
        assert any(
            a.overlaps(b) for a in by_client["c0"] for b in by_client["c1"]
        )
        # More than one chunk in flight at once (d+p per request, 2 clients).
        assert report.max_concurrent_flows() > 6

    def test_sequential_facade_produces_no_flow_intervals(self):
        """The synchronous path cannot produce overlap evidence at all."""
        deployment = small_deployment()
        client = deployment.new_client("sync")
        client.put_sized("obj", 8 * MB)
        assert client.get("obj").hit
        assert deployment.flows.trace == []

    def test_releasing_a_report_leaves_the_network_trace(self):
        """The report holds the network's store itself (copy-on-write):
        dropping it from the report drops nothing from the network."""
        deployment = small_deployment()
        report = ClosedLoopDriver(deployment).run(seeded_plans(deployment, 2, 4))
        trace = deployment.flows.trace
        count = len(report.flow_intervals)
        report.release_flow_intervals()
        assert len(report.flow_intervals) == 0 and report.flow_intervals_dropped == count
        assert count > 0 and deployment.flows.trace == trace and len(trace) == count

    def test_a_second_run_gets_only_its_own_flow_intervals(self):
        deployment = small_deployment()
        driver = ClosedLoopDriver(deployment)
        plans = seeded_plans(deployment, 2, 4)
        first = driver.run(plans)
        kept, fingerprint = list(first.flow_intervals), first.fingerprint()
        second = driver.run(plans)
        # The second run appended to a copy of the store the first report holds.
        assert list(first.flow_intervals) == kept and first.fingerprint() == fingerprint
        assert second.flow_intervals_dropped == 0 and len(second.flow_intervals) > 0
        assert list(second.flow_intervals) == deployment.flows.trace[len(kept):]
        assert list(first.flow_intervals) == deployment.flows.trace[:len(kept)]

    def test_seeds_fixed_runs_are_deterministic(self):
        def run(seed: int) -> str:
            deployment = small_deployment(seed=seed, straggler_probability=0.1)
            report = ClosedLoopDriver(deployment).run(seeded_plans(deployment, 4, 5))
            return report.fingerprint()

        assert run(123) == run(123)
        assert run(123) != run(321)

    def test_straggler_fetches_are_abandoned_with_partial_billing(self):
        deployment = small_deployment(seed=5, straggler_probability=0.5)
        report = ClosedLoopDriver(deployment).run(seeded_plans(deployment, 2, 6))
        abandoned = [i for i in report.flow_intervals if not i.completed]
        assert abandoned, "first-d abandonment should cancel straggler fetches"
        assert any(i.bytes_moved < i.size_bytes for i in abandoned)

    def test_reset_path_reinserts_through_backing_store(self):
        deployment = small_deployment()
        plans = [[("never-put", 4 * MB), ("never-put", 4 * MB)]]
        report = ClosedLoopDriver(deployment).run(plans)
        # First GET is a compulsory miss (insert-on-miss), second one hits.
        assert report.misses == 1
        assert report.hits == 1
        assert report.resets == 0

    def test_concurrent_billing_stays_physical(self, record_charges):
        """Overlapping requests must not bill more node-seconds than exist.

        Regression for two event-path billing defects: per-chunk service
        times summing past a session's wall-clock span, and the session
        watchdog closing a window mid-transfer so the completing flow
        reopened an overlapping session anchored in the past.
        """
        deployment = small_deployment(seed=11)
        nodes = [node for proxy in deployment.proxies for node in proxy.nodes]
        charges = {node.node_id: record_charges(node.duration_controller) for node in nodes}
        report = ClosedLoopDriver(deployment).run(
            seeded_plans(deployment, 4, 20, objects=4, size=16 * MB)
        )
        billed = sum(
            sum(charge.billed_duration_s for charge in charges[node.node_id])
            for node in nodes
        )
        # +1s slack: each session's billed window may overrun the last
        # request sample by up to a billing cycle per node.
        assert billed <= report.finished_at * len(nodes) + 1.0
        for node in nodes:
            sessions = sorted(charges[node.node_id], key=lambda s: s.started_at)
            for earlier, later in zip(sessions, sessions[1:]):
                # duration_s, not billed_duration_s: the billed value is
                # cycle-rounded upward, so only the physical window must
                # not overlap the next session.
                assert (
                    earlier.started_at + earlier.duration_s
                    <= later.started_at + 1e-9
                ), f"node {node.node_id} billed two overlapping sessions"

    def test_rejects_empty_client_list(self):
        from repro.exceptions import WorkloadError

        with pytest.raises(WorkloadError):
            ClosedLoopDriver(small_deployment()).run([])


class TestClosedLoopMatchesSequentialFacade:
    """One request at a time: what the deleted synchronous replayer pinned."""

    def test_single_client_accounting_equals_open_loop_and_dict_model(self):
        """With no concurrency both drivers degenerate to a dict model.

        One closed-loop client, and an open loop whose arrivals are a
        second apart (wider than any request), each have one request in
        flight at a time, so their request/hit/miss/RESET *counts* must
        equal a cache that misses on first touch and hits ever after.
        """
        keys = [f"smoke-{index % 3}" for index in range(9)]
        size = 6 * MB

        cached: set[str] = set()
        model_hits = 0
        for key in keys:
            model_hits += key in cached
            cached.add(key)

        closed = ClosedLoopDriver(small_deployment(seed=99)).run(
            [[(key, size) for key in keys]]
        )
        opened = OpenLoopDriver(small_deployment(seed=99)).run(
            Trace(
                [TraceRecord(timestamp=float(i), operation="GET", key=key, size=size)
                 for i, key in enumerate(keys)],
                name="smoke",
            )
        )
        for report in (closed, opened):
            assert report.requests == len(keys)
            assert report.hits == model_hits == 6
            assert report.misses == len(keys) - model_hits
            assert report.resets == 0
            assert report.hit_ratio == model_hits / len(keys)
            assert len(report.latencies) == len(keys)
            assert not any(
                a.overlaps(b) for a, b in zip(report.samples, report.samples[1:])
            )

    def test_scripted_ops_re_place_objects(self):
        """PUT/INVALIDATE/SLEEP ops drive the Figure 4-style rounds."""
        from repro.workload import ClientOp

        deployment = small_deployment()
        plan = []
        for _round in range(3):
            plan.append(ClientOp("SLEEP", delay_s=1.0))
            plan.append(ClientOp("INVALIDATE", key="obj"))
            plan.append(ClientOp("PUT", key="obj", size=8 * MB))
            plan.append(ClientOp("GET", key="obj", size=8 * MB))
        report = ClosedLoopDriver(deployment).run([plan])
        assert report.requests == 3
        assert report.hits == 3
        # Rounds are spaced by the SLEEP ops on the virtual clock.
        starts = sorted(s.started_at for s in report.samples)
        assert starts[1] - starts[0] >= 1.0
        # Hit samples carry the Figure 4 x-axis.
        assert all(s.hosts_touched > 0 for s in report.hit_samples())


class TestOpenLoopDriver:
    def make_trace(self, gets: int = 8, spacing_s: float = 0.002) -> Trace:
        trace = Trace(name="open-loop-toy")
        t = 0.0
        for index in range(3):
            trace.append(TraceRecord(timestamp=t, operation="PUT",
                                     key=f"k-{index}", size=6 * MB))
            t += 0.05
        for index in range(gets):
            trace.append(TraceRecord(timestamp=t, operation="GET",
                                     key=f"k-{index % 3}", size=6 * MB))
            t += spacing_s
        return trace

    def test_arrivals_inject_at_their_timestamps(self):
        deployment = small_deployment()
        report = OpenLoopDriver(deployment).run(self.make_trace())
        assert report.mode == "open-loop"
        assert report.requests == 8
        assert report.hit_ratio == 1.0
        starts = sorted(sample.started_at for sample in report.samples)
        assert starts[0] == pytest.approx(0.15)
        assert starts[1] - starts[0] == pytest.approx(0.002)

    def test_slow_requests_overlap_later_arrivals(self):
        """Open loop: offered load follows the trace, not request completion."""
        deployment = small_deployment()
        report = OpenLoopDriver(deployment).run(self.make_trace(spacing_s=0.001))
        samples = sorted(report.samples, key=lambda s: s.started_at)
        assert any(a.overlaps(b) for a, b in zip(samples, samples[1:]))
        assert report.max_concurrent_flows() > 6

    def test_zero_length_trace_rejected(self):
        from repro.exceptions import WorkloadError

        with pytest.raises(WorkloadError):
            OpenLoopDriver(small_deployment()).run(Trace(name="empty"))

    def test_replay_on_an_advanced_clock_is_rejected_before_anything_starts(self):
        """A second open-loop replay on a used deployment used to die inside
        the arrival injection with a ``SimulationError``, after the
        deployment had been restarted and part of the arrivals scheduled."""
        from repro.exceptions import WorkloadError
        from repro.workload import ConcurrentReplayReport

        deployment = small_deployment()
        driver = OpenLoopDriver(deployment)
        trace = self.make_trace()
        driver.run(trace)
        loop = deployment.simulator
        assert loop.now > trace.records[0].timestamp
        before = (len(loop.queue), loop.events_processed, driver.backing_store.put_count)

        with pytest.raises(WorkloadError, match=r"first arrival is at t=0\.0.*clock") as error:
            driver.run(trace)
        assert str(loop.now) in str(error.value)
        with pytest.raises(WorkloadError, match="first arrival"):
            driver.run_schedule(
                [(0.0, "late", lambda: iter(()))],
                ConcurrentReplayReport(system="x", mode="open-loop", clients=1),
            )
        assert before == (
            len(loop.queue), loop.events_processed, driver.backing_store.put_count
        )

        # Arrivals at or after the clock still replay on the same deployment.
        later = Trace([
            TraceRecord(timestamp=loop.now + 1.0, operation="GET", key="k-0", size=6 * MB)
        ])
        assert driver.run(later).requests == 1

    def test_duplicate_arrival_timestamps_all_injected(self):
        """Several records at the same instant all run, in append order."""
        trace = Trace(name="dup")
        trace.append(TraceRecord(timestamp=0.0, operation="PUT", key="a", size=4 * MB))
        trace.append(TraceRecord(timestamp=0.0, operation="PUT", key="b", size=4 * MB))
        for _round in range(2):
            trace.append(TraceRecord(timestamp=0.5, operation="GET", key="a", size=4 * MB))
            trace.append(TraceRecord(timestamp=0.5, operation="GET", key="b", size=4 * MB))
        deployment = small_deployment()
        report = OpenLoopDriver(deployment).run(trace)
        assert report.requests == 4
        assert report.hits == 4
        assert all(s.started_at == pytest.approx(0.5) for s in report.samples)
        # All four requests were genuinely concurrent.
        assert report.max_concurrent_flows() > 6
        # Injection order is deterministic: fingerprints match across runs.
        second = OpenLoopDriver(small_deployment()).run(trace)
        assert report.fingerprint() == second.fingerprint()

    def test_straggler_abandonment_lands_on_the_final_winning_chunk(self):
        """An abandoned straggler is cancelled at the exact instant its
        request's d-th (final winning) chunk completes — never earlier,
        never later — and is billed only its partial bytes."""
        deployment = small_deployment(seed=5, straggler_probability=0.5)
        seeder = deployment.new_client("seeder")
        for obj in range(4):
            seeder.put_sized(f"ab/obj-{obj}", 8 * MB)
        trace = Trace(name="abandon")
        for index in range(12):
            trace.append(TraceRecord(
                timestamp=0.01 * index, operation="GET",
                key=f"ab/obj-{index % 4}", size=8 * MB,
            ))
        report = OpenLoopDriver(deployment).run(trace)
        abandoned = [i for i in report.flow_intervals if not i.completed]
        completed = [i for i in report.flow_intervals if i.completed]
        assert abandoned, "straggler probability 0.5 should force abandonments"
        for interval in abandoned:
            key = interval.label.split(":", 1)[1].rsplit("#", 1)[0]
            quorum_resolutions = [
                c for c in completed
                if key in c.label and c.ended_at == interval.ended_at
            ]
            assert quorum_resolutions, (
                f"abandoned {interval.label} did not end at a same-request "
                "chunk completion"
            )
            # A straggler cancelled exactly as it finished may have moved
            # all its bytes; it must never have moved more.
            assert interval.bytes_moved <= interval.size_bytes
        assert any(i.bytes_moved < i.size_bytes for i in abandoned)


class TestSeedFleet:
    """``seed_fleet`` replaced five hand-written seed-then-plan blocks; the
    keys each of them spelled out are repeated here literally."""

    FORMER_COPIES = {
        "sim-smoke": ("smoke", 3, 4, lambda i, obj: f"smoke/{i}/obj-{obj}"),
        "trace": ("trace", 3, 4, lambda i, obj: f"trace/{i}/obj-{obj}"),
        "perf.macro_closed_loop": ("perf", 3, 2, lambda i, obj: f"perf/{i}/obj-{obj}"),
        "perf.profile_closed_loop": ("perf", 3, 2, lambda i, obj: f"perf/{i}/obj-{obj}"),
        "figure12": ("fig12/3", 3, 4, lambda i, obj: f"fig12/3/{i}/obj-{obj}"),
    }

    @pytest.mark.parametrize("copy", sorted(FORMER_COPIES))
    def test_reproduces_the_former_key_layout(self, copy):
        from repro.workload import seed_fleet

        prefix, clients, objects, key_of = self.FORMER_COPIES[copy]
        requests, size = 5, 4 * MB
        deployment = small_deployment()
        plans = seed_fleet(deployment, prefix, clients, objects, size, requests)
        assert plans == [
            [(key_of(index, r % objects), size) for r in range(requests)]
            for index in range(clients)
        ]
        stored = sorted(key for proxy in deployment.proxies for key in proxy.object_keys())
        assert stored == sorted(
            key_of(index, obj) for index in range(clients) for obj in range(objects)
        )
        # Seeding goes through the synchronous API: the clock has not moved.
        assert deployment.simulator.now == 0.0
        report = ClosedLoopDriver(deployment).run(plans)
        assert report.hits == report.requests == clients * requests


class TestFigure12ConcurrentScaling:
    def test_throughput_monotone_from_1_to_8_clients(self, monkeypatch):
        """Acceptance: closed-loop throughput rises monotonically 1 -> 8."""
        monkeypatch.setattr(figure12, "STRAGGLER_PROBABILITY", 0.0)
        result = figure12.run(client_counts=(1, 2, 4, 8), requests_per_client=6)
        ordered = [result.throughput_bps[c] for c in (1, 2, 4, 8)]
        assert all(later > earlier for earlier, later in zip(ordered, ordered[1:]))
        # Peak concurrency grows with the client count (12 chunks per GET).
        assert result.reports[8].max_concurrent_flows() > result.reports[1].max_concurrent_flows()

    def test_two_client_run_reports_overlap_evidence(self, monkeypatch):
        monkeypatch.setattr(figure12, "STRAGGLER_PROBABILITY", 0.0)
        result = figure12.run(client_counts=(2,), requests_per_client=4)
        report = result.reports[2]
        assert report.overlapping_flow_pairs() > 0
        assert "peak concurrent chunk flows" in figure12.format_report(result)
