#!/usr/bin/env python3
"""Quickstart: build an InfiniCache deployment, PUT and GET real objects.

This walks through the library's core API in a couple of minutes of simulated
time:

1. configure and start a small deployment (one proxy, 20 Lambda cache nodes,
   RS(10+2) erasure coding);
2. PUT a few multi-megabyte objects through the client library — the bytes
   are Reed-Solomon encoded and the chunks spread over distinct Lambda nodes;
3. GET them back (first-d reconstruction) and verify the bytes round-trip;
4. simulate the provider reclaiming some of the functions that hold chunks
   and show that the object still decodes;
5. print what the deployment cost, split into serving / warm-up / backup.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.cache import InfiniCacheConfig, InfiniCacheDeployment
from repro.utils.units import MB, MIB, MINUTE, format_bytes, format_duration


def main() -> None:
    config = InfiniCacheConfig(
        num_proxies=1,
        lambdas_per_proxy=20,
        lambda_memory_bytes=1536 * MIB,   # 1.5 GB functions: one per VM host
        data_shards=10,
        parity_shards=2,                  # tolerate up to 2 lost chunks
        backup_interval_s=5 * MINUTE,     # warm-ups run every minute
    )
    deployment = InfiniCacheDeployment(config)
    deployment.start()
    client = deployment.new_client()

    print("== InfiniCache quickstart ==")
    print(f"pool: {config.total_lambda_nodes} Lambda nodes, "
          f"{format_bytes(deployment.pool_capacity_bytes())} usable cache capacity")
    print(f"erasure code: RS({config.data_shards}+{config.parity_shards})\n")

    # --- PUT a few objects -----------------------------------------------------
    objects = {
        f"images/layer-{index}": bytes((index * 31 + i) % 256 for i in range(4 * MB))
        for index in range(3)
    }
    for key, payload in objects.items():
        result = client.put(key, payload)
        print(f"PUT {key}: {format_bytes(len(payload))} -> "
              f"{len(result.node_ids)} chunks on {result.hosts_touched} VM hosts, "
              f"{format_duration(result.latency_s)}")

    # --- GET them back ----------------------------------------------------------
    print()
    for key, payload in objects.items():
        result = client.get(key)
        assert result.hit and result.value == payload, "round-trip must be exact"
        print(f"GET {key}: hit in {format_duration(result.latency_s)} "
              f"(decoded={result.decoded})")

    # --- survive function reclamation -------------------------------------------
    print("\nReclaiming 2 of the Lambda nodes that hold 'images/layer-0' ...")
    victim_key = "images/layer-0"
    placement = client.put(victim_key, objects[victim_key]).node_ids
    for node_id in placement[: config.parity_shards]:
        node = deployment.proxies[0].node(node_id)
        deployment.platform.reclaim_instance(node.primary)
    result = client.get(victim_key)
    assert result.hit and result.value == objects[victim_key]
    print(f"GET {victim_key}: still a hit ({result.chunks_lost} chunks lost, "
          f"reconstructed from the surviving {config.data_shards}; "
          f"repair re-inserted the missing chunks: {result.recovery_performed})")

    # --- run some simulated time and look at the bill ----------------------------
    deployment.run_until(30 * MINUTE)
    deployment.stop()
    print("\nCost after 30 simulated minutes:")
    for category, dollars in deployment.cost_breakdown().items():
        print(f"  {category:>8}: ${dollars:.6f}")
    print("\n(An always-on cache.r5.24xlarge ElastiCache instance would have "
          "cost $10.37 for the same hour.)")


if __name__ == "__main__":
    main()
