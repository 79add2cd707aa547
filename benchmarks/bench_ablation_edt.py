"""Ablation: EDT compression versus tester vector memory.

The paper leans on EDT ("the observed pattern count can be loaded into the
ATE vector memory without truncation [only] using this technique").  This
benchmark takes the transition pattern set of the simple-CPF experiment,
encodes it through the EDT decompressor for several external channel counts,
and reports compression ratio, encode success and vector-memory footprint.
"""

from __future__ import annotations

import pytest

from repro.api import TestSession
from repro.core import edt_ablation


@pytest.mark.benchmark(group="ablation-edt")
def test_ablation_edt_compression(benchmark, prepared_soc, atpg_options):
    session = TestSession.from_prepared(prepared_soc, options=atpg_options)
    session.run_scenario("table1-c")
    result_c = session.result_of("table1-c")
    rows = benchmark.pedantic(
        edt_ablation,
        args=(prepared_soc, result_c.patterns),
        kwargs={"channel_counts": (1, 2, 4)},
        iterations=1,
        rounds=1,
    )
    print()
    print("Ablation: EDT compression of the simple-CPF transition pattern set")
    uncompressed = rows[0]["uncompressed_megabits"]
    print(f"  uncompressed vector memory: {uncompressed * 1000:.1f} kbit")
    for row in rows:
        print(
            f"  channels={row['channels']}: ratio={row['compression_ratio']:.1f}x  "
            f"encoded={row['encoded_patterns']}/{row['encoded_patterns'] + row['encoding_conflicts']}  "
            f"memory={row['vector_memory_megabits'] * 1000:.1f} kbit"
        )
    # Compression shrinks the footprint and most patterns remain encodable.
    for row in rows:
        assert row["vector_memory_megabits"] <= uncompressed + 1e-9
        total = row["encoded_patterns"] + row["encoding_conflicts"]
        if total and row["channels"] >= 2:
            assert row["encoded_patterns"] >= 0.5 * total
    ratios = [row["compression_ratio"] for row in rows]
    assert ratios == sorted(ratios, reverse=True)
