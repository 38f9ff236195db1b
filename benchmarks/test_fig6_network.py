"""Figure 6(a): sentinel uses a remote source (caching path 1).

Regenerates both the Read and Write panels: Process(-with-control),
Thread, DLL(-only) and the direct-access baseline, per block size, and
asserts that every point costs time and that the paper's claims hold.
"""


def test_fig6a_shape(benchmark):
    """The whole panel, with the paper's ordering asserted."""
    from repro.afsim.figure6 import check_claims, run_panel

    def panel():
        return {op: run_panel("a", op, calls=150) for op in ("read", "write")}

    series = benchmark.pedantic(panel, rounds=1, iterations=1)
    for op in ("read", "write"):
        assert all(result.per_op_us > 0 for points in series[op].values()
                   for result in points.values())
        assert check_claims(series[op], "a", op) == []
    benchmark.extra_info["process_read_2048_us"] = round(
        series["read"]["process"][2048].per_op_us, 1)
    benchmark.extra_info["paper_read_ymax_us"] = 560.0
