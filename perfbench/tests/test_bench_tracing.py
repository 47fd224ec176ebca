"""Self-time arithmetic and the wrappers of the outside-in tracer."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import tracing


def test_self_time_nested_spans():
    spans = [["run", 1, -1, 0.0, 10.0],
             ["block", 1, 0, 1.0, 3.0],
             ["rng", 1, 1, 1.5, 2.0],
             ["block", 1, 0, 5.0, 6.0]]
    assert tracing.self_times(spans) == pytest.approx([7.0, 1.5, 0.5, 1.0])
    assert tracing.self_time_by_name(spans) == pytest.approx(
        {"run": 7.0, "block": 2.5, "rng": 0.5})


def test_self_time_two_thread_children_subtract_their_union():
    # two workers under one span overlap on [3, 5]; the union [1, 8] is covered
    spans = [["run_trials", 1, -1, 0.0, 10.0],
             ["transmit", 2, 0, 1.0, 5.0],
             ["transmit", 3, 0, 3.0, 8.0],
             ["rng", 3, 2, 4.0, 4.5]]
    assert tracing.self_times(spans) == pytest.approx([3.0, 4.0, 4.5, 0.5])


def test_self_time_clips_children_to_the_span():
    spans = [["a", 1, -1, 0.0, 2.0], ["b", 2, 0, 1.0, 3.0]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_worker_thread_spans_nest_under_the_open_span():
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    barrier = threading.Barrier(2, timeout=10)

    def work(_):
        barrier.wait()
        tracer.end(tracer.begin("inner"))
        return threading.get_ident()

    with ThreadPoolExecutor(max_workers=2) as pool:
        idents = list(pool.map(work, range(2)))
    tracer.end(outer)
    inner = [s for s in tracer.spans if s[tracing.NAME] == "inner"]
    assert len(set(idents)) == 2
    assert [s[tracing.PARENT] for s in inner] == [outer, outer]


def test_install_counts_a_stop_feedback_run_and_restores_the_package():
    from jsccsim import harness, rng, vlf

    originals = (harness.run, vlf.keyed_uniforms_2d, rng.RngStream.derive)
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        assert harness.run is not originals[0]
        assert vlf.keyed_uniforms_2d is not originals[1]
        with inst.paused():
            assert harness.run is originals[0]
        rec = harness.run({"kind": "stop_feedback", "channel": {"kind": "bsc", "delta": 0.11},
                           "prior": {"kind": "uniform", "M": 16}, "gamma_nats": 4.6,
                           "trials": 1000, "seed": 5})
    finally:
        inst.remove()
    assert (harness.run, vlf.keyed_uniforms_2d, rng.RngStream.derive) == originals
    m = tracing.layer_metrics(tracer)
    assert m["vlf.transmit.calls"] == 1000
    assert m["rng.derive.calls"] == 3000  # seed_stream plus codebook and noise streams
    assert m["channels.dmc_build.calls"] == 1
    assert m["vlf.channel_uses"] == round(rec.metrics["tau"]["estimate"] * 1000)
    assert m["rng.keyed_uniforms_2d.values"] == m["vlf.codebook_symbols"] > 0
    assert 0 < m["vlf.symbol_use_ratio"] < 1
    assert m["harness.run.s"] > 0 and m["energy.sk_mse_batch.s"] == 0
