"""The benchmark's traced runs wrap functions of the package by name.

``perfbench/tracing.py`` is loaded by path, as ``test_golden.py`` loads
``regen.py``.  Deleting or renaming a function it wraps, or a parameter it
binds, breaks every traced benchmark run; these tests see that first.
"""

import importlib.util
from pathlib import Path

from jsccsim import channels, energy, harness, info, jscc, ratedist, rng, vlf

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

MODULES = (rng, info, channels, ratedist, vlf, jscc, energy, harness)


def _attributes() -> dict:
    """Every attribute of the package modules and of the classes they define."""
    out = {}
    for mod in MODULES:
        for name, value in vars(mod).items():
            out[mod.__name__, name] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[mod.__name__, name, attr] = member
    return out


def test_install_wraps_the_traced_names_and_remove_restores_them():
    before = _attributes()
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        after = _attributes()
        wrapped = {key for key, value in before.items() if after[key] is not value}
        assert {
            ("jsccsim.vlf", "stop_feedback_transmit"), ("jsccsim.vlf", "vlft_transmit"),
            ("jsccsim.vlf", "keyed_uniforms_2d"), ("jsccsim.vlf", "LazyCodebook", "block"),
            ("jsccsim.rng", "seed_stream"), ("jsccsim.rng", "RngStream", "derive"),
            ("jsccsim.rng", "RngStream", "uniforms_at"), ("jsccsim.rng", "RngStream", "normals"),
            ("jsccsim.channels", "Dmc", "__init__"), ("jsccsim.jscc", "LossyCodebook", "chunk"),
            ("jsccsim.jscc", "choose_codebook_size"),
            ("jsccsim.energy", "vl_feedback_energy_trial"), ("jsccsim.harness", "run"),
        } <= wrapped
        for key in wrapped:
            assert after[key].__wrapped__ is before[key], key
        # the counters bind the transmitters' prior and mode by name
        dmc, prior = channels.bsc(0.11), vlf.uniform_prior(4)
        vlf.stop_feedback_transmit(dmc, prior, 2.0, 1, "full_decoder", rng.seed_stream(0, 0))
        vlf.vlft_transmit(dmc, prior, 2, rng.seed_stream(0, 1))
        assert tracer.counts["vlf.transmit.calls"] == 2
        assert tracer.counts["vlf.rows_x_tau"] > 0
    finally:
        inst.remove()
    restored = _attributes()
    assert [key for key, value in before.items() if restored[key] is not value] == []
