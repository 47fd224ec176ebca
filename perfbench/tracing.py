"""Outside-in tracing of jsccsim: spans and counts recorded by wrappers that
the benchmark installs around the package's public functions.

A wrapper replaces a function in every jsccsim module namespace that holds
it, because ``vlf`` and ``jscc`` import names such as ``keyed_uniforms_2d``
and ``stop_feedback_transmit`` into their own globals; methods are replaced
on their class.  Spans are kept in memory, one stack per thread.  A span
opened on a worker thread with an empty stack is a child of the innermost
span open on the tracing thread, so the thread pool of
``harness.run_trials`` nests under it.  Self time is a span's duration minus
the part of it that its children cover (the union of their intervals, so two
overlapping worker threads are not subtracted twice).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import threading
import time
from collections import defaultdict

NAME, THREAD, PARENT, START, END = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, thread id, parent index, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._home and self._home_stack:
            parent = self._home_stack[-1]
        else:
            parent = -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, threading.get_ident(), parent,
                               time.perf_counter(), None])
        stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][END] = time.perf_counter()
        self._stack().pop()

    def current(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]][NAME] if stack else None

    def add(self, key: str, value: float = 1.0):
        with self._lock:
            self.counts[key] += value

    def write(self, path, **meta):
        names = sorted({s[NAME] for s in self.spans})
        threads = sorted({s[THREAD] for s in self.spans})
        ni = {n: i for i, n in enumerate(names)}
        ti = {t: i for i, t in enumerate(threads)}
        doc = dict(meta, names=names, counts=dict(self.counts),
                   spans=[[ni[s[NAME]], ti[s[THREAD]], s[PARENT], s[START], s[END]]
                          for s in self.spans])
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its children's
    intervals, clipped to the span."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s[END])
            if b > a:
                covered += b - a
                reach = b
        out.append((s[END] - s[START]) - covered)
    return out


def self_time_by_name(spans) -> dict[str, float]:
    totals = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s[NAME]] += t
    return totals


def _span(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if count is not None:
            count(args, kwargs, result)
        return result
    return wrapper


class Installation:
    """Wrappers installed into the jsccsim modules; ``remove`` restores them."""

    def __init__(self, tracer: Tracer, modules):
        self.tracer = tracer
        self.modules = modules
        self.undo: list[tuple] = []

    def function(self, original, name: str, count=None):
        wrapper = _span(self.tracer, name, original, count)
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.undo.append((mod, attr, original, wrapper))
                    setattr(mod, attr, wrapper)

    def method(self, cls, attr: str, name: str | None, count=None):
        original = cls.__dict__[attr]
        if name is None:  # counter only, no span
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                count(args, kwargs, result)
                return result
        else:
            wrapper = _span(self.tracer, name, original, count)
        self.undo.append((cls, attr, original, wrapper))
        setattr(cls, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in reversed(self.undo):
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the body untraced, then put the wrappers back."""
        self.remove()
        try:
            yield
        finally:
            for owner, attr, _, wrapper in self.undo:
                setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> Installation:
    """Wrap the public functions of rng, channels, ratedist, vlf, jscc,
    energy and harness."""
    from jsccsim import channels, energy, harness, info, jscc, ratedist, rng, vlf

    inst = Installation(tracer, [rng, info, channels, ratedist, vlf, jscc, energy, harness])
    add = tracer.add

    def values(key):
        return lambda a, k, r: add(key, r.size)

    def calls(key):
        return lambda a, k, r: add(key)

    inst.function(rng.keyed_uniforms_2d, "rng.keyed_uniforms_2d",
                  values("rng.keyed_uniforms_2d.values"))
    for attr in ("uniforms", "uniforms_at"):
        inst.method(rng.RngStream, attr, "rng.stream", values("rng.stream.values"))
    inst.method(rng.RngStream, "normals", "rng.stream")
    inst.method(rng.RngStream, "derive", "rng.derive", calls("rng.derive.calls"))
    inst.function(rng.seed_stream, "rng.derive", calls("rng.derive.calls"))

    inst.method(channels.Dmc, "__init__", "channels.dmc_build",
                calls("channels.dmc_build.calls"))

    inst.function(ratedist.ba_rate_distortion, "ratedist.ba_rate_distortion")
    inst.function(ratedist.brute_force_deps_entropy, "ratedist.brute_force_deps_entropy")

    def transmitted(rows_of):
        def count(a, k, r):
            add("vlf.transmit.calls")
            add("vlf.channel_uses", r.tau)
            add("vlf.rows_x_tau", rows_of(a, k) * r.tau)
        return count

    sf_sig = inspect.signature(vlf.stop_feedback_transmit)
    vlft_sig = inspect.signature(vlf.vlft_transmit)

    def sf_rows(a, k):
        b = sf_sig.bind(*a, **k).arguments
        return b["prior"].size if b["mode"] == "full_decoder" else 1

    inst.function(vlf.stop_feedback_transmit, "vlf.transmit", transmitted(sf_rows))
    inst.function(vlf.vlft_transmit, "vlf.transmit",
                  transmitted(lambda a, k: vlft_sig.bind(*a, **k).arguments["prior"].size))

    def block_count(a, k, r):
        add("vlf.codebook_block.calls")
        add("vlf.codebook_symbols", r.size)

    inst.method(vlf.LazyCodebook, "block", "vlf.codebook_block", block_count)

    for fn in (jscc.type_ball_probs, jscc.choose_codebook_size, jscc.index_prior):
        inst.function(fn, "jscc.setup")
    inst.function(jscc.dball_encode, "jscc.dball_encode")

    def codewords(a, k, r):
        if tracer.current() == "jscc.dball_encode":
            add("jscc.dball_encode.codewords", r.shape[0])

    inst.method(jscc.LossyCodebook, "chunk", None, codewords)
    for fn in (jscc.simulate_excess, jscc.simulate_average, jscc.simulate_guaranteed):
        inst.function(fn, "jscc.simulate")

    for fn in (energy.sk_mse_batch, energy.ppm_trials, energy.ppm_error_prob,
               energy.huffman_code):
        inst.function(fn, f"energy.{fn.__name__}")
    inst.function(energy.vl_feedback_energy_trial, "energy.vl_feedback_energy_trial",
                  calls("energy.vl_feedback_energy_trial.calls"))

    for fn in (harness.run, harness.run_trials, harness.emit):
        inst.function(fn, f"harness.{fn.__name__}")
    return inst


def unit_of(metric: str) -> str:
    for suffix, unit in ((".s", "s"), (".ns_per_value", "ns"), (".us_per_call", "us"),
                         ("_ratio", "ratio"), ("_per_s", "trials/s")):
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of a finished run."""
    st = self_time_by_name(tracer.spans)
    c = tracer.counts
    keyed_values = c["rng.keyed_uniforms_2d.values"]
    transmit_calls = c["vlf.transmit.calls"]
    symbols = c["vlf.codebook_symbols"]
    return {
        "rng.keyed_uniforms_2d.s": st["rng.keyed_uniforms_2d"],
        "rng.keyed_uniforms_2d.values": keyed_values,
        "rng.keyed_uniforms_2d.ns_per_value":
            1e9 * st["rng.keyed_uniforms_2d"] / keyed_values if keyed_values else 0.0,
        "rng.stream.s": st["rng.stream"],
        "rng.stream.values": c["rng.stream.values"],
        "rng.derive.s": st["rng.derive"],
        "rng.derive.calls": c["rng.derive.calls"],
        "channels.dmc_build.s": st["channels.dmc_build"],
        "channels.dmc_build.calls": c["channels.dmc_build.calls"],
        "ratedist.ba_rate_distortion.s": st["ratedist.ba_rate_distortion"],
        "ratedist.brute_force_deps_entropy.s": st["ratedist.brute_force_deps_entropy"],
        "vlf.transmit.s": st["vlf.transmit"],
        "vlf.transmit.calls": transmit_calls,
        "vlf.transmit.us_per_call":
            1e6 * st["vlf.transmit"] / transmit_calls if transmit_calls else 0.0,
        "vlf.codebook_block.s": st["vlf.codebook_block"],
        "vlf.codebook_block.calls": c["vlf.codebook_block.calls"],
        "vlf.codebook_symbols": symbols,
        "vlf.channel_uses": c["vlf.channel_uses"],
        "vlf.symbol_use_ratio": c["vlf.rows_x_tau"] / symbols if symbols else 0.0,
        "jscc.setup.s": st["jscc.setup"],
        "jscc.dball_encode.s": st["jscc.dball_encode"],
        "jscc.dball_encode.codewords": c["jscc.dball_encode.codewords"],
        "jscc.simulate.s": st["jscc.simulate"],
        "energy.sk_mse_batch.s": st["energy.sk_mse_batch"],
        "energy.ppm_trials.s": st["energy.ppm_trials"],
        "energy.ppm_error_prob.s": st["energy.ppm_error_prob"],
        "energy.vl_feedback_energy_trial.s": st["energy.vl_feedback_energy_trial"],
        "energy.vl_feedback_energy_trial.calls": c["energy.vl_feedback_energy_trial.calls"],
        "energy.huffman_code.s": st["energy.huffman_code"],
        "harness.run.s": st["harness.run"],
        "harness.run_trials.s": st["harness.run_trials"],
        "harness.emit.s": st["harness.emit"],
    }
