"""Per-layer spans around markovsim's public functions, added from outside.

``Tracer.install`` replaces each target function by a timing wrapper.  It
rebinds every module-level name in the loaded markovsim modules that refers
to the original function, found by identity, because names such as
``decode_payload`` and ``eval_fn_array`` are imported into several modules.
A target that the package no longer has is skipped.  ``uninstall`` puts the
originals back.

Each call adds to the call count and self time of its target under the
current scheme.  Self time is the span's duration minus the duration of the
traced spans it directly contains.  Whole spans (cell, span id, parent id,
name, scheme, start, end) are kept in memory only while ``keep_spans`` is
set, and are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "markovsim"
SCHEMES = ("baseline", "scheme1", "scheme2")

# (module, attribute path) of every traced layer, and the schemes that call it
TARGETS = {
    ("_kernels", "ml_decode_index"): SCHEMES,
    ("_kernels", "markov_chain"): SCHEMES,
    ("coding", "encode_payload"): SCHEMES,
    ("coding", "decode_payload"): SCHEMES,
    ("coding", "union_bound_profile"): SCHEMES,
    ("channel", "ChannelPair.transmit"): SCHEMES,
    ("protocol", "gen_uniform_protocol"): SCHEMES,
    ("protocol", "eval_fn_array"): SCHEMES,
    ("protocol", "simulate_reference"): SCHEMES,
    ("vertical", "offline_simulate"): ("baseline", "scheme1"),
    ("vertical", "run_baseline"): ("baseline",),
    ("vertical", "run_vertical_exchange"): ("scheme1", "scheme2"),
    ("scheme_random", "find_partition"): ("scheme1",),
    ("scheme_random", "run_scheme1"): ("scheme1",),
    ("scheme_regular", "predictor_exchange"): ("scheme2",),
    ("scheme_regular", "run_scheme2"): ("scheme2",),
    ("experiment", "run_experiment"): SCHEMES,
}
TRANSMIT = ("channel", "ChannelPair.transmit")
HARNESS = ("experiment", "run_experiment")


def layer_name(target: tuple[str, str]) -> str:
    """Metric prefix of a target; names may not start with '_'."""
    module, attr = target
    return f"{module.lstrip('_')}.{attr}"


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for target, schemes in TARGETS.items():
        base = layer_name(target)
        figures = [("self_ms", "ms")]
        if target != HARNESS:
            figures.insert(0, ("calls", "count"))
        if target == TRANSMIT:
            figures.append(("uses", "count"))
        for fig, unit in figures:
            out += [(f"{base}.{fig}.{s}", unit) for s in schemes]
    out += [(f"trace.overhead_ms.{s}", "ms") for s in SCHEMES]
    return out


class Tracer:
    def __init__(self):
        self.scheme = SCHEMES[0]
        self.cell = 0
        self.keep_spans = False
        self.spans: list[tuple[int, int, int, str, str, float, float]] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.uses = defaultdict(int)
        self.skipped: list[str] = []
        self._stack: list[list] = []  # [child seconds, span id] per open span
        self._installed: list[tuple[object, str, object]] = []
        self._next_id = 0

    def _wrap(self, target, fn):
        key = layer_name(target)
        count_uses = target == TRANSMIT
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent = 0
                if stack:
                    stack[-1][0] += dur
                    parent = stack[-1][1]
                slot = (key, self.scheme)
                self.calls[slot] += 1
                self.self_s[slot] += dur - frame[0]
                if count_uses:
                    bits = args[2] if len(args) > 2 else kwargs["bits"]
                    self.uses[slot] += len(bits)
                if self.keep_spans:
                    self.spans.append(
                        (self.cell, frame[1], parent, key, self.scheme, t0, t1)
                    )

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for target in TARGETS:
            module_name, attr = target
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.skipped.append(layer_name(target))
                continue
            wrapper = self._wrap(target, original)
            if path:
                self._rebind(owner, leaf, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)

    def _rebind(self, owner, name, wrapper) -> None:
        self._installed.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def per_trial(self, trials: dict[str, int]) -> dict[str, float]:
        """Calls, self time (ms) and channel uses per trial, by metric name."""
        out = {}
        for target, schemes in TARGETS.items():
            base = layer_name(target)
            for s in schemes:
                t = trials[s]
                if target != HARNESS:
                    out[f"{base}.calls.{s}"] = self.calls[(base, s)] / t
                out[f"{base}.self_ms.{s}"] = 1e3 * self.self_s[(base, s)] / t
                if target == TRANSMIT:
                    out[f"{base}.uses.{s}"] = self.uses[(base, s)] / t
        return out
