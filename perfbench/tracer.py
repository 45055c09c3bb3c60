"""Span tracing of hfbgas layers from outside the package.

The benchmark wraps the public functions listed in ``LAYERS`` for the
duration of one traced run.  A wrapper replaces the function in its defining
module and in every ``hfbgas`` module that re-bound it with
``from .x import f``, so calls through any of those names are seen.  Methods
are patched on their class.  ``uninstall`` puts every original back.

Spans stay in memory as ``[name, start, end, parent]`` lists, where parent
is the index of the enclosing traced span (-1 at top level), and are written
out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path) of every traced layer function.  The span name is
# the module's last component joined to the attribute path.
LAYERS = [
    ("hfbgas.grid", "lowest_eigenpairs"),
    ("hfbgas.thermal", "build_thermal_pdm"),
    ("hfbgas.thermal", "bose_weight"),
    ("hfbgas.hartree", "InteractionSpec.convolve"),
    ("hfbgas.hartree", "minimize_hartree"),
    ("hfbgas.hartree", "hartree_energy"),
    ("hfbgas.hartree", "propagate_hartree"),
    ("hfbgas.hfb", "step_dense"),
    ("hfbgas.hfb", "step_modes"),
    ("hfbgas.hfb", "hfb_energy"),
    ("hfbgas.hfb", "free_conjugate"),
    ("hfbgas.hfb", "particle_number"),
    ("hfbgas.diagnostics", "compare_to_references"),
    ("hfbgas.diagnostics", "trace_distance"),
    ("hfbgas.diagnostics", "positivity_margin"),
    ("hfbgas.diagnostics", "alpha_hs_norm"),
    ("hfbgas.diagnostics", "sup_kernel"),
    ("hfbgas.fock", "assemble_generator"),
    ("hfbgas.fock", "verify_commutator_identity"),
    ("hfbgas.fock", "build_quasifree"),
    ("hfbgas.fock", "build_operators"),
    ("hfbgas.cli", "run"),
    ("hfbgas.cli", "write_csv"),
    ("hfbgas.cli", "write_json"),
]
ROOT_SPAN = "cli.run"


def span_name(module: str, attr: str) -> str:
    return module.rsplit(".", 1)[-1] + "." + attr


class Tracer:
    """Records one span per call of each installed function."""

    def __init__(self, run_id: str, package: str = "hfbgas", observe=None):
        """``observe`` maps a span name to a function of that call's return
        value; the results are kept in ``observed[name]``."""
        self.run_id = run_id
        self.package = package
        self.spans = []
        self.observe = observe or {}
        self.observed = {name: [] for name in self.observe}
        self._stack = []
        self._patched = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = self.observe.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                self.observed[name].append(observe(result))
            return result

        return traced

    def install(self, layers=LAYERS):
        """Wrap every listed function wherever the package binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package
                                         or n.startswith(self.package + "."))]
        for module_name, attr in layers:
            owner = sys.modules[module_name]
            *path, fn_name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:  # a method: patch it on its class only
                original = owner.__dict__[fn_name]
                self._patch(owner, fn_name, original,
                            self.wrap(span_name(module_name, attr), original))
                continue
            original = getattr(owner, fn_name)
            wrapper = self.wrap(span_name(module_name, attr), original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list:
    """Each span's duration minus the time its direct child spans cover.

    Children of one span run one after another on one thread, so their
    durations add without overlap.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans) -> tuple:
    """Per span name: call count and summed self time."""
    calls, busy = {}, {}
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] = calls.get(span[0], 0) + 1
        busy[span[0]] = busy.get(span[0], 0.0) + own
    return calls, busy
