"""Spans recorded by the benchmark around calls into genusforge's layers.

The library carries no tracing of its own.  In a traced run the benchmark
replaces each public function named in TRACED with a wrapper, in every
loaded genusforge module that binds it, so calls the layers make to one
another are caught as well as the benchmark's own calls.  A span holds
its name, start, end, parent span and query id; spans stay in memory and
are written out when the run ends.  A function's `_s` metric is its self
time: span duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

TRACED = {
    "exactkernel": ("smith_normal_form", "cyclo_approx"),
    "quadspace": ("build_space", "signature_mod8", "gauss_sum", "isotropic_subgroups",
                  "quotient_space", "is_isometric"),
    "lattice": ("discriminant_form", "theta_coefficients", "overlattices", "same_genus",
                "root_system"),
    "modcat": ("from_quadratic_space", "verify_relations", "verlinde_fusion",
               "genus_dimension", "voa_milgram_check", "simple_current_extensions"),
    "codes": ("sigma_profile", "lexicode", "dual_code", "weight_enumerator",
              "check_framed_conditions"),
}
SHORT_NAMES = {"codes.check_framed_conditions": "codes.check_framed"}

# Spans the benchmark opens itself rather than by wrapping a library function.
CLI_SPANS = ("cli.import", "cli.command")

# Work counts read off a traced function's result: span -> (metric, count).
COUNTERS = {
    "quadspace.isotropic_subgroups": ("quadspace.subgroups_found", len),
    "lattice.theta_coefficients": ("lattice.theta_vectors", lambda coeffs: sum(coeffs[1:])),
    "lattice.overlattices": ("lattice.overlattices_found", len),
    "modcat.verlinde_fusion": ("modcat.fusion_entries", lambda table: table.n ** 3),
    "codes.sigma_profile": ("codes.sigma_codes_counted",
                            lambda profile: sum(v for _, v in profile.counts)),
    "cli.command": ("cli.commands", lambda _: 1),
}


def span_names() -> list[str]:
    names = [SHORT_NAMES.get(f"{layer}.{fn}", f"{layer}.{fn}")
             for layer, fns in TRACED.items() for fn in fns]
    return names + list(CLI_SPANS)


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, query id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {metric: 0 for metric, _ in COUNTERS.values()}
        self.query = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.query]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, result) -> None:
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counts[counter[0]] += counter[1](result)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.count(name, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a genusforge module binds it."""
        import importlib
        modules = [m for key, m in list(sys.modules.items())
                   if key == "genusforge" or key.startswith("genusforge.")]
        for layer, fns in TRACED.items():
            package = importlib.import_module(f"genusforge.{layer}")
            for fn_name in fns:
                original = getattr(package, fn_name)
                name = SHORT_NAMES.get(f"{layer}.{fn_name}", f"{layer}.{fn_name}")
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (summed self time, number of spans)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start - child), calls + 1)
        return out

    def metrics(self) -> dict[str, dict]:
        times = self.self_times()
        out = {}
        for name in span_names():
            total, calls = times.get(name, (0.0, 0))
            out[f"{name}_s"] = {"value": total, "unit": "s"}
            out[f"{name}_calls"] = {"value": calls, "unit": "count"}
        for metric, value in self.counts.items():
            out[metric] = {"value": value, "unit": "count"}
        return out

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "query")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
