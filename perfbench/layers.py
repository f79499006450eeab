"""Layer tracing from outside the program.

`Tracer.install()` replaces each public function named in `TARGETS` with a
wrapper that records a span (id, name, parent id, start, end) and, for some
targets, work counts taken from the call's arguments or result. The wrapper
is put in the defining module and in every loaded `salemlab` module that
imported the same function object by name, so calls through any import path
are seen. Spans stay in memory until `dump()` writes them out.

The tracer keeps one span stack, so it assumes a single thread; the
benchmark runs every stage with SALEMLAB_THREADS unset.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# metric prefix -> (module, attribute path); the prefix's first part names the layer
TARGETS = {
    "construction.build_level": ("salemlab.construction", "build_level"),
    "construction.block_deviations": ("salemlab.construction", "block_deviations"),
    "construction.choose_rotations": ("salemlab.construction", "choose_rotations"),
    "construction.check_level_invariants": ("salemlab.construction",
                                            "check_level_invariants"),
    "kernel.fft": ("numpy.fft", "fft"),
    "spectral.exp_sum": ("salemlab.spectral", "exp_sum"),
    "spectral.exp_sum_all": ("salemlab.spectral", "exp_sum_all"),
    "spectral.telescope_check": ("salemlab.spectral", "telescope_check"),
    "spectral.trivial_bound_check": ("salemlab.spectral", "trivial_bound_check"),
    "spectral.compute_spectrum": ("salemlab.spectral", "compute_spectrum"),
    "spectral.decay_report": ("salemlab.spectral", "decay_report"),
    "spectral.Spectrum.to_csv": ("salemlab.spectral", "Spectrum.to_csv"),
    "energy.sum_distribution": ("salemlab.energy", "sum_distribution"),
    "energy.exact_l2r_norm": ("salemlab.energy", "exact_l2r_norm"),
    "norms.lp_norm_quadrature": ("salemlab.norms", "lp_norm_quadrature"),
    "norms.holder_chain_check": ("salemlab.norms", "holder_chain_check"),
    "norms.restriction_ratio": ("salemlab.norms", "restriction_ratio"),
    "norms.ball_condition_report": ("salemlab.norms", "ball_condition_report"),
    "storage.write_construction": ("salemlab.storage", "write_construction"),
    "storage.load_construction": ("salemlab.storage", "load_construction"),
    "storage.write_manifest": ("salemlab.storage", "write_manifest"),
    "cli.run_verification": ("salemlab.cli", "run_verification"),
}


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans = []            # (id, name, parent id or None, start, end)
        self.counts = Counter()
        self._stack = []
        self._next_id = 0
        self._energy_keys = set()

    # counts computed from a call; each returns {suffix: amount}

    def _count_exp_sum(self, args, kwargs, result):
        if _arg(args, kwargs, 3, "method", "naive") != "naive":
            return {}
        atoms, k = _arg(args, kwargs, 0, "atoms"), _arg(args, kwargs, 1, "k")
        return {"terms": len(np.atleast_1d(atoms)) * np.size(k)}

    def _count_exp_sum_all(self, args, kwargs, result):
        return {"points": int(_arg(args, kwargs, 1, "period"))}

    def _count_fft(self, args, kwargs, result):
        return {"points": int(np.shape(result)[-1])}

    def _count_sum_distribution(self, args, kwargs, result):
        Y = np.unique(np.asarray(_arg(args, kwargs, 0, "Y"), dtype=np.int64))
        r = int(_arg(args, kwargs, 1, "r"))
        key = (r, hashlib.sha1(Y.tobytes()).hexdigest())
        repeat = key in self._energy_keys
        self._energy_keys.add(key)
        top = int(Y.max() - Y.min())
        # round i adds g (length i*top + 1) once per element of Y
        adds = len(Y) * (r + top * r * (r - 1) // 2)
        return {"adds": adds, "repeats": int(repeat)}

    def _count_write_construction(self, args, kwargs, result):
        return {"bytes": sum(os.path.getsize(p) for p in result)}

    COUNTERS = {
        "spectral.exp_sum": _count_exp_sum,
        "spectral.exp_sum_all": _count_exp_sum_all,
        "kernel.fft": _count_fft,
        "energy.sum_distribution": _count_sum_distribution,
        "storage.write_construction": _count_write_construction,
    }

    def _wrap(self, name, fn):
        count = self.COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, parent, start, end))
            if count is not None:
                for suffix, amount in count(self, args, kwargs, result).items():
                    counts[f"{name}.{suffix}"] += amount
            return result

        traced.__wrapped_by_perfbench__ = name
        return traced

    def install(self):
        """Wrap every target; raise if a target no longer exists."""
        importlib.import_module("salemlab.cli")   # loads every salemlab module
        for name, (modname, path) in TARGETS.items():
            module = importlib.import_module(modname)
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if not callable(original):
                raise LookupError(f"trace target {modname}.{path} does not exist")
            wrapper = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            if not owner_path:
                for other_name, other in list(sys.modules.items()):
                    if (other_name.split(".")[0] == "salemlab"
                            and getattr(other, attr, None) is original):
                        setattr(other, attr, wrapper)
        return self

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


def summarize(spans, counts):
    """Per-target calls, inclusive time `s` and self time `self_s`, plus the
    counts; also the total time of root spans, for coverage."""
    child_time = Counter()
    for _, _, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = Counter()
    root_s = 0.0
    for sid, name, parent, start, end in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += end - start - child_time[sid]
        if parent is None:
            root_s += end - start
    out.update(counts)
    return out, root_s
