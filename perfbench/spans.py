"""Layer spans recorded from outside the program.

Tracer.install wraps the public function of each layer in every germdeform
module namespace that bound it (cli and straighten bind find_cycles,
global_deform and friends by `from ... import`), the methods on their
classes, and the numpy.fft / scipy.fft 2-D transforms. Each call records a
span (name, start, end, parent id, job id) in memory; uninstall restores the
originals. Nothing under src/ is touched.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

FFT_SPAN = "straighten.fft"
FFT_NAMES = ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn")

# (span name, module, attribute path) of every wrapped layer boundary
LAYER_FUNCTIONS = (
    ("cli.main", "germdeform.cli", "main"),
    ("cycles.find_cycles", "germdeform.cycles", "find_cycles"),
    ("koenigs.build_chart", "germdeform.koenigs", "build_chart"),
    ("local_deform.LocalConjugacy.build", "germdeform.local_deform", "LocalConjugacy.build"),
    ("local_deform.measure_multiplier", "germdeform.local_deform", "measure_multiplier"),
    ("local_deform.holomorphy_residual", "germdeform.local_deform", "holomorphy_residual"),
    ("beltrami.sample_grid", "germdeform.beltrami", "BeltramiField.sample_grid"),
    ("beltrami.field_to_csv", "germdeform.beltrami", "field_to_csv"),
    ("straighten.global_deform", "germdeform.straighten", "global_deform"),
    ("straighten.build_field", "germdeform.straighten", "build_field"),
    ("straighten.solve_beltrami", "germdeform.straighten", "solve_beltrami"),
    ("straighten.motion_sample", "germdeform.straighten", "motion_sample"),
    ("straighten.GridMap.eval", "germdeform.straighten", "GridMap.__call__"),
    ("straighten.GridMap.inverse", "germdeform.straighten", "GridMap.inverse"),
    ("straighten.DeformedGerm.measure_multiplier", "germdeform.straighten",
     "DeformedGerm.measure_multiplier"),
    ("render.mesh_raster", "germdeform.render", "mesh_raster"),
    ("render.field_magnitude_raster", "germdeform.render", "field_magnitude_raster"),
    ("render.to_ppm", "germdeform.render", "to_ppm"),
    ("cremer.cremer_margin", "germdeform.cremer", "cremer_margin"),
)


class Tracer:
    """Spans as [name, start, end, parent id, job id] lists, plus counters
    summed at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job: str | None = None
        self._stack: list[int] = []
        self._undo: list = []
        self.missing: list[str] = []

    # ---- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, hooks=(None, None)):
        """hooks: prepare(args, kwargs) runs before the span opens, and
        after(tracer, args, kwargs, result) after it closes, so counting
        stays out of the layer's own time."""
        tracer = self
        prepare, after = hooks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                prepare(args, kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, 0.0, parent, tracer.job]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    # ---- installation ----------------------------------------------------

    def _rebind(self, original, wrapped):
        """Point every germdeform namespace that holds original at wrapped."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "germdeform" or mod_name.startswith("germdeform.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def install(self):
        """Wrap every boundary that exists; the names of those the program
        no longer has are kept in self.missing and read as zero."""
        for name, mod_name, path in LAYER_FUNCTIONS:
            mod = sys.modules.get(mod_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                self.missing.append(name)
                continue
            hooks = _HOOKS.get(name, (None, None))
            raw = vars(owner)[attr]
            if not owner_name:
                self._rebind(raw, self._wrap(name, raw, hooks))
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, hooks))
            else:
                wrapped = self._wrap(name, raw, hooks)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))
        import scipy.fft

        for fft_mod in (np.fft, scipy.fft):
            for attr in FFT_NAMES:
                original = getattr(fft_mod, attr)
                setattr(fft_mod, attr, self._wrap(FFT_SPAN, original, (None, _count_fft)))
                self._undo.append((fft_mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ---- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover. Calls
        nest strictly on one thread, so the children never overlap."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds. No wrapped
        function calls itself, so inclusive times of one name never nest."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for s, own in zip(self.spans, self.self_times()):
            t = out[s[0]]
            t["calls"] += 1
            t["s"] += s[2] - s[1]
            t["self_s"] += own
        return out

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


# ---- counters read at the boundaries -------------------------------------


def _count_fft(tracer, args, kwargs, out):
    tracer.counts["straighten.fft.points"] += np.size(args[0])


def _give_diagnostics(args, kwargs):
    # find_cycles(germ, order, seed_grid, diagnostics): fill its own record
    if len(args) < 4 and kwargs.get("diagnostics") is None:
        kwargs["diagnostics"] = {}


def _count_find_cycles(tracer, args, kwargs, out):
    diag = kwargs.get("diagnostics") or (args[3] if len(args) > 3 else {})
    tracer.counts["cycles.seeds_attempted"] += diag.get("seeds_attempted", 0)
    tracer.counts["cycles.seeds_converged"] += diag.get("seeds_converged", 0)


def _count_sample_grid(tracer, args, kwargs, out):
    tracer.counts["beltrami.sample_grid.points"] += np.size(args[1])
    tracer.counts["beltrami.support_sum"] += float(np.mean(np.abs(out) > 0))


def _count_solve(tracer, args, kwargs, out):
    tracer.counts["straighten.solve_beltrami.sweeps"] += out.diagnostics.get("sweeps", 0)


def _count_inverse(tracer, args, kwargs, out):
    tracer.counts["straighten.GridMap.inverse.points"] += np.size(args[1])


_HOOKS = {
    "cycles.find_cycles": (_give_diagnostics, _count_find_cycles),
    "beltrami.sample_grid": (None, _count_sample_grid),
    "straighten.solve_beltrami": (None, _count_solve),
    "straighten.GridMap.inverse": (None, _count_inverse),
}
