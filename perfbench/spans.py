"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side: each traced public function of
chiraledge is replaced, at the module attribute its callers look up, by a
wrapper that opens a span (name, start, end, parent, item) around the call.
Counters are recorded at the same boundaries.  Spans stay in memory and are
written as JSON lines when the run ends.  A span's self time is its duration
minus the durations of its child spans (calls are strictly nested: one thread).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "child_time")

    def __init__(self, name, start, parent, item):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.child_time = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class Recorder:
    """Holds the spans and counters of one traced phase (setup or timed window)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(float)
        self.stack: list[int] = []
        self.item = None

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.item))
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.end - span.start

    def self_times(self) -> dict:
        out = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_time
        return out

    def span_counts(self) -> dict:
        out = defaultdict(int)
        for span in self.spans:
            out[span.name] += 1
        return out

    def write(self, path, phase: str) -> None:
        with open(path, "a") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "phase": phase,
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "item": span.item,
                        }
                    )
                    + "\n"
                )


class Tracer:
    """Installs and removes wrappers; routes their records to the active Recorder."""

    def __init__(self):
        self.recorder: Recorder | None = None
        self._patches = []  # (owner, attr, original, wrapper)

    def span(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap owner.attr in a span; on_result(recorder, result) adds counters."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.recorder
            if rec is None:
                return original(*args, **kwargs)
            index = rec.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.close(index)
            if on_result is not None:
                on_result(rec, result)
            return result

        self._patches.append((owner, attr, original, wrapper))

    def counter(self, owner, attr: str, on_result) -> None:
        """Wrap owner.attr without a span; on_result(recorder, result) adds counters."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            rec = tracer.recorder
            if rec is not None:
                on_result(rec, result)
            return result

        self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)


def build_tracer() -> Tracer:
    """Wrap each layer's public functions at the names their callers look up."""
    import scipy.sparse.linalg

    from chiraledge import cli, fixtures, halfspace, loops, spectrum, verify, winding

    t = Tracer()

    # models: building and splitting a model, wherever a caller imported them.
    for owner in (fixtures, verify, loops):
        t.span(owner, "build_model", "models.build")
        t.span(owner, "chiral_split", "models.build")
    t.span(halfspace, "build_model", "models.build")
    t.span(cli, "chiral_split", "models.build")

    # spectrum
    for owner in (verify, halfspace, cli):
        t.span(owner, "certified_gap", "spectrum.certified_gap")

    def count_bands(rec, bands):
        rec.counts["spectrum.band_structure_calls"] += 1
        rec.counts["spectrum.k_points"] += bands.num_k

    t.counter(spectrum, "band_structure", count_bands)
    for owner in (verify, cli):
        t.span(owner, "chiral_gap_margin", "spectrum.gap_margin")

    # winding
    t.span(winding, "winding_phase", "winding.phase")
    t.span(winding, "winding_roots", "winding.roots")

    def count_curve(rec, result):
        rec.counts["winding.curve_calls"] += 1
        rec.counts["winding.curve_samples"] += result[1]

    t.counter(winding, "winding_of_curve", count_curve)
    t.counter(loops, "winding_of_curve", count_curve)

    # halfspace
    def count_cells(rec, report):
        rec.counts["halfspace.cells"] += report.truncation_cells or 0

    for owner in (verify, cli, halfspace):
        t.span(owner, "edge_modes_truncated", "halfspace.edge_truncated", count_cells)

    def count_sections(rec, result):
        rec.counts["halfspace.dense_sections"] += 1

    t.counter(halfspace, "toeplitz_block", count_sections)
    for owner in (halfspace, verify):
        t.span(owner, "decay_scale_estimate", "halfspace.decay_estimate")
    t.span(scipy.sparse.linalg, "eigsh", "halfspace.eigsh")

    # companion
    for owner in (verify, cli):
        t.span(owner, "edge_modes_companion", "companion.edge")

    def count_split(rec, result):
        rec.counts["companion.split_calls"] += 1

    t.counter(halfspace, "spectral_split", count_split)

    # loops
    t.span(loops, "certify_path", "loops.certify")

    def count_stages(rec, path):
        rec.counts["loops.stages"] += len(path.stages)

    t.span(loops, "full_deformation", "loops.build", count_stages)
    t.span(cli, "full_deformation", "loops.build", count_stages)

    # verify
    t.span(verify, "verify_bec", "verify.bec")
    t.span(cli, "verify_bec", "verify.bec")

    def count_models(rec, models):
        rec.counts["verify.models_kept"] += len(models)

    t.span(verify, "random_chiral_ensemble", "verify.ensemble", count_models)

    # cli: argument parsing, the sweep loop and CSV output
    t.span(cli, "main", "cli.main")
    return t


def layer_metrics(setup: Recorder, window: Recorder, items: int) -> dict:
    """Per-layer figures: window totals per timed item, plus set-up-side figures."""
    st = window.self_times()
    c = window.counts
    n = max(items, 1)
    calls = window.span_counts()

    def per_item(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    draws = sum(
        1
        for span in setup.spans
        if span.name == "spectrum.gap_margin" and _has_ancestor(setup, span, "verify.ensemble")
    )
    setup_st = setup.self_times()
    return {
        "models.build_s": (per_item(st["models.build"]), "s"),
        "spectrum.certified_gap_s": (per_item(st["spectrum.certified_gap"]), "s"),
        "spectrum.k_points": (per_item(c["spectrum.k_points"]), "count"),
        "spectrum.bands_per_gap": (
            ratio(c["spectrum.band_structure_calls"], calls["spectrum.certified_gap"]),
            "ratio",
        ),
        "spectrum.gap_margin_s": (per_item(st["spectrum.gap_margin"]), "s"),
        "winding.phase_s": (per_item(st["winding.phase"]), "s"),
        "winding.roots_s": (per_item(st["winding.roots"]), "s"),
        "winding.curve_calls": (per_item(c["winding.curve_calls"]), "count"),
        "winding.samples_per_curve": (ratio(c["winding.curve_samples"], c["winding.curve_calls"]), "ratio"),
        "halfspace.edge_truncated_s": (per_item(st["halfspace.edge_truncated"]), "s"),
        "halfspace.cells": (per_item(c["halfspace.cells"]), "count"),
        "halfspace.dense_sections": (per_item(c["halfspace.dense_sections"]), "count"),
        "halfspace.eigsh_calls": (per_item(calls["halfspace.eigsh"]), "count"),
        "halfspace.eigsh_s": (per_item(st["halfspace.eigsh"]), "s"),
        "halfspace.decay_estimate_s": (per_item(st["halfspace.decay_estimate"]), "s"),
        "companion.edge_s": (per_item(st["companion.edge"]), "s"),
        "companion.split_calls": (per_item(c["companion.split_calls"]), "count"),
        "loops.certify_s": (per_item(st["loops.certify"]), "s"),
        "loops.build_s": (per_item(st["loops.build"]), "s"),
        "loops.stages": (per_item(c["loops.stages"]), "count"),
        "verify.bec_self_s": (per_item(st["verify.bec"]), "s"),
        "verify.draws_per_model": (ratio(draws, setup.counts["verify.models_kept"]), "ratio"),
        "cli.self_s": (per_item(st["cli.main"]), "s"),
        "setup.models.build_s": (setup_st["models.build"], "s"),
        "setup.spectrum.gap_margin_s": (setup_st["spectrum.gap_margin"], "s"),
    }


def _has_ancestor(rec: Recorder, span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if rec.spans[parent].name == name:
            return True
        parent = rec.spans[parent].parent
    return False
