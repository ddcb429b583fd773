"""Command-line entry point: model-file I/O, subcommands, reproducible outputs.

Every JSON/CSV output embeds the tool version, a hash of the input model, the
seed, and the tolerances in force.  Floats are rounded to 12 significant
digits so repeated runs are byte-identical at the same BLAS build and thread
count; printed numerical zeros such as singular_values_near_zero change digits
with OPENBLAS_NUM_THREADS.  phase-diagram certifies every grid cell's gap,
runs the winding and edge routes once per run of neighbouring cells that a
certified gapped segment links (the other members inherit the integers), and
spreads its grid rows over the CPUs of the process's affinity mask, one row
per task.  Links stay inside a row and the rows are written in grid order, so
its output does not depend on how many CPUs there are.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .companion import build_companion, decay_rate, propagate
from .config import DEFAULT_TOL, NUM_K_DEFAULT, Tolerances
from .errors import (
    ChiralEdgeError,
    NotChiral,
    ParseError,
    RangeZero,
    ShapeMismatch,
    UnbalancedGrading,
)
from .fixtures import FAMILIES, FIXTURE_NAMES, fixture
from .halfspace import edge_modes_companion, edge_modes_truncated, in_gap_scan, in_gap_window
from .loops import full_deformation
from .models import (
    ChiralModel,
    chiral_split,
    detect_grading,
    least_singular_value,
    load_model,
    model_to_dict,
    momenta,
    parse_fields,
    parse_number,
    unit_circle,
)
# chiral_gap_margin is unused here but stays importable: perfbench/spans.py wraps it.
from .spectrum import band_structure, certified_gap, chiral_gap, chiral_gap_margin, detect_gap
from .verify import (
    EnsembleSpec,
    case_to_dict,
    random_chiral_ensemble,
    two_band_case,
    verify_bec,
    verify_gap_exclusion,
)
from .winding import full_winding

_INPUT_ERRORS = (ParseError, ShapeMismatch, RangeZero, NotChiral, UnbalancedGrading)


# --- serialization helpers --------------------------------------------------


def _round12(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return float(f"{x:.12g}")


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_round12(float(obj.real)), _round12(float(obj.imag))]
    if isinstance(obj, (float, np.floating)):
        return _round12(float(obj))
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _emit_json(doc: dict, out_path: str | None) -> None:
    text = json.dumps(_sanitize(doc), sort_keys=True, indent=1) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_cell(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.12g}"


def _emit_csv(header, rows, meta: dict, out_path: str | None) -> None:
    lines = [f"# {k}={v}" for k, v in sorted(_flatten(meta).items())]
    lines.append(",".join(header))
    lines += [",".join(_csv_cell(c) for c in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _flatten(meta: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in meta.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


# --- input resolution -------------------------------------------------------


def _resolve_model(args, tol: Tolerances):
    """Returns (model, grading-or-None, canonical input bytes)."""
    path = args.model or getattr(args, "model_path", None)
    if args.fixture and path:
        raise ParseError("give either a model file or --fixture, not both")
    if args.fixture:
        cm = fixture(args.fixture)
        model, grading = cm.base, cm.grading
        raw = json.dumps(model_to_dict(model, grading), sort_keys=True).encode()
        return model, grading, raw
    if not path:
        raise ParseError("no model given; pass a model file or --fixture NAME")
    raw = Path(path).read_bytes()
    model, grading = load_model(path, tol=tol)
    return model, grading, raw


def _require_chiral(model, grading, args, tol: Tolerances) -> ChiralModel:
    if grading is None:
        if not getattr(args, "auto_grading", False):
            raise ParseError(
                "model has no grading; add a \"grading\" field or pass --auto-grading"
            )
        grading = detect_grading(model, tol)
        if grading is None:
            raise NotChiral("no bipartite grading exists for this model")
    return chiral_split(model, grading, tol=tol)


def _meta(raw: bytes, seed: int, tol: Tolerances, options: dict) -> dict:
    return {
        "tool": "chiraledge",
        "version": __version__,
        "input_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": seed,
        "tolerances": tol.as_dict(),
        "options": options,
    }


def _parse_ensemble(text: str, default_seed: int) -> EnsembleSpec:
    fields = {"seed": default_seed, "scale": 1.0, "gap_floor": 0.05}
    for key, value in parse_fields(text, ("dim_v", "range", "count", "seed", "scale", "gap_floor"), "ensemble").items():
        fields[key] = parse_number(value, f"ensemble {key}", float if key in ("scale", "gap_floor") else int)
    for req in ("dim_v", "range", "count"):
        if req not in fields:
            raise ParseError(f"ensemble spec needs {req}=...")
    if fields["dim_v"] < 2 or fields["dim_v"] % 2:
        raise ParseError(f"ensemble dim_v must be even and positive, got {fields['dim_v']}")
    if fields["count"] < 0 or fields["range"] < 1 or fields["seed"] < 0:
        raise ParseError("ensemble needs count >= 0, range >= 1 and seed >= 0")
    # The draws' norms square the scale: it must neither overflow nor vanish.
    if not (fields["scale"] > 0 and 0 < fields["scale"] * fields["scale"] < math.inf) or fields["gap_floor"] < 0:
        raise ParseError(
            f"ensemble needs a positive scale whose square is a finite nonzero float and gap_floor >= 0, "
            f"got scale={fields['scale']!r}, gap_floor={fields['gap_floor']!r}"
        )
    return EnsembleSpec(
        seed=fields["seed"], count=fields["count"], dim_v=fields["dim_v"], hop_range=fields["range"],
        coefficient_scale=fields["scale"], gap_floor=fields["gap_floor"],
    )


# --- subcommands -------------------------------------------------------------


def _cmd_spectrum(args, tol) -> int:
    model, grading, raw = _resolve_model(args, tol)
    if args.samples < 8:
        raise ParseError(f"--samples must be at least 8, got {args.samples}")
    bands = band_structure(model, args.samples)
    around = 0.0 if grading is not None else None
    gap = detect_gap(bands, around)
    meta = _meta(raw, args.seed, tol, {"samples": args.samples, "around_energy": around})
    header = ["k"] + [f"E_{j + 1}" for j in range(model.dim_v)]
    rows = [[k] + list(es) for k, es in zip(bands.ks, bands.energies)]
    _emit_csv(header, rows, meta, args.out)
    if args.out:
        _emit_json({"meta": meta, "gap": dataclasses.asdict(gap)}, None)
    return 0


def _cmd_winding(args, tol) -> int:
    model, grading, raw = _resolve_model(args, tol)
    if args.samples < 8:
        raise ParseError(f"--samples must be at least 8, got {args.samples}")
    cm = _require_chiral(model, grading, args, tol)
    result = full_winding(cm, initial_samples=args.samples, tol=tol)
    meta = _meta(raw, args.seed, tol, {"samples": args.samples})
    _emit_json({"meta": meta, **dataclasses.asdict(result)}, args.out)
    if args.curve_out:
        dets = cm.symbol("pm").det_fn()(unit_circle(args.samples))
        _emit_csv(
            ["k", "det_re", "det_im"],
            [[k, d.real, d.imag] for k, d in zip(momenta(args.samples), dets)],
            meta,
            args.curve_out,
        )
    return 0


def _cmd_edge(args, tol) -> int:
    model, grading, raw = _resolve_model(args, tol)
    cm = _require_chiral(model, grading, args, tol)
    meta = _meta(raw, args.seed, tol, {"cells": args.cells, "method": args.method})
    doc = {"meta": meta}
    truncated = companion = None
    if args.method in ("truncated", "both"):
        truncated = edge_modes_truncated(cm, cells=args.cells, tol=tol)
    if args.method in ("companion", "both"):
        companion = edge_modes_companion(cm, tol)
    main = truncated or companion
    doc.update(main.to_dict())
    if truncated is not None and companion is not None:
        doc["method"] = "both"
        doc["companion"] = companion.to_dict()
        doc["routes_agree"] = (truncated.dim_ker_pm, truncated.dim_ker_mp) == (
            companion.dim_ker_pm,
            companion.dim_ker_mp,
        )
    _emit_json(doc, args.out)
    return 0


def _cmd_scan(args, tol) -> int:
    model, grading, raw = _resolve_model(args, tol)
    gap = certified_gap(model, around_energy=0.0 if grading is not None else None)
    window = in_gap_window(gap)
    if args.window:
        window = tuple(parse_number(x, "--window") for x in args.window.split(","))
        if len(window) != 2 or window[0] >= window[1]:
            raise ParseError(f"--window must be 'LO,HI' with LO < HI, got {args.window!r}")
    hits = in_gap_scan(model, args.cells, window, gap=gap)
    meta = _meta(raw, args.seed, tol, {"cells": args.cells, "window": list(window)})
    _emit_csv(
        ["energy", "localization_length", "side"],
        [[h.energy, h.localization_length, h.side] for h in hits],
        meta,
        args.out,
    )
    return 0


def _cmd_modes(args, tol) -> int:
    model, grading, raw = _resolve_model(args, tol)
    parts = [parse_number(x, "--energy") for x in args.energy.split(",")]
    if len(parts) > 2:
        raise ParseError(f"--energy must be 'RE' or 'RE,IM', got {args.energy!r}")
    energy = complex(*parts)
    values = [parse_number(x, "--initial") for x in args.initial.split(",")]
    comp = build_companion(model, energy, tol)
    n = comp.size
    if len(values) == n:
        initial = np.array(values, dtype=complex)
    elif len(values) == 2 * n:
        arr = np.array(values).reshape(n, 2)
        initial = arr[:, 0] + 1j * arr[:, 1]
    else:
        raise ParseError(
            f"--initial needs {n} real or {2 * n} interleaved re,im values, got {len(values)}"
        )
    steps = args.steps if args.steps is not None else 4 * model.hop_range + 4
    if steps < 1:
        raise ParseError(f"--steps must be at least 1, got {steps}")
    if args.back < 0:
        raise ParseError(f"--back must not be negative, got {args.back}")
    mode = propagate(comp, initial, steps=steps, first_cell=args.start, back_steps=args.back, tol=tol)
    meta = _meta(
        raw,
        args.seed,
        tol,
        {"energy": [energy.real, energy.imag], "steps": steps, "start": args.start, "back": args.back},
    )
    header = ["n"] + [x for j in range(model.dim_v) for x in (f"psi{j + 1}_re", f"psi{j + 1}_im")]
    rows = []
    for offset, cell in enumerate(mode.window):
        row = [mode.first_cell + offset]
        for z in cell:
            row += [z.real, z.imag]
        rows.append(row)
    _emit_csv(header, rows, meta, args.out)
    if args.out:
        try:
            rate = decay_rate(mode, tol)
        except ChiralEdgeError:
            rate = None
        _emit_json(
            {
                "meta": meta,
                "classification": mode.classification,
                "max_residual": mode.max_residual,
                "decay_rate": rate,
            },
            None,
        )
    return 0


def _cmd_deform(args, tol) -> int:
    model, grading, raw = _resolve_model(args, tol)
    cm = _require_chiral(model, grading, args, tol)
    path = full_deformation(cm, tol)
    meta = _meta(raw, args.seed, tol, {})
    _emit_json({"meta": meta, **path.to_dict()}, args.out)
    if args.csv_out:
        rows = []
        lams = unit_circle(64)
        for si, stage in enumerate(path.stages):
            ts = (
                [stage.t_start]
                if stage.t_start == stage.t_end
                else np.linspace(stage.t_start, stage.t_end, 9)
            )
            for t in ts:
                rows.append([si, t, least_singular_value(stage.evaluate(float(t), lams))])
        _emit_csv(["stage", "t", "min_singular_value"], rows, meta, args.csv_out)
    return 0


def _verify_one(cm: ChiralModel, cells, tol) -> dict:
    bec = verify_bec(cm, cells=cells, tol=tol)
    entry = {"bec": case_to_dict(bec)}
    ok = entry["bec"]["passed"]
    if cm.dim_v == 2:
        # The strong form reads the gap, winding and edge count verify_bec computed.
        two_band = two_band_case(cm, bec.gap, bec.winding, bec.edge)
        entry["two_band"] = case_to_dict(two_band)
        ok = ok and entry["two_band"]["passed"]
    if cm.dim_v == 2 and cm.hop_range == 1:
        entry["gap_exclusion"] = case_to_dict(verify_gap_exclusion(cm, tol=tol))
        ok = ok and entry["gap_exclusion"]["passed"]
    entry["passed"] = ok
    return entry


def _cmd_verify(args, tol) -> int:
    if args.ensemble:
        spec = _parse_ensemble(args.ensemble, args.seed)
        models = random_chiral_ensemble(spec, tol=tol)
        raw = args.ensemble.encode()
        cases = []
        for i, cm in enumerate(models):
            entry = _verify_one(cm, args.cells, tol)
            entry["index"] = i
            cases.append(entry)
        passed = all(c["passed"] for c in cases)
        doc = {
            "meta": _meta(raw, spec.seed, tol, {"ensemble": args.ensemble, "cells": args.cells}),
            "cases": cases,
            "count": len(cases),
            "passed": passed,
        }
        _emit_json(doc, args.out)
        return 0 if passed else 1

    if args.fixture == "dimerized-all":
        names = ["dimerized-plus", "dimerized-minus", "dimerized-trivial"]
        raw = args.fixture.encode()
        doc_cases = {}
        passed = True
        for name in names:
            entry = _verify_one(fixture(name), args.cells, tol)
            doc_cases[name] = entry
            passed = passed and entry["passed"]
        doc = {
            "meta": _meta(raw, args.seed, tol, {"fixture": args.fixture, "cells": args.cells}),
            "cases": doc_cases,
            "passed": passed,
        }
        _emit_json(doc, args.out)
        return 0 if passed else 1

    model, grading, raw = _resolve_model(args, tol)
    cm = _require_chiral(model, grading, args, tol)
    entry = _verify_one(cm, args.cells, tol)
    doc = {"meta": _meta(raw, args.seed, tol, {"cells": args.cells}), **entry}
    _emit_json(doc, args.out)
    return 0 if entry["passed"] else 1


def _phase_routes(cm: ChiralModel, gap, cells, tol) -> tuple:
    """(winding, edge_index) of one gapped cell by its own two routes; "" where a route refuses."""
    try:
        winding = full_winding(cm, tol=tol).winding
    except ChiralEdgeError:
        winding = ""
    try:
        # Auto cells refuse (empty field) when the decay is too
        # slow to resolve the kernel, rather than undercounting.
        edge = edge_modes_truncated(cm, cells=cells, tol=tol, gap=gap).edge_index
    except ChiralEdgeError:
        edge = ""
    return winding, edge


def _linked_runs(symbols, gaps) -> list:
    """Maximal runs of neighbouring gapped cells, as lists of indices.

    Neighbours a and b link when their h_pm loops have the same shape and
    Laurent powers and D = sum_j ||c_j^b - c_j^a||_2 < (beta_a + beta_b) / 2,
    where beta = certificate_margin / 2 is chiral_gap's lower bound on the inf
    of sigma_min over the circle.  D bounds ||h_b - h_a|| on the whole circle
    without sampling, so by Weyl's inequality every h_s = (1 - s) h_a + s h_b
    has sigma_min >= max(beta_a - s D, beta_b - (1 - s) D) >= (beta_a + beta_b - D) / 2
    > 0: the segment stays gapped and both cells share their winding and edge
    index.  The factor 1/2 leaves room for rounding.  A cell without a gap is
    in no run, and a row whose loops differ in shape or powers links nothing.
    """
    if len(symbols) > 1 and len({(s.lowest_power, s.coeffs.shape) for s in symbols}) == 1:
        steps = np.linalg.norm(np.diff([s.coeffs for s in symbols], axis=0), 2, axis=(2, 3)).sum(axis=1)
    else:
        steps = np.full(max(len(symbols) - 1, 0), np.inf)
    margins = [gap.certificate_margin for gap in gaps]
    runs = []
    for i, gap in enumerate(gaps):
        if not gap.gapped:
            continue
        if runs and runs[-1][-1] == i - 1 and steps[i - 1] < (margins[i - 1] + margins[i]) / 4:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def _phase_row(family: str, name1: str, name2: str, cells, tol, points) -> list:
    """The phase-diagram rows [p1, p2, winding, edge_index, gap_margin, decided] of one grid row.

    Every cell is built and certified by chiral_gap; a cell whose zero-energy
    gap does not certify gets empty fields, and gap_margin is the sampled
    sigma_min of the last grid either way.  In each run of linked cells
    (_linked_runs) only the best-gapped cell runs both routes, and when they
    agree every other member takes its integers (decided "linked").  When the
    representative's routes refuse or disagree, every member decides by its
    own routes (decided "routes"): a refusal is never inherited.
    """
    cms = [FAMILIES[family][0](**{name1: float(v1), name2: float(v2)}) for v1, v2 in points]
    gaps = [chiral_gap(cm) for cm in cms]
    rows = [[v1, v2, "", "", gap.e_plus, ""] for (v1, v2), gap in zip(points, gaps)]
    for run in _linked_runs([cm.symbol("pm") for cm in cms], gaps):
        best = max(run, key=lambda i: gaps[i].certificate_margin)
        answer = _phase_routes(cms[best], gaps[best], cells, tol)
        inherit = answer[0] != "" and answer[0] == answer[1]
        for i in run:
            if i == best or inherit:
                rows[i][2:4] = answer
                rows[i][5] = "routes" if i == best else "linked"
            else:
                rows[i][2:4] = _phase_routes(cms[i], gaps[i], cells, tol)
                rows[i][5] = "routes"
    return rows


def _map_in_order(func, items) -> list:
    """[func(x) for x in items], spread over the CPUs of the affinity mask.

    Each call gets its own pool, one worker per CPU the process may run on
    and at most one per item, and joins it before returning.  Workers are
    forked, not spawned: a spawned worker imports numpy and scipy again,
    0.4-1 s on a 2-vCPU VM, more than two 71-cell ssh rows take.  Fewer than
    two workers (one item, one CPU, or a caller that is itself a daemonic
    worker and may not fork) run inline.  Pool.map's default chunks, about
    four per worker, even out the slow items.  Results come back in
    item order, so they do not depend on the worker count; an exception
    raised in a worker is raised again here.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(items))
    if workers >= 2:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            workers = 1
    if workers < 2:
        return [func(x) for x in items]
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        return pool.map(func, items)
    finally:
        pool.terminate()
        pool.join()


def _cmd_phase_diagram(args, tol) -> int:
    path = args.model or getattr(args, "model_path", None)
    if not path:
        raise ParseError("phase-diagram needs a family file")
    raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("family file must contain a JSON object")
    for fieldname in ("family", "param1", "param2"):
        if fieldname not in doc:
            raise ParseError(f"family file needs field {fieldname!r}")
    if not isinstance(doc["family"], str) or doc["family"] not in FAMILIES:
        raise ParseError(f"unknown family {doc['family']!r}; available: {sorted(FAMILIES)}")
    allowed = FAMILIES[doc["family"]][1]

    def axis(spec, which):
        if not isinstance(spec, dict) or not {"name", "min", "max"} <= spec.keys():
            raise ParseError(f"{which} must be an object with name, min and max")
        if spec["name"] not in allowed:
            raise ParseError(f"family {doc['family']!r} has parameters {allowed}, not {spec['name']!r}")
        return str(spec["name"]), parse_number(spec["min"], f"{which} min"), parse_number(spec["max"], f"{which} max")

    name1, lo1, hi1 = axis(doc["param1"], "param1")
    name2, lo2, hi2 = axis(doc["param2"], "param2")
    n1_str, _, n2_str = args.grid.lower().partition("x")
    n1, n2 = (parse_number(n, f"--grid {args.grid!r} (like 64x64)", int) for n in (n1_str, n2_str))
    if n1 < 0 or n2 < 0:
        raise ParseError(f"--grid sizes must not be negative, got {args.grid!r}")

    grid_rows = [[(v1, v2) for v2 in np.linspace(lo2, hi2, n2)] for v1 in np.linspace(lo1, hi1, n1)]
    row = functools.partial(_phase_row, doc["family"], name1, name2, args.cells, tol)
    rows = [cell for cells in _map_in_order(row, grid_rows) for cell in cells]
    meta = _meta(raw, args.seed, tol, {"grid": args.grid, "cells": args.cells, "family": doc["family"]})
    _emit_csv([name1, name2, "winding", "edge_index", "gap_margin", "decided"], rows, meta, args.out)
    return 0


# --- parser -------------------------------------------------------------------


def _tolerance(text: str) -> float:
    """A --tol. value: finite and positive (a NaN band would refuse no root)."""
    try:
        value = parse_number(text, "tolerance")
    except ParseError as exc:  # argparse turns only ArgumentTypeError into a usage error
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    """--tol.NAME for every Tolerances field; an absent flag leaves no attribute."""
    group = parser.add_argument_group("tolerance overrides (finite, positive)")
    for f in dataclasses.fields(Tolerances):
        group.add_argument(
            f"--tol.{f.name}", type=_tolerance, default=argparse.SUPPRESS, metavar="V", help=f"default {f.default:g}"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiraledge",
        description="Bulk winding numbers, edge-mode counts and their correspondence "
        "for finite-range graded 1D lattice models.",
    )
    parser.add_argument("--version", action="version", version=f"chiraledge {__version__}")
    _add_tolerance_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("model_path", nargs="?", help="model JSON file")
    common.add_argument("--model", help="model JSON file (alternative to the positional)")
    common.add_argument(
        "--fixture", help=f"built-in fixture, one of: {', '.join(FIXTURE_NAMES)}; parametric via name:k=v,..."
    )
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--auto-grading", action="store_true", help="derive a grading by 2-coloring")
    _add_tolerance_flags(common)

    p = sub.add_parser("spectrum", parents=[common], help="band structure CSV and gap report")
    p.add_argument("--samples", type=int, default=NUM_K_DEFAULT)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("winding", parents=[common], help="bulk winding number")
    p.add_argument("--samples", type=int, default=NUM_K_DEFAULT)
    p.add_argument("--curve-out", help="CSV dump of the sampled block determinant")
    p.set_defaults(func=_cmd_winding)

    p = sub.add_parser("edge", parents=[common], help="edge-mode kernel dimensions and index")
    p.add_argument("--cells", type=int)
    p.add_argument("--method", choices=["truncated", "companion", "both"], default="both")
    p.set_defaults(func=_cmd_edge)

    p = sub.add_parser("scan", parents=[common], help="in-gap spectrum of the truncated half-space")
    p.add_argument("--cells", type=int, default=100)
    p.add_argument("--window", help="energy window LO,HI (default: certified gap shrunk by 5%%)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("modes", parents=[common], help="propagate initial data into a lattice mode")
    p.add_argument("--energy", default="0")
    p.add_argument("--initial", required=True, help="comma-separated components (real or re,im pairs)")
    p.add_argument("--steps", type=int)
    p.add_argument("--start", type=int, default=1, help="index of the window's first cell")
    p.add_argument("--back", type=int, default=0, help="additional leftward steps")
    p.set_defaults(func=_cmd_modes)

    p = sub.add_parser("deform", parents=[common], help="deform the symbol to diagonal monomials")
    p.add_argument("--csv-out", help="CSV of certificate surfaces")
    p.set_defaults(func=_cmd_deform)

    p = sub.add_parser("verify", parents=[common], help="run the correspondence checks")
    p.add_argument("--cells", type=int)
    p.add_argument("--ensemble", help="e.g. dim_v=2,range=1,count=50,seed=1,gap_floor=0.05,scale=1.0")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("phase-diagram", parents=[common], help="parameter sweep over a 2-parameter family")
    p.add_argument("--grid", default="64x64")
    p.add_argument("--cells", type=int)
    p.set_defaults(func=_cmd_phase_diagram)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key[len("tol.") :]: value for key, value in vars(args).items() if key.startswith("tol.")}
    tol = DEFAULT_TOL.replace(**overrides)
    try:
        return args.func(args, tol)
    except _INPUT_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(json.dumps({"error": "FileNotFound", "message": str(exc)}), file=sys.stderr)
        return 2
    except ChiralEdgeError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
