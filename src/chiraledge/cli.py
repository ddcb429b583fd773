"""Command-line entry point: model-file I/O, subcommands, reproducible outputs.

Every JSON/CSV output embeds the tool version, a hash of the input model, the
seed, and the tolerances in force.  Floats are rounded to 12 significant
digits so repeated runs are byte-identical at the same BLAS build and thread
count; printed numerical zeros such as singular_values_near_zero change digits
with OPENBLAS_NUM_THREADS.  phase-diagram runs in the calling process.  Each
grid row's gaps are certified as one stack of h_pm loops.  Neighbouring cells
of a row or a column link when a certified gapped segment joins them, directly
or through one certified midpoint, and the winding and edge routes run once
per linked component of the whole grid (the other members inherit the
integers).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
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
from .fixtures import FAMILIES, FIXTURE_NAMES, family_h_pm, fixture
from .halfspace import edge_modes_companion, edge_modes_truncated, in_gap_scan, in_gap_window
from .loops import full_deformation
from .models import (
    ChiralModel,
    MatrixLoop,
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
from .spectrum import band_structure, certified_gap, chiral_gap_margin, chiral_gaps, detect_gap
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
    try:
        return EnsembleSpec(
            seed=fields["seed"], count=fields["count"], dim_v=fields["dim_v"], hop_range=fields["range"],
            coefficient_scale=fields["scale"], gap_floor=fields["gap_floor"],
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


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


def _distance(c_a: np.ndarray, c_b: np.ndarray) -> np.ndarray:
    """D = sum_j ||c_j^b - c_j^a||_2 for each pair of two coefficient stacks (M, P, q, q)."""
    return np.linalg.norm(c_b - c_a, 2, axis=(2, 3)).sum(axis=1)


def _linked_components(stacks: list, gaps: list) -> list:
    """The linked components of a grid's gapped cells, as ascending lists of flat indices r * N + i.

    stacks[r] is grid row r's h_pm stack, a MatrixLoop with coeffs (N, P, q, q), and gaps holds
    chiral_gaps' reports of every cell in row-major order.  Neighbours a and b in a row or a column
    link when both are gapped and D = sum_j ||c_j^b - c_j^a||_2 < (beta_a + beta_b) / 2, where
    beta = certificate_margin / 2 is chiral_gaps' lower bound on the inf of sigma_min over the
    circle.  D bounds ||h_b - h_a|| on the whole circle without sampling, so by Weyl's inequality
    every h_s = (1 - s) h_a + s h_b has sigma_min >= max(beta_a - s D, beta_b - (1 - s) D)
    >= (beta_a + beta_b - D) / 2 > 0: the segment stays gapped and both cells share their winding
    and edge index.  The factor 1/2 leaves room for rounding.  A pair with D < beta_a + beta_b
    that fails the test is retried once through its midpoint h_m = (h_a + h_b) / 2, taken
    coefficient by coefficient: it links when h_m's own gap certifies and both halves pass the same
    test, with D_am and D_mb read from h_m's coefficients.  The midpoints of a row's links and of
    its column links to the row before are certified as one stack.  A cell without a gap is in no
    component.
    """
    if not gaps:
        return []
    n = len(stacks[0].coeffs)
    coeffs = np.concatenate([h_pm.coeffs for h_pm in stacks])
    beta = np.array([gap.certificate_margin / 2 for gap in gaps])
    root = list(range(len(gaps)))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for r in range(len(stacks)):
        cells = range(r * n, r * n + n)
        pairs = [(x - 1, x) for x in cells[1:]] + [(x - n, x) for x in cells if r]
        pairs = [(x, y) for x, y in pairs if gaps[x].gapped and gaps[y].gapped]
        if not pairs:
            continue
        a, b = np.array(pairs).T
        room = beta[a] + beta[b]
        d = _distance(coeffs[a], coeffs[b])
        linked = d < room / 2
        near = ~linked & (d < room)
        if near.any():
            c_a, c_b = coeffs[a[near]], coeffs[b[near]]
            mid = (c_a + c_b) / 2
            mid_gaps = chiral_gaps(MatrixLoop(stacks[r].lowest_power, mid))
            beta_m = np.array([gap.certificate_margin / 2 for gap in mid_gaps])
            linked[near] = (
                np.array([gap.gapped for gap in mid_gaps], dtype=bool)
                & (_distance(c_a, mid) < (beta[a[near]] + beta_m) / 2)
                & (_distance(mid, c_b) < (beta_m + beta[b[near]]) / 2)
            )
        for x, y in zip(a[linked].tolist(), b[linked].tolist()):
            root[find(y)] = find(x)
    components = {}
    for x, gap in enumerate(gaps):
        if gap.gapped:
            components.setdefault(find(x), []).append(x)
    return list(components.values())


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
        lo, hi = parse_number(spec["min"], f"{which} min"), parse_number(spec["max"], f"{which} max")
        if not math.isfinite(hi - lo):  # np.linspace would fill the axis with NaN
            raise ParseError(f"{which} span max - min overflows: {lo!r} to {hi!r}")
        return str(spec["name"]), lo, hi

    name1, lo1, hi1 = axis(doc["param1"], "param1")
    name2, lo2, hi2 = axis(doc["param2"], "param2")
    if name1 == name2:
        raise ParseError(f"param1 and param2 must name different parameters, got {name1!r} twice")
    n1_str, _, n2_str = args.grid.lower().partition("x")
    n1, n2 = (parse_number(n, f"--grid {args.grid!r} (like 64x64)", int) for n in (n1_str, n2_str))
    if n1 < 0 or n2 < 0:
        raise ParseError(f"--grid sizes must not be negative, got {args.grid!r}")

    family, axis1, axis2 = doc["family"], np.linspace(lo1, hi1, n1), np.linspace(lo2, hi2, n2)
    # One chiral_gaps stack per row: a whole-grid stack would hold every row's k-grid evaluations at once.
    stacks = [family_h_pm(family, **{name1: np.full(n2, v1), name2: axis2}) for v1 in axis1]
    gaps = [gap for h_pm in stacks for gap in chiral_gaps(h_pm)]
    rows = [[v1, v2, "", "", gap.e_plus, ""] for (v1, v2), gap in zip(itertools.product(axis1, axis2), gaps)]

    def routes(x):
        """(winding, edge_index) of cell x by its own two routes; "" where a route refuses."""
        cm = FAMILIES[family][0](**{name1: float(rows[x][0]), name2: float(rows[x][1])})
        try:
            winding = full_winding(cm, tol=tol).winding
        except ChiralEdgeError:
            winding = ""
        try:
            # Auto cells refuse (empty field) when the decay is too slow to resolve the kernel.
            edge = edge_modes_truncated(cm, cells=args.cells, tol=tol, gap=gaps[x]).edge_index
        except ChiralEdgeError:
            edge = ""
        return winding, edge

    # Only the best-gapped cell of a component is built as a model and runs both routes; when they
    # agree every other member takes its integers (decided "linked").  When they refuse or disagree,
    # every member runs its own (decided "routes"): a refusal is never inherited.  A cell whose gap
    # does not certify keeps empty fields; gap_margin is the sampled sigma_min of the last grid.
    for component in _linked_components(stacks, gaps):
        best = max(component, key=lambda x: gaps[x].certificate_margin)
        answer = routes(best)
        inherit = answer[0] != "" and answer[0] == answer[1]
        for x in component:
            rows[x][2:4] = answer if x == best or inherit else routes(x)
            rows[x][5] = "linked" if x != best and inherit else "routes"
    meta = _meta(raw, args.seed, tol, {"grid": args.grid, "cells": args.cells, "family": family})
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
