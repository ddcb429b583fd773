"""The three workloads: inputs made from the seed, one pass of items, checks.

Each workload object has
  setup()        make the inputs and their independent answers (timed as set-up)
  warm_up()      run one fixed item, so that lazy imports, caches and the
                 allocator's heap are filled before timing
  self_test()    feed the checker a deliberately wrong answer; True if caught
  run_pass(mark) run every item once, in the fixed interleaved order, and
                 return (outputs, seconds per call); mark(i) is called before
                 call i.  A call is one item, except for sweep: one grid.
  check(outputs, tally)  compare one pass's outputs with the independent answers
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np

from chiraledge import cli, config, fixtures, loops, verify
from chiraledge.errors import ChiralEdgeError

import oracle

_TAGS = {"ensemble": 1, "sweep": 2, "deform": 3}


def _sub_seed(seed: int, workload: str, *keys: int) -> int:
    state = np.random.SeedSequence([seed, _TAGS[workload], *keys]).generate_state(1)
    return int(state[0])


def _timed_calls(fn, inputs, mark):
    """(outputs, seconds) per call of fn; a refusal is kept as the output.

    Each fn looks up the package function when called, so the wrappers of
    the traced run apply.
    """
    outputs, times = [], []
    for i, x in enumerate(inputs):
        if mark:
            mark(i)
        start = time.perf_counter()
        try:
            out = fn(x)
        except ChiralEdgeError as exc:
            out = exc
        times.append(time.perf_counter() - start)
        outputs.append(out)
    return outputs, times


def _record_all(items_expected, outputs, tally, check) -> None:
    for expected, out in zip(items_expected, outputs):
        if isinstance(out, ChiralEdgeError):
            tally.record([f"{type(out).__name__}: {out}"], refused=True)
        else:
            tally.record(check(out, expected))


class Ensemble:
    """Seeded random gapped models, each checked by verify.verify_bec.

    The five (dim_v, range) shapes of the index-equality criterion, with the
    criterion's gap floor 0.05.  The cost of one model is set almost entirely
    by the truncation size the automatic route picks, and that size is heavy
    tailed (for (2, 3) the 99.9th percentile is ~11500 cells).  So each seed
    fills the same slots of predicted truncation size: slot i of a shape holds
    a model drawn from the seed whose predicted size is within 5% of the
    (i + 1/2)/16 quantile of that shape's natural distribution.  Every seed
    then gives new models with the same mix of small dense, large dense and
    sparse-path work.
    """

    name = "ensemble"
    shapes = [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2)]
    gap_floor = 0.05
    # Quantiles (i + 1/2)/16 of the predicted truncation size, from 3000
    # models per shape drawn by random_chiral_ensemble (seeds 900000..900004).
    slots = {
        (2, 1): [64] * 9 + [74, 88, 105, 128, 158, 226, 394],
        (2, 2): [64, 72, 84, 98, 112, 127, 143, 160, 182, 216, 245, 293, 354, 436, 581, 977],
        (2, 3): [100, 130, 160, 188, 213, 248, 283, 325, 374, 419, 490, 583, 722, 898, 1195, 1905],
        (4, 1): [64] * 4 + [74, 83, 95, 106, 120, 137, 159, 183, 217, 265, 334, 492],
        (4, 2): [96, 126, 151, 176, 202, 227, 256, 289, 328, 377, 433, 497, 582, 696, 865, 1228],
    }
    window = 1.05
    chunk = 32
    max_draws = 1200

    def __init__(self, seed: int):
        self.seed = seed
        self.items = []  # (model, (independent winding, dim_v))

    def _bounds(self, dim_v: int, targets):
        """Accepted predicted sizes per slot, kept on one side of the dense/sparse switch."""
        dense_max = getattr(config, "DENSE_SVD_MAX", None)
        switch = None if dense_max is None else dense_max // (dim_v // 2)
        bounds = []
        for t in targets:
            lo, hi = t / self.window, t * self.window
            if switch is not None:
                lo, hi = (lo, min(hi, switch)) if t <= switch else (max(lo, switch + 1), hi)
            bounds.append((lo, hi))
        return bounds

    def _fill(self, shape_index: int, dim_v: int, hop_range: int):
        targets = self.slots[(dim_v, hop_range)]
        bounds = self._bounds(dim_v, targets)
        chosen = [None] * len(targets)
        # Nearest draw so far for each slot still empty, in case the cap is
        # reached; only these are kept, so memory does not grow with draws.
        nearest = [(math.inf, None)] * len(targets)
        draws = 0
        while None in chosen and draws < self.max_draws:
            spec = verify.EnsembleSpec(
                seed=_sub_seed(self.seed, self.name, shape_index, draws // self.chunk),
                count=self.chunk,
                dim_v=dim_v,
                hop_range=hop_range,
                gap_floor=self.gap_floor,
            )
            for cm in verify.random_chiral_ensemble(spec):
                draws += 1
                facts = oracle.facts_of(cm)
                cells = facts.predicted_cells()
                item = (cm, (facts.winding, dim_v))
                free = [slot for slot in range(len(targets)) if chosen[slot] is None]
                fits = [slot for slot in free if bounds[slot][0] <= cells <= bounds[slot][1]]
                if fits:
                    chosen[fits[0]] = item
                    continue
                for slot in free:
                    distance = abs(math.log(cells / targets[slot]))
                    if distance < nearest[slot][0]:
                        nearest[slot] = (distance, item)
        return [c if c is not None else nearest[slot][1] for slot, c in enumerate(chosen)]

    def setup(self):
        per_shape = [self._fill(k, d, r) for k, (d, r) in enumerate(self.shapes)]
        # Interleave: slot i of every shape, then slot i + 1, ...
        self.items = [item for group in zip(*per_shape) for item in group]

    def warm_up(self):
        # Decay 0.979: the largest dense kernel count (768 cells), so the
        # allocator has grown to the pass's largest arrays before timing.
        cm = fixtures.ssh(0.979, 1.0)
        self._warm = (verify.verify_bec(cm), oracle.facts_of(cm).winding)

    def self_test(self) -> bool:
        case, w = self._warm
        tally = oracle.Tally()
        tally.record(self._check(case, (w, 2)))
        tally.record(self._check(case, (w + 1, 2)))
        return (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)

    @staticmethod
    def _check(case, expected):
        w, dim_v = expected
        return oracle.check_bec(case, w, dim_v)

    @property
    def items_per_pass(self) -> int:
        return len(self.items)

    def run_pass(self, mark=None):
        return _timed_calls(lambda cm: verify.verify_bec(cm), [cm for cm, _ in self.items], mark)

    def check(self, outputs, tally):
        _record_all([e for _, e in self.items], outputs, tally, self._check)


class Sweep:
    """Grid cells of the phase-diagram subcommand, run in-process through cli.main.

    Two grids per pass, each run as blocks of rows (one cli.main call per
    block), so that every call is timed several times in a window.  The
    alternating-bond (ssh) grid spans t1, t2 in [0.1, 2.0] with 8 x 71
    points, in 4 blocks of 2 t1 rows; 70 = 7 * 10, so every t1 value is also
    a t2 value and the grid crosses |t1| = |t2| on diagonal points (no gap:
    empty cells).  Beside the transition, for t1 >= 1.46, the nearest
    off-diagonal cells decay at >= 0.981 and the kernel count takes the
    sparse path; the row below (t1 = 1.19, decay 0.977) stays dense, 8% away
    from the switch, so the seed's shifts below never move a cell across it.  The
    defective-family grid spans theta and scale with 16 x 24 points, in 2
    blocks of 8 theta rows.  The seed moves the ends of every range inward by
    up to 0.02 (0.1 rad for theta, 0.005 for the lower scale), the same for
    both ssh axes, so the diagonal stays on the grid.
    """

    name = "sweep"
    # family, (name, rows, block rows), (name, columns)
    grids = (
        ("ssh", ("t1", 8, 2), ("t2", 71)),
        ("defective", ("theta", 16, 8), ("scale", 24)),
    )

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.calls = []  # (family, family file, "RxC", expected [(p1, p2)])

    def setup(self):
        rng = np.random.default_rng(_sub_seed(self.seed, self.name))
        j = rng.random(6)
        lo, hi = 0.1 + 0.02 * j[0], 2.0 - 0.02 * j[1]
        ranges = {
            "ssh": ((lo, hi), (lo, hi)),
            "defective": ((-math.pi + 0.1 * j[2], math.pi - 0.1 * j[3]), (0.5 + 0.005 * j[4], 2.0 - 0.02 * j[5])),
        }
        for family, (name1, rows, block), (name2, cols) in self.grids:
            (lo1, hi1), (lo2, hi2) = ranges[family]
            axis1 = np.linspace(lo1, hi1, rows)
            for b in range(rows // block):
                first, last = float(axis1[b * block]), float(axis1[(b + 1) * block - 1])
                doc = {
                    "family": family,
                    "param1": {"name": name1, "min": first, "max": last},
                    "param2": {"name": name2, "min": lo2, "max": hi2},
                }
                path = self.workdir / f"family-{family}-{b}-seed{self.seed}.json"
                path.write_text(json.dumps(doc))
                points = [
                    (float(a), float(c)) for a in np.linspace(first, last, block) for c in np.linspace(lo2, hi2, cols)
                ]
                self.calls.append((family, path, f"{block}x{cols}", points))
        # One cell at decay 0.979: the largest dense kernel count.
        warm = {
            "family": "ssh",
            "param1": {"name": "t1", "min": 0.979, "max": 0.979},
            "param2": {"name": "t2", "min": 1.0, "max": 1.0},
        }
        self.warm_file = self.workdir / "family-warm-up.json"
        self.warm_file.write_text(json.dumps(warm))

    @staticmethod
    def _phase_diagram(path, grid: str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["phase-diagram", str(path), "--grid", grid])
        return code, buf.getvalue()

    @staticmethod
    def _rows(text: str):
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        return [ln.split(",") for ln in lines[1:]]

    def warm_up(self):
        self._warm = self._phase_diagram(self.warm_file, "1x1")

    def self_test(self) -> bool:
        code, text = self._warm
        row = self._rows(text)[0]
        wrong = list(row)
        wrong[2] = "0"
        tally = oracle.Tally()
        tally.record(oracle.check_cell(row, 0.979, 1.0, oracle.ssh_expected))
        tally.record(oracle.check_cell(wrong, 0.979, 1.0, oracle.ssh_expected))
        return code == 0 and (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)

    @property
    def items_per_pass(self) -> int:
        return sum(len(points) for *_, points in self.calls)

    def run_pass(self, mark=None):
        return _timed_calls(lambda c: self._phase_diagram(c[1], c[2]), self.calls, mark)

    def check(self, outputs, tally):
        expect = {"ssh": oracle.ssh_expected, "defective": oracle.defective_expected}
        for (family, _, _, points), (code, text) in zip(self.calls, outputs):
            rows = self._rows(text)
            if code != 0 or len(rows) != len(points):
                for _ in points:
                    tally.record([f"{family} block: exit code {code}, {len(rows)} rows for {len(points)} cells"])
                continue
            for row, (p1, p2) in zip(rows, points):
                tally.record(oracle.check_cell(row, p1, p2, expect[family]))


class Deform:
    """loops.full_deformation of built-in fixtures and of seeded random small symbols.

    Per pass: the three dimerized limits, two ssh points (one on each side of
    the transition) and two defective-family points, with seeded parameters,
    then 10 random gapped symbols of each shape (2, 1), (2, 2) and (4, 1).
    A singular leading hop shortens the symbol and with it the homotopy (for
    (2, 1) it takes a third of the time), so every seed gets the generator's
    own share of them, one in five: 8 regular and 2 singular per shape.
    """

    name = "deform"
    shapes = [(2, 1), (2, 2), (4, 1)]
    regular, singular = 8, 2

    def __init__(self, seed: int):
        self.seed = seed
        self.items = []  # (model, (winding, natural range, q))

    @staticmethod
    def _expected(cm):
        facts = oracle.facts_of(cm)
        return facts.winding, facts.natural_range, cm.dim_plus

    def setup(self):
        rng = np.random.default_rng(_sub_seed(self.seed, self.name))
        ratio = [1.5 + 1.5 * float(x) for x in rng.random(2)]
        small = [0.5 + float(x) for x in rng.random(2)]
        names = ["dimerized-plus", "dimerized-minus", "dimerized-trivial"]
        names.append(f"ssh:t1={small[0]!r},t2={small[0] * ratio[0]!r}")
        names.append(f"ssh:t1={small[1] * ratio[1]!r},t2={small[1]!r}")
        for _ in range(2):
            theta, scale = -math.pi + 2 * math.pi * float(rng.random()), 0.5 + 1.5 * float(rng.random())
            names.append(f"defective:theta={theta!r},scale={scale!r}")
        fixed = [fixtures.fixture(name) for name in names]
        groups = [self._draw(k, d, r) for k, (d, r) in enumerate(self.shapes)]
        random_models = [cm for group in zip(*groups) for cm in group]
        self.items = [(cm, self._expected(cm)) for cm in fixed + random_models]

    def _draw(self, shape_index: int, dim_v: int, hop_range: int):
        """The seed's first regular and singular models, singular ones spread evenly."""
        regular, singular = [], []
        chunk_index = 0
        while len(regular) < self.regular or len(singular) < self.singular:
            spec = verify.EnsembleSpec(
                seed=_sub_seed(self.seed, self.name, shape_index, chunk_index),
                count=16,
                dim_v=dim_v,
                hop_range=hop_range,
            )
            chunk_index += 1
            for cm in verify.random_chiral_ensemble(spec):
                (singular if oracle.singular_leading_hop(cm) else regular).append(cm)
        regular, singular = regular[: self.regular], singular[: self.singular]
        step = self.regular // self.singular
        return [m for i in range(self.singular) for m in regular[i * step : (i + 1) * step] + [singular[i]]]

    def warm_up(self):
        cm = fixtures.fixture("defective:theta=0.5")
        self._warm = (loops.full_deformation(cm), self._expected(cm))

    def self_test(self) -> bool:
        path, (w, nat, q) = self._warm
        tally = oracle.Tally()
        tally.record(oracle.check_deformation(path, w, nat, q))
        tally.record(oracle.check_deformation(path, w + 1, nat, q))
        return (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)

    @property
    def items_per_pass(self) -> int:
        return len(self.items)

    def run_pass(self, mark=None):
        return _timed_calls(lambda cm: loops.full_deformation(cm), [cm for cm, _ in self.items], mark)

    def check(self, outputs, tally):
        _record_all(
            [e for _, e in self.items], outputs, tally, lambda path, e: oracle.check_deformation(path, *e)
        )


WORKLOADS = {"ensemble": Ensemble, "sweep": Sweep, "deform": Deform}
