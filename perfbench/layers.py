"""The traced run: each layer's public functions called in-process at fixed
sizes, with spans recorded from this file around the calls.

Spans are kept in memory (name, start, end, parent) and written out when the
run ends.  A layer's self time is its span minus its child spans.  While a
traced pass runs, the layer-boundary functions are replaced at their module
attribute by wrappers that open a span, so calls one layer makes into
another (run_reduce into diagonal_scan, diagonal_scan into
enumerate_catalog) become child spans without touching the program.
Functions called per grid point (order, out_order) are never wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
from dataclasses import asdict, dataclass
from statistics import median
from time import perf_counter

from symreduce import atlas, cli, design, diagonal, imprimitive, intmath, product, report

from workloads import CATALOG_SIZES, broken_triple, design_triple, load_catalog

OUT4_BOXES = ((12, 1024), (16, 2048), (24, 4096))
CATALOG_BOUNDS = {"1e7": 10**7, "1e9": 10**9, "1e11": 10**11}
DIAGONAL_BOUNDS = {"1e7": 10**7, "1e10": 10**10}
ADMISSIBLE_BATCH = 100_000
LOOKUP_BATCH = 300
PARTS_BATCH = 20_000

# Layer boundaries wrapped during a traced pass.  Each is looked up through
# its module attribute by the callers of interest.
BOUNDARIES = (
    (atlas, "enumerate_catalog"),
    (atlas, "out4_scan"),
    (diagonal, "diagonal_scan"),
    (product, "enumerate_product_cases"),
    (product, "m4_case"),
    (imprimitive, "imprimitive_family"),
    (design, "is_symmetric_admissible"),
    (report, "run_reduce"),
    (report, "emit"),
)

# In-process `main` argv per command name; the same commands the workloads
# run as subprocesses.
CLI_COMMANDS = {
    "check": ["check", "121", "25", "5"],
    "atlas-order": ["atlas", "order", "L3(4)"],
    "atlas-out": ["atlas", "out", "L3(4)"],
    "product-enumerate": ["product", "enumerate"],
    "product-m4": ["product", "m4", "6"],
    "imprimitive-family": ["imprimitive", "family", "7"],
    "diagonal-scan": ["diagonal", "scan", "--catalog-bound", str(10**7)],
    "reduce": ["reduce"],
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    root: int


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(
            id=len(self.spans),
            name=name,
            start=perf_counter(),
            end=0.0,
            parent=parent.id if parent else None,
            root=parent.root if parent else len(self.spans),
        )
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._open.pop()

    def self_time(self, rec: Span) -> float:
        children = sum(s.end - s.start for s in self.spans if s.parent == rec.id)
        return (rec.end - rec.start) - children

    def child(self, rec: Span, name: str) -> Span:
        return next(s for s in self.spans if s.parent == rec.id and s.name == name)

    @contextlib.contextmanager
    def boundaries(self):
        """Wrap every layer boundary in a span for the duration."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in BOUNDARIES]
        for mod, attr, fn in saved:
            setattr(mod, attr, self._wrap(f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}", fn))
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def as_records(self) -> list:
        return [asdict(s) for s in self.spans]


def _quiet_main(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@dataclass
class Inputs:
    """Seeded batches for the point-lookup and batch metrics, and the report
    that report.emit serializes."""

    names: list
    prime_power_candidates: list
    triples: list
    reduced: report.ReductionReport

    @classmethod
    def draw(cls, seed: int) -> "Inputs":
        rng = random.Random(seed)
        catalog = load_catalog()
        names = [rng.choice(catalog)[0] for _ in range(LOOKUP_BATCH)]
        candidates = [rng.randint(2, 10**6) for _ in range(PARTS_BATCH)]
        triples = [
            design_triple(rng) if rng.random() < 0.5 else broken_triple(rng)
            for _ in range(ADMISSIBLE_BATCH)
        ]
        return cls(names, candidates, triples, report.run_reduce())


def _call(module, attr: str, *args):
    # Resolved at call time, so a traced pass reaches the span wrapper.
    return getattr(module, attr)(*args)


def _lookup(names: list) -> None:
    for name in names:
        gid = atlas.parse_group(name)
        atlas.order(gid)
        atlas.out_order(gid)


def _each(fn, args_list: list) -> None:
    for args in args_list:
        fn(*args)


def calls(inputs: Inputs) -> list:
    """(metric, thunk) for every timed call of one pass, in order.  Batches
    bind the unwrapped function, so no span is opened per element."""
    call = functools.partial
    items = []
    for n_max, q_max in OUT4_BOXES:
        items.append((f"atlas.out4_scan.s.{n_max}x{q_max}", call(_call, atlas, "out4_scan", n_max, q_max)))
    for label, bound in CATALOG_BOUNDS.items():
        items.append((f"atlas.enumerate_catalog.s.{label}", call(_call, atlas, "enumerate_catalog", bound)))
    for label, bound in DIAGONAL_BOUNDS.items():
        items.append((f"diagonal.diagonal_scan.s.{label}", call(_call, diagonal, "diagonal_scan", bound)))
    items += [
        ("intmath.prime_powers_upto.s.1e6", call(intmath.prime_powers_upto, 10**6)),
        ("intmath.prime_power_parts.s", call(_each, intmath.prime_power_parts, [(q,) for q in inputs.prime_power_candidates])),
        ("atlas.lookup.s", call(_lookup, inputs.names)),
        ("design.is_symmetric_admissible.s.1e5", call(_each, design.is_symmetric_admissible, inputs.triples)),
        ("product.enumerate_product_cases.s.m2-3", call(_call, product, "enumerate_product_cases", 2, (2, 3))),
        ("product.enumerate_product_cases.s.m2-6", call(_call, product, "enumerate_product_cases", 2, (2, 3, 4, 5, 6))),
        ("product.m4_case.s.5", call(_call, product, "m4_case", 5)),
        ("product.m4_case.s.6", call(_call, product, "m4_case", 6)),
        ("imprimitive.imprimitive_family.s.2-1e4", call(_each, imprimitive.imprimitive_family, [(lam,) for lam in range(2, 10**4 + 1)])),
        ("report.run_reduce.s.default", call(_call, report, "run_reduce")),
    ]
    for fmt in ("json", "md"):
        items.append((f"report.emit.s.{fmt}", call(_call, report, "emit", inputs.reduced, fmt)))
    for command, argv in CLI_COMMANDS.items():
        items.append((f"cli.main.s.{command}", call(_quiet_main, argv)))
    return items


def _timed(thunk) -> float:
    start = perf_counter()
    thunk()
    return perf_counter() - start


def paired_round(inputs: Inputs, tracer: Tracer, traced_first: bool) -> dict:
    """Every call once with spans and once without, back to back, so that
    a change in machine speed between the two falls on both alike.  Returns
    the per-layer metrics of the traced calls and, as trace.overhead_frac,
    the median over calls of (traced - untraced) / untraced; the median
    keeps one slow moment from standing in for the overhead."""
    metrics = {}
    overheads = []
    for metric, thunk in calls(inputs):
        if not traced_first:
            untraced_s = _timed(thunk)
        with tracer.boundaries(), tracer.span(f"bench.{metric}") as rec:
            thunk()
        if traced_first:
            untraced_s = _timed(thunk)
        metrics[metric] = rec.end - rec.start
        if metric.startswith("diagonal.diagonal_scan.s."):
            scan = tracer.child(rec, "diagonal.diagonal_scan")
            metrics[f"diagonal.self_s.{metric.rsplit('.', 1)[-1]}"] = tracer.self_time(scan)
        elif metric == "report.run_reduce.s.default":
            metrics["report.run_reduce.self_s"] = tracer.self_time(tracer.child(rec, "report.run_reduce"))
        overheads.append((metrics[metric] - untraced_s) / untraced_s)
    metrics["trace.overhead_frac"] = median(overheads)
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def work_counts() -> dict:
    """Grid points and candidates per out4 box, groups per catalog bound.

    Grid points are counted as calls to atlas.out_order, which out4_scan
    makes once per grid point; this pass is not timed."""
    counts = {}
    real = atlas.out_order
    calls_made = 0

    def counting(*args, **kwargs):
        nonlocal calls_made
        calls_made += 1
        return real(*args, **kwargs)

    atlas.out_order = counting
    try:
        for n_max, q_max in OUT4_BOXES:
            calls_made = 0
            result = atlas.out4_scan(n_max, q_max)
            counts[f"atlas.out4_scan.grid_points.{n_max}x{q_max}"] = calls_made
            counts[f"atlas.out4_scan.candidates.{n_max}x{q_max}"] = len(result.candidates)
    finally:
        atlas.out_order = real
    for label, bound in CATALOG_BOUNDS.items():
        counts[f"atlas.enumerate_catalog.groups.{label}"] = len(atlas.enumerate_catalog(bound))
    return counts


def count_problems(counts: dict) -> tuple[int, list]:
    """(facts checked, problems) for the reference facts the counts must
    meet: one out4 candidate per box and the recorded catalog size per
    bound."""
    expected = {f"atlas.out4_scan.candidates.{n}x{q}": 1 for n, q in OUT4_BOXES}
    expected.update(
        {f"atlas.enumerate_catalog.groups.{label}": CATALOG_SIZES[b] for label, b in CATALOG_BOUNDS.items()}
    )
    problems = [f"{name} = {counts[name]}, expected {want}" for name, want in expected.items() if counts[name] != want]
    return len(expected), problems


def span_cost(n: int = 10_000) -> float:
    """Mean wall time of opening and closing one empty span."""
    tracer = Tracer()
    start = perf_counter()
    for _ in range(n):
        with tracer.span("empty"):
            pass
    return (perf_counter() - start) / n


def run_rounds(seed: int, seconds: float) -> tuple[dict, int, Tracer]:
    """Paired rounds, alternating which side of each pair runs first, while
    another round fits in `seconds` (at least one); per-layer metrics are
    medians over rounds."""
    inputs = Inputs.draw(seed)
    per_round: list[dict] = []
    start = perf_counter()
    while not per_round or (perf_counter() - start) * (len(per_round) + 1) / len(per_round) <= seconds:
        tracer = Tracer()
        per_round.append(paired_round(inputs, tracer, traced_first=len(per_round) % 2 == 0))
    result = {name: median(r[name] for r in per_round) for name in per_round[0]}
    result["trace.span_cost_s"] = span_cost()
    return result, len(per_round), tracer
