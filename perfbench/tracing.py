"""In-process traced run: spans around calls into the library's public functions.

The benchmark calls `pptriples.cli.main` on each request's argv inside its
own process and wraps a fixed set of library functions, wherever a
pptriples module refers to them, with a recorder.  Each call becomes a span
(name, start, end, parent, request); spans stay in memory until the run
ends.  A layer's self time is its span minus the spans of its children.

Only functions called a bounded number of times per request are wrapped.
Counts and ratios come from return values (or arguments), never from
wrappers on per-item functions such as `family_params`.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

# (module, function): the span name is "<layer>.<function>", where the layer
# drops the module's leading underscore so metric names start with a letter.
TRACED = (
    ("hyp_gap", "generate_g_family"),
    ("hyp_gap", "invert_to_family"),
    ("triples", "enumerate_ppts"),
    ("zsqrt2", "ideal_generator"),
    ("zsqrt2", "gcd"),
    ("zsqrt2", "canonical_associate"),
    ("pell", "gamma_delta_power"),
    ("_primes", "factorize"),
    ("leg_gap", "cf_elements"),
    ("leg_gap", "generate_f_triples"),
    ("density", "build_sieve"),
    ("density", "density_report"),
    ("checks", "check_g_coverage"),
    ("checks", "check_f_coverage"),
    ("checks", "check_nonexistence"),
    ("checks", "check_pell"),
    ("checks", "check_density_cross"),
)
# Call sites that run once per item (every triple of a verify suite) stay unwrapped.
UNWRAPPED_SITES = {("checks", "invert_to_family")}
# Functions whose peak traced allocation is measured in a pass of its own.
PEAK = {
    "hyp_gap.generate_g_family",
    "triples.enumerate_ppts",
    "leg_gap.generate_f_triples",
    "density.build_sieve",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe(name, args, kwargs, result) -> dict:
    """Counts derived from a call's arguments and return value."""
    if name == "hyp_gap.generate_g_family":
        return {"items": len(result), "last_n": result[-1].n if result else 0}
    if name == "triples.enumerate_ppts":
        return {"items": len(result)}
    if name == "leg_gap.generate_f_triples":
        spec = _arg(args, kwargs, 0, "spec")
        span = _arg(args, kwargs, 2, "m_hi") - _arg(args, kwargs, 1, "m_lo") + 1
        return {"items": len(result), "branches": span * 2 ** len(spec.factorization) * 2}
    if name == "density.build_sieve":
        return {"entries": _arg(args, kwargs, 0, "bound") + 1}
    if name.startswith("checks."):
        return {"checks": result.checks}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans; with `memory`, also the peak allocation of PEAK calls,
    traced by tracemalloc from the call's start, so memory the process held
    before the call does not count."""

    def __init__(self, memory: bool = False):
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.request = -1
        self.memory = memory
        # tracemalloc slows a call 5-20x, so each distinct call is measured once
        self.measured: set[tuple[str, str]] = set()

    def call(self, name, fn, args, kwargs):
        if name == "pell.gamma_delta_power":
            name += "_pos" if _arg(args, kwargs, 0, "m") >= 0 else "_neg"
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(index)
        # a nested call counts in the outer one
        peak = self.memory and name in PEAK and not tracemalloc.is_tracing()
        if peak:
            key = (name, repr((args, kwargs)))
            peak = key not in self.measured
            self.measured.add(key)
        if peak:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if peak:
                peak_b = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.request)
        attrs = _observe(name, args, kwargs, result)
        if peak:
            attrs["peak_b"] = peak_b
        self.spans[index].attrs = attrs
        return result


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every reference to a TRACED function in pptriples modules for a
    recording wrapper, and restore the originals afterwards."""
    import importlib

    swapped = []
    for module, fname in TRACED:
        original = getattr(importlib.import_module(f"pptriples.{module}"), fname)
        name = f"{module.lstrip('_')}.{fname}"

        def wrapper(*args, _fn=original, _name=name, **kwargs):
            return tracer.call(_name, _fn, args, kwargs)

        for modname, mod in list(sys.modules.items()):
            if not (modname == "pptriples" or modname.startswith("pptriples.")):
                continue
            site = modname.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                if value is original and (site, fname) not in UNWRAPPED_SITES:
                    setattr(mod, attr, wrapper)
                    swapped.append((mod, attr, original))
    try:
        yield
    finally:
        for mod, attr, original in swapped:
            setattr(mod, attr, original)


@dataclass
class Response:
    code: int
    stdout: bytes
    stderr: bytes


def call_main(argv: list[str], tracer: Tracer | None) -> tuple[Response, float]:
    """Run `pptriples.cli.main(argv)` with stdout and stderr captured; return
    the response and the wall time of the call."""
    from pptriples import cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, (argv,), {})
        except SystemExit as exc:  # argparse exits on malformed input
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the response is judged like a traceback
            code, error = 1, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    stderr = err.getvalue().encode()
    if error is not None:
        stderr += b"Traceback (in-process): " + error.encode()
    return Response(code, out.getvalue().encode(), stderr), elapsed


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced pass (times in s, counts as counts)."""
    children: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.end - span.start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    sums: dict[str, float] = {}
    for i, span in enumerate(spans):
        dur = span.end - span.start
        total[span.name] = total.get(span.name, 0.0) + dur
        self_time[span.name] = self_time.get(span.name, 0.0) + dur - children.get(i, 0.0)
        for key, value in span.attrs.items():
            sums[f"{span.name}:{key}"] = sums.get(f"{span.name}:{key}", 0) + value

    def ratio(num: str, den: str) -> float:
        return sums.get(num, 0) / sums[den] if sums.get(den) else 0.0

    m = {
        "cli.main_s": total.get("cli.main", 0.0),
        "cli.self_s": self_time.get("cli.main", 0.0),
        "hyp_gap.generate_g_family_items": sums.get("hyp_gap.generate_g_family:items", 0),
        "hyp_gap.valid_index_share": ratio(
            "hyp_gap.generate_g_family:items", "hyp_gap.generate_g_family:last_n"
        ),
        "triples.enumerate_ppts_items": sums.get("triples.enumerate_ppts:items", 0),
        "leg_gap.generate_f_triples_items": sums.get("leg_gap.generate_f_triples:items", 0),
        "leg_gap.branch_yield_ratio": ratio(
            "leg_gap.generate_f_triples:items", "leg_gap.generate_f_triples:branches"
        ),
        "density.density_report_s": self_time.get("density.density_report", 0.0),
    }
    for module, fname in TRACED:
        name = f"{module.lstrip('_')}.{fname}"
        if name == "pell.gamma_delta_power":
            for sign in ("pos", "neg"):
                m[f"{name}_{sign}_s"] = total.get(f"{name}_{sign}", 0.0)
        elif name.startswith("checks.check_"):
            suite = name[len("checks.check_"):]
            m[f"checks.{suite}_s"] = total.get(name, 0.0)
            m[f"checks.{suite}_checks"] = sums.get(f"{name}:checks", 0)
        elif name != "density.density_report":
            m[f"{name}_s"] = total.get(name, 0.0)
    return m


def peak_metrics(spans: list[Span]) -> dict[str, float]:
    """Largest traced allocation per PEAK function, and the sieve's bytes per
    entry at its largest bound."""
    m = {f"{name}_peak_mb": 0.0 for name in sorted(PEAK - {"density.build_sieve"})}
    sieve = (0, 0)
    for span in spans:
        if "peak_b" not in span.attrs:
            continue
        if span.name == "density.build_sieve":
            sieve = max(sieve, (span.attrs["entries"], span.attrs["peak_b"]))
        else:
            key = f"{span.name}_peak_mb"
            m[key] = max(m[key], span.attrs["peak_b"] / 1e6)
    m["density.build_sieve_bytes_per_entry"] = sieve[1] / sieve[0] if sieve[0] else 0.0
    return m
