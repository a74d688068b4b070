"""Exact-arithmetic toolkit for primitive Pythagorean triples (PPTs) whose
hypotenuse sits a fixed gap g above a leg, or whose legs differ by a fixed
gap f, plus the totient machinery behind the families' density limits.

`import pptriples` loads no submodule: each public name is imported from its
home module on first use (PEP 562), so a caller pays only for the layers it
touches."""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "_primes": "InadmissibleError SieveBudgetError UnsupportedRangeError factorize is_prime",
    "density": "DensityRow Family TotientSums build_sieve count_G1 count_GEE count_GEO "
    "count_GO count_pool density_report render_ratio",
    "hyp_gap": "GClass GFamilyItem GKind classify_g family_member generate_g_family "
    "invert_to_family iter_g_family",
    "leg_gap": "CfElement FSpec FTriple admissible_f cf_elements generate_f_triples "
    "iter_f_triples",
    "pell": "gamma_delta_power",
    "triples": "ParamPair Triple TripleClass classify_triple enumerate_ppts is_primitive "
    "iter_ppt_rows to_params",
    "zsqrt2": "DELTA GAMMA ONE SQRT2 ZERO QuadInt canonical_associate gcd ideal_generator splits",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
