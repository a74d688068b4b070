"""What `perfbench/tracing.py` needs of the library, pinned here so that a
refactor cannot silently turn every traced benchmark request into a failure.

The harness looks each traced function up by (module, name), wraps it, and
reads `len()` of the enumerator's and the two generators' results (and the
last g-family item).
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pptriples
from pptriples import admissible_f, enumerate_ppts, generate_f_triples, generate_g_family

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = load_tracing()
    for module, fname in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"pptriples.{module}"), fname, None)), (
            module,
            fname,
        )
    names = {f"{module.lstrip('_')}.{fname}" for module, fname in tracing.TRACED}
    assert tracing.PEAK <= names


def test_generators_return_lists():
    items = generate_g_family(9, 3)
    triples = generate_f_triples(admissible_f(7), 0, 1)
    assert type(items) is list and len(items) == 3 and items[-1].n == 5
    assert type(triples) is list and len(triples) == 3
    assert type(enumerate_ppts(17)) is list


def test_a_traced_pass_leaves_no_wrapper_behind():
    """The harness imports only `pptriples.cli`, and `installed()` imports
    each traced layer as it swaps; a layer that bound a traced function by
    name at its import would keep the wrapper after the pass.  No module
    does: `checks`, first imported inside the pass, imports no `pptriples`
    module at its own import, and its suites import their layers when they
    run and call `pell.gamma_delta_power` and `leg_gap.cf_elements` through
    their modules."""
    probe = (
        f"import sys; sys.path.insert(0, {str(TRACING.parent)!r})\n"
        "import pptriples.cli, tracing\n"
        "with tracing.installed(tracing.Tracer()):\n"
        "    pass\n"
        "print(sorted(\n"
        "    f'{name}.{attr}' for name, mod in list(sys.modules.items())\n"
        "    if name.startswith('pptriples')\n"
        "    for attr, value in vars(mod).items()\n"
        "    if getattr(value, '__qualname__', '') == 'installed.<locals>.wrapper'\n"
        "))"
    )
    src = str(Path(pptriples.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    left = []
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{left}\n", "")
