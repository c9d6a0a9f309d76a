"""What ``import sqglab`` loads, that every public name resolves, and that
``sqglab/__init__.py`` lists each public name once."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import sqglab

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_size.py"
_spec = importlib.util.spec_from_file_location("src_size", TOOL)
src_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_size)

# the public names, by the module that defines them, kept apart from the
# package's own _PUBLIC table so that each pins the other
PUBLIC = {
    "errors": ["BlowUpError", "BudgetError", "ConfigError", "ParameterError",
               "SnapshotFormatError"],
    "spectral": ["Grid", "RealField", "SpectralField", "dealias",
                 "forward_transform", "inverse_transform", "sobolev_norm",
                 "sup_and_gradient_sup"],
    "dynamics": ["SolverConfig", "SolverState", "adapt_dt", "initial_state",
                 "nonlinear_term", "run_until", "step"],
    "diagnostics": ["NormSeries", "check_boundedness", "fit_decay_exponent",
                    "integral_tail_fraction", "record_norms"],
    "initial": ["band_limited_random", "make_initial"],
    "config": ["parse_config"],
    "modulus": ["build_knv_modulus", "check_modulus", "default_offsets"],
    "oracles": ["convergence_ratio", "convolution_nonlinearity",
                "linear_heat_exact", "scaling_consistency", "single_mode_exact"],
    "snapshot": ["read_snapshot", "write_snapshot"],
}

# run in a fresh interpreter, so no earlier test has loaded a module
CHECK = """
import importlib, sys
import sqglab

public = {public!r}
# the load order moves where numpy places arrays, which peak RSS shows
loaded = [m for m in sys.modules if m.startswith("sqglab.")]
assert loaded == ["sqglab.errors", "sqglab.spectral", "sqglab.dynamics",
                  "sqglab.initial", "sqglab.diagnostics"], f"import sqglab loaded {{loaded}}"
assert sorted(sqglab.__all__) == sorted(n for ns in public.values() for n in ns)
assert sqglab.__all__ == [n for ns in sqglab._PUBLIC.values() for n in ns]
assert set(sqglab.__all__) <= set(dir(sqglab))

for module, names in public.items():
    defining = importlib.import_module(f"sqglab.{{module}}")
    for name in names:
        assert getattr(sqglab, name) is getattr(defining, name), name

star = {{}}
exec("from sqglab import *", star)
missing = set(sqglab.__all__) - set(star)
assert not missing, f"from sqglab import * left out {{sorted(missing)}}"

try:
    sqglab.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("sqglab.no_such_name resolved")
print("ok")
"""


def test_import_loads_only_the_stepping_modules():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(sqglab.__file__)))
    out = subprocess.run([sys.executable, "-c", CHECK.format(public=PUBLIC)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_from_import_of_a_lazy_name_binds_it():
    # a lazy name, once resolved, is a plain attribute of the package
    from sqglab import check_modulus
    from sqglab.modulus import check_modulus as defined

    assert check_modulus is defined
    assert vars(sqglab)["check_modulus"] is defined


def test_each_public_name_is_written_once():
    # src_size reads the names from the table, so CI's cap on them holds
    path = TOOL.parent.parent / "src" / "sqglab" / "__init__.py"
    init = ast.parse(path.read_text(encoding="utf-8"))
    assert len(src_size.public_names(init)) == len(sqglab.__all__)
    strings = [node.value for node in ast.walk(init)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    for name in sqglab.__all__:
        assert strings.count(name) == 1, name
