"""The package namespace: each public name is declared once, in the __all__
of the module that defines it, and the package exports exactly those names.
Importing the package runs only its own file; the first read of a name
loads the module that declares it, and the modules it imports.  Importing
the package, or fitting from a frequency table, does not load numpy; the
first array operation loads it with a one-thread BLAS pool."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import preqscore

PUBLIC = {
    "NEGBIN", "POISSON", "TIE", "ExperimentConfig", "ExperimentResult", "FitResult",
    "FrequencyTable", "GeneratorSpec", "NegBinBetaState", "PoissonGammaState", "PredictiveRatio",
    "PrequentialTrace", "PriorSpec", "RuleParams", "ScoreDomainError", "empirical_total_score",
    "export_csv", "fit_minimum_score", "generator_deriv", "generator_value",
    "poisson_empirical_score", "predictive_ratio", "prequential_blocks", "prequential_step",
    "ratio_from_weights", "render_svg", "run_experiment", "run_prequential", "sample_negbin",
    "sample_poisson", "score_point", "select_model", "substream_seed", "sufficient_score",
}

# The command line is not part of the library namespace.
LIBRARY_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(preqscore.__path__) if info.name not in ("cli", "__main__")
)


def test_package_exports_the_public_names_once():
    assert set(preqscore.__all__) == PUBLIC
    assert len(preqscore.__all__) == len(PUBLIC)


def test_public_attributes_are_the_exported_names_and_modules():
    """Beside the exports, only the submodules: cli too once something imports it."""
    public = {name for name in dir(preqscore) if not name.startswith("_")} - {"cli"}
    assert public == PUBLIC | set(LIBRARY_MODULES)


# The variables OpenBLAS reads for its thread count as numpy loads.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = str(Path(preqscore.__file__).resolve().parents[1])


def probe(code, **variables):
    """Run code in a fresh interpreter with none of the BLAS thread variables
    but those given, and return what it prints."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARIABLES}
    done = subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": SRC, **variables},
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout


THREADS = "len(os.listdir('/proc/self/task'))"


NUMPY_LOADED = "'numpy' in sys.modules"


@pytest.mark.parametrize("module_name", LIBRARY_MODULES)
def test_module_exports_are_package_attributes(module_name):
    """In a fresh interpreter the package loads the submodule, then each name, at its first read."""
    out = probe(f"import preqscore; module = preqscore.{module_name}; "
                "print([name for name in module.__all__ if getattr(preqscore, name) is not getattr(module, name)])")
    assert out == "[]\n"


def test_star_import_binds_exactly_the_public_names():
    out = probe("from preqscore import *; print(sorted(name for name in dir() if not name.startswith('_')))")
    assert out == f"{sorted(PUBLIC)}\n"


PACKAGE_MODULES = "sorted(name for name in sys.modules if name.startswith('preqscore'))"


@pytest.mark.parametrize("code, modules", [
    ("pass", ["preqscore"]),
    ("preqscore.fit_minimum_score", ["preqscore", "preqscore.estimation", "preqscore.scoring"]),
    # Tools probe modules for dunders such as __wrapped__.
    ("assert getattr(preqscore, '__wrapped__', None) is None", ["preqscore"]),
    # Notebooks probe objects for _repr_html_ and the like.
    ("assert not hasattr(preqscore, '_repr_html_')", ["preqscore"]),
], ids=["import", "fit_minimum_score", "dunder", "private"])
def test_first_read_loads_only_the_modules_it_needs_and_not_numpy(code, modules):
    out = probe(f"import sys, preqscore; {code}; print({PACKAGE_MODULES}, {NUMPY_LOADED})")
    assert out == f"{modules} False\n"


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        preqscore.no_such_name


def test_fit_from_a_frequency_table_does_not_load_numpy(tmp_path):
    path = tmp_path / "freq.csv"
    path.write_text("0,3\n1,2\n5,1\n")
    out = probe("import sys; from preqscore import cli; "
                f"cli.main(['fit', '--freq', {str(path)!r}, '--a', '1', '--m', '1.5']); "
                f"print({NUMPY_LOADED})")
    assert out == ('{"theta_hat": 0.8784036259421719, "score": -5.293570693357582, '
                   '"method": "closed-form", "iterations": 0}\nFalse\n')


@pytest.mark.parametrize("argv, modules", [
    (["fit", "--freq", "FREQ"], ["estimation"]),
    (["score", "--freq", "FREQ", "--model", "negbin", "--mode", "suff"], ["conjugate", "engine", "simulation"]),
    (["compare", "--data", "DATA"], ["conjugate", "engine", "simulation"]),
    (["simulate", "--truth", "poisson", "--n", "5", "--replicates", "2", "--out", "OUT"],
     ["chart", "conjugate", "engine", "simulation"]),
], ids=["fit", "score", "compare", "simulate"])
def test_command_loads_only_the_modules_it_uses(tmp_path, argv, modules):
    """Besides the package, cli and scoring, which every command uses."""
    (tmp_path / "freq.csv").write_text("0,3\n1,2\n5,1\n")
    (tmp_path / "data.txt").write_text("0\n3\n1\n")
    paths = {"FREQ": tmp_path / "freq.csv", "DATA": tmp_path / "data.txt", "OUT": tmp_path / "out"}
    argv = [str(paths.get(arg, arg)) for arg in argv]
    out = probe(f"import sys; from preqscore import cli; cli.main({argv!r}); print({PACKAGE_MODULES})")
    loaded = ["preqscore", "preqscore.cli", "preqscore.scoring", *(f"preqscore.{name}" for name in modules)]
    assert out.splitlines()[-1] == str(sorted(loaded))


# An array operation, which loads numpy.
ARRAY_CALL = "preqscore.FrequencyTable.from_observations([1, 2])"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_array_call_loads_numpy_with_one_blas_thread_and_leaves_the_environment():
    """OpenBLAS would start a busy-waiting worker per extra core."""
    out = probe(f"import os, sys, preqscore; {ARRAY_CALL}; "
                f"print({NUMPY_LOADED}, {THREADS}, 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert out == "True 1 False\n"


def test_caller_thread_setting_is_kept():
    out = probe(f"import os, preqscore; {ARRAY_CALL}; print(os.environ['OPENBLAS_NUM_THREADS'])",
                OPENBLAS_NUM_THREADS="2")
    assert out == "2\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_numpy_loaded_first_keeps_its_pool():
    numpy_alone = probe(f"import os, numpy; print({THREADS})")
    assert probe(f"import os, numpy, preqscore; {ARRAY_CALL}; print({THREADS})") == numpy_alone
