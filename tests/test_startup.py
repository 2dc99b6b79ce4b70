"""The sweep and service import path loads scipy's compiled filter routine,
not scipy's subpackages.

``repro.workloads.generator`` binds ``lfilter`` to ``_linear_filter`` of
scipy's ``_sigtools`` extension, executed without running ``scipy.signal``'s
package init, and ``scipy.sparse`` and ``scipy.stats`` are imported only
inside the functions that use them.  These tests pin that the compiled core
is the one bound, that it and its fallback return ``scipy.signal.lfilter``'s
bits on every call shape the generator uses, that ``scipy.signal`` still
imports afterwards, and that a fresh interpreter running a sweep loads none
of ``scipy.signal``, ``scipy.stats`` or ``scipy.sparse``.
"""

import json
import os
import subprocess
import sys
from importlib.machinery import PathFinder

import numpy as np
import pytest

import repro
from repro.workloads import generator

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
HEAVY = ("scipy.signal", "scipy.stats", "scipy.sparse")


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter with ``src/`` on its path and
    return the JSON object it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def call_shape(shape: str, correlation: float):
    """``(x, axis, zi)`` of one of the generator's three call shapes."""
    rng = np.random.default_rng(11)
    if shape == "1-D":                 # flip_factor_sequence
        return rng.normal(size=500), -1, np.array([correlation * rng.normal()])
    if shape == "rows-by-cycles":      # flip_factor_matrix
        return (rng.normal(size=(6, 400)), 1,
                correlation * rng.normal(size=(6, 1)))
    # ActivationStreamGenerator.generate
    return rng.normal(size=(300, 5)), 0, correlation * rng.normal(size=(1, 5))


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def generator_outputs():
    """Every generator entry point that filters, at fixed seeds."""
    return (generator.flip_factor_sequence(700, seed=3),
            generator.flip_factor_sequence(700, correlation=0.0, seed=4),
            generator.flip_factor_matrix([1, 2, 3], 700),
            generator.ActivationStreamGenerator(rows=9, mean=0.4,
                                                seed=5).generate(60))


class TestCompiledFilter:
    @pytest.mark.parametrize("correlation", [0.0, 0.7])
    @pytest.mark.parametrize("shape",
                             ["1-D", "rows-by-cycles", "waves-by-rows"])
    def test_bit_identical_to_scipy_lfilter(self, shape, correlation):
        from scipy.signal import lfilter as reference
        x, axis, zi = call_shape(shape, correlation)
        b, a = [1.0], [1.0, -correlation]
        assert_same_bits(generator.lfilter(b, a, x, axis=axis, zi=zi),
                         reference(b, a, x, axis=axis, zi=zi))

    def test_compiled_core_is_bound(self):
        """A scipy release that moves ``_sigtools`` fails here instead of
        silently costing every process a second of start-up."""
        assert generator.lfilter.__module__ == generator.__name__
        # and left no scipy.signal module registered without its package
        assert "scipy.signal._sigtools" not in sys.modules \
            or "scipy.signal" in sys.modules

    def test_fallback_gives_the_same_bits(self, monkeypatch):
        # scipy.signal needs _sigtools too: import it before hiding that
        import scipy.signal
        find_spec = PathFinder.find_spec

        def sigtools_missing(name, path=None, target=None):
            if name == "scipy.signal._sigtools":
                return None
            return find_spec(name, path, target)

        with monkeypatch.context() as patch:
            patch.setattr(PathFinder, "find_spec",
                          staticmethod(sigtools_missing))
            fallback = generator._bind_lfilter()
        assert fallback is scipy.signal.lfilter
        compiled = generator_outputs()
        monkeypatch.setattr(generator, "lfilter", fallback)
        assert_same_bits(generator_outputs(), compiled)

    def test_a_later_scipy_signal_import_still_works(self):
        out = run_fresh(
            "import json, sys\n"
            "import numpy as np\n"
            "from repro.workloads import generator\n"
            "before = sorted(m for m in sys.modules\n"
            "                if m.startswith('scipy.signal'))\n"
            "import scipy.signal\n"
            "x = np.linspace(-1.0, 1.0, 64)\n"
            "y = scipy.signal.lfilter([1.0], [1.0, -0.5], x)\n"
            "z = generator.lfilter([1.0], [1.0, -0.5], x)\n"
            "print(json.dumps({\n"
            "    'before': before,\n"
            "    'registered': sys.modules['scipy.signal._sigtools']\n"
            "                  is scipy.signal._sigtools,\n"
            "    'same_bits': y.tobytes() == z.tobytes()}))\n")
        assert out == {"before": [], "registered": True, "same_bits": True}


def test_sweep_and_service_load_no_scipy_subpackage():
    """A fresh interpreter imports both packages and runs a two-run sweep
    (one ``booster`` and one ``dvfs`` run) without loading any of
    :data:`HEAVY`."""
    out = run_fresh(
        "import json, sys\n"
        "import repro.service, repro.sweep\n"
        "from repro.sweep import (SerialExecutor, SweepRunner, SweepSpec,\n"
        "                         WorkloadSpec)\n"
        "tiny = WorkloadSpec(builder='synthetic', groups=2,\n"
        "                    macros_per_group=2, banks=4, rows=8,\n"
        "                    n_operators=4, label='tiny')\n"
        "spec = SweepSpec(name='startup', workloads=(tiny,),\n"
        "                 controllers=('booster', 'dvfs'), betas=(10,),\n"
        "                 cycles=120, seeds=1, master_seed=7)\n"
        "result = SweepRunner(spec, SerialExecutor()).run()\n"
        f"heavy = {HEAVY!r}\n"
        "print(json.dumps({\n"
        "    'runs': len(result.sorted_records()),\n"
        "    'loaded': sorted(m for m in sys.modules if any(\n"
        "        m == h or m.startswith(h + '.') for h in heavy))}))\n")
    assert out == {"runs": 2, "loaded": []}
