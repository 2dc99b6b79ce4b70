"""Synthetic input-stream generation for the cycle-level PIM simulation.

The runtime needs, per macro, a per-cycle activity factor: the fraction of the
stored weight bits whose input word line actually toggles (this is what turns
HR — the upper bound — into the realized Rtog).  Profiling in the paper shows
this *flip factor* fluctuates around 0.5–0.7 with occasional bursts (Fig. 5),
and the HR-aware mapping evaluator samples a 100-step flip sequence from a
normal distribution (Sec. 5.6).

Two generators are provided:

* :func:`flip_factor_sequence` — a temporally correlated, clipped Gaussian
  sequence of flip factors (the runtime's fast path);
* :class:`ActivationStreamGenerator` — full integer activation waves matching a
  dataset's statistics, used when the exact bit-serial Rtog trace of a macro is
  wanted (Fig. 4/5 experiments).

Both run their AR(1) recurrences through :data:`lfilter`: scipy's compiled
IIR routine, loaded on its own so that importing this module does not import
:mod:`scipy.signal`, whose package init pulls in ``scipy.stats``,
``interpolate`` and ``optimize`` and costs each process over a second of
start-up and about 70 MB.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
# numpy imports ``numpy.random`` on first use.  Every run draws from it, so it
# is loaded here, with the rest of a process's start-up, and not inside the
# first run of each daemon or pool worker.
import numpy.random  # noqa: F401

__all__ = ["flip_factor_sequence", "flip_factor_matrix",
           "ActivationStreamGenerator", "dataset_activation_stats"]


def _compiled_lfilter():
    """``scipy.signal.lfilter`` for an IIR denominator, without ``scipy.signal``.

    Executes the ``scipy.signal._sigtools`` extension found in scipy's
    ``signal`` directory, without running that package's ``__init__``, and
    calls its ``_linear_filter`` exactly as ``lfilter`` does when ``a`` has
    two or more coefficients.  The extension's single-phase init registers it
    in ``sys.modules``; that entry is put back as it was, so a later
    ``import scipy.signal`` loads its own copy the usual way.  Raises
    ``ImportError`` or ``AttributeError`` when scipy's layout differs.
    """
    import scipy
    from importlib.machinery import PathFinder
    from importlib.util import module_from_spec

    name = "scipy.signal._sigtools"
    spec = PathFinder.find_spec(
        name, [os.path.join(path, "signal") for path in scipy.__path__])
    if spec is None:
        raise ImportError(f"{name} not found")
    previous = sys.modules.get(name)
    try:
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if previous is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = previous
    linear_filter = module._linear_filter

    def lfilter(b, a, x, axis=-1, zi=None):
        b = np.atleast_1d(b)
        a = np.atleast_1d(a)
        x = np.asarray(x)
        if zi is None:
            return linear_filter(b, a, x, axis)
        return linear_filter(b, a, x, axis, np.asarray(zi))

    return lfilter


def _bind_lfilter():
    """The compiled core, or ``scipy.signal.lfilter`` when it cannot load."""
    try:
        return _compiled_lfilter()
    except (ImportError, AttributeError):
        from scipy.signal import lfilter
        return lfilter


#: ``lfilter(b, a, x, axis=-1, zi=None)``: ``scipy.signal.lfilter``'s
#: results, bit for bit, for a denominator of two or more coefficients (every
#: call here); bound once per process.
lfilter = _bind_lfilter()


def flip_factor_sequence(cycles: int, mean: float = 0.6, std: float = 0.15,
                         correlation: float = 0.7, seed: int = 0,
                         low: float = 0.05, high: float = 1.0) -> np.ndarray:
    """AR(1)-correlated clipped Gaussian flip factors, one per cycle.

    ``correlation`` controls how slowly activity changes cycle to cycle; the
    stationary distribution keeps the requested mean/std.  The recurrence
    ``state[t] = correlation * state[t-1] + innovation[t]`` runs through
    :data:`lfilter` (scipy's compiled ``lfilter`` core), which evaluates the
    same arithmetic in C.
    """
    if cycles <= 0:
        return np.zeros(0)
    if not 0.0 <= correlation < 1.0:
        raise ValueError("correlation must be in [0, 1)")
    rng = np.random.default_rng(seed)
    innovations = rng.normal(0.0, std * np.sqrt(1 - correlation ** 2), size=cycles)
    state = rng.normal(0.0, std)
    values, _ = lfilter([1.0], [1.0, -correlation], innovations,
                        zi=np.array([correlation * state]))
    return np.clip(values + mean, low, high)


def flip_factor_matrix(seeds: Sequence[int], cycles: int, mean: float = 0.6,
                       std: float = 0.15, correlation: float = 0.7,
                       low: float = 0.05, high: float = 1.0) -> np.ndarray:
    """Batched :func:`flip_factor_sequence`: one row per seed, ``(len(seeds), cycles)``.

    Row ``i`` is bit-identical to ``flip_factor_sequence(cycles, ..., seed=seeds[i])``
    — each row consumes its own RNG stream — but the AR(1) recurrences of all
    rows run in a single :data:`lfilter` call.  Nothing is memoized: the
    engine caches the activity derived from the matrix under the run's
    activity key (:mod:`repro.sim.level_cache`).  The matrix is returned
    read-only; copy before mutating.
    """
    seeds = tuple(int(s) for s in seeds)
    if cycles <= 0 or not seeds:
        return np.zeros((len(seeds), max(cycles, 0)))
    if not 0.0 <= correlation < 1.0:
        raise ValueError("correlation must be in [0, 1)")
    innovations = np.empty((len(seeds), cycles))
    states = np.empty((len(seeds), 1))
    innovation_std = std * np.sqrt(1 - correlation ** 2)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        innovations[i] = rng.normal(0.0, innovation_std, size=cycles)
        states[i, 0] = rng.normal(0.0, std)
    filtered, _ = lfilter([1.0], [1.0, -correlation], innovations, axis=1,
                          zi=correlation * states)
    values = np.clip(filtered + mean, low, high)
    values.setflags(write=False)
    return values


def dataset_activation_stats(inputs: np.ndarray) -> Tuple[float, float]:
    """(mean, std) of a dataset's input values, used to shape activation streams."""
    inputs = np.asarray(inputs, dtype=np.float64)
    return float(inputs.mean()), float(max(inputs.std(), 1e-6))


@dataclass
class ActivationStreamGenerator:
    """Generates integer activation waves for a macro's word lines.

    Activations are drawn from a Gaussian matched to the dataset statistics and
    quantized symmetrically to ``input_bits``; temporal correlation between
    consecutive waves lowers the realized toggle rate the same way real feature
    maps do (neighbouring pixels/tokens are similar).
    """

    rows: int
    input_bits: int = 8
    mean: float = 0.0
    std: float = 1.0
    correlation: float = 0.5
    seed: int = 0

    def generate(self, waves: int) -> np.ndarray:
        """Return (waves, rows) signed integer activations.

        The AR(1) recurrence over waves runs through :data:`lfilter` (axis
        0, all rows at once), the same formulation as
        :func:`flip_factor_matrix`.  RNG consumption matches the historical
        per-wave Python loop exactly — one ``rows``-sized draw for wave 0,
        then one ``(waves - 1, rows)`` batch whose C-order layout
        consumes the stream in the loop's wave-by-wave order — so the emitted
        integer codes are bit-identical to the loop's (for the default
        ``mean=0`` the intermediate floats are too; equivalence is enforced by
        ``tests/test_workloads_sim.py``).
        """
        if waves <= 0:
            return np.zeros((0, self.rows), dtype=np.int64)
        rng = np.random.default_rng(self.seed)
        qmax = (1 << (self.input_bits - 1)) - 1
        scale = max(3.0 * self.std, 1e-9) / qmax
        first = rng.normal(self.mean, self.std, size=self.rows)
        values = np.empty((waves, self.rows))
        values[0] = first
        if waves > 1:
            noise = rng.normal(0.0, self.std * np.sqrt(1 - self.correlation ** 2),
                               size=(waves - 1, self.rows))
            # Deviation-space AR(1): d[t] = correlation * d[t-1] + noise[t].
            deviations, _ = lfilter(
                [1.0], [1.0, -self.correlation], noise, axis=0,
                zi=self.correlation * (first - self.mean)[None, :])
            values[1:] = self.mean + deviations
        codes = np.clip(np.round(values / scale), -qmax - 1, qmax)
        return codes.astype(np.int64)
