"""Fixed reference mixes that measure how fast the machine runs at this moment.

The benchmark's machine shares its cores with other tenants, and the speed
one process gets drifts by up to 2x over seconds to minutes. Every time the
benchmark reports is therefore scaled to a nominal machine speed: just
before each timed call it times a reference mix, and multiplies the call's
wall time by the mix's nominal time over its measured time. On this machine
in its usual state the factor is close to 1.

There are two mixes, each built from the kind of work that dominates what it
scales, so that it slows down when that work does:

* "compute", for calls into gdneg inside one process: interpreter-bound
  Python, small Hermitian eigenproblems, elementwise numpy on small complex
  matrices and `einsum` with path planning;
* "import", for whole processes and set-up, where importing dominates:
  compiling Python source and unmarshalling the code objects.

Neither imports nor reads anything of gdneg, so no change to the program can
move them.
"""

import marshal
import os
import statistics
import time

import numpy as np

REPEAT = 3


def _inputs():
    rng = np.random.default_rng(0)
    mats = []
    for d in (4, 6, 9, 16):
        for _ in range(6):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mats.append(g @ g.conj().T)
    tensors = [rng.standard_normal((3, 3, 3, 3)) for _ in range(6)]
    return mats, tensors, rng.standard_normal((8, 3, 3))


_MATS, _TENSORS, _BASIS = _inputs()
# The import mix compiles the benchmark's own spec.py, which does not change
# when the program does.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.py"),
          encoding="utf-8") as _fh:
    _SOURCE = _fh.read()


def _compute_mix():
    t0 = time.perf_counter()
    total = 0
    for k in range(5000):
        total += k * k
    for a in _MATS:
        np.linalg.eigvalsh((a + a.conj().T) / 2)[::-1].copy()
        float(np.max(np.abs(a - a.conj().T)))
        a.T.copy()
    for t in _TENSORS:
        np.einsum("ikjl,aji,blk->ab", t, _BASIS, _BASIS, optimize=True)
    return time.perf_counter() - t0


def _import_mix():
    t0 = time.perf_counter()
    data = marshal.dumps(compile(_SOURCE, "spec.py", "exec"))
    for _ in range(10):
        marshal.loads(data)
    return time.perf_counter() - t0


# kind: (mix, nominal seconds: about the mix's median time on this machine).
MIXES = {"compute": (_compute_mix, 0.0025), "import": (_import_mix, 0.0025)}


def scale(kind, warm=0.0):
    """Nominal over measured: the median time of REPEAT passes of the mix.

    A core that has just been idle runs slowly and erratically for a while,
    so a caller that has been waiting first spins the mix untimed for `warm`
    seconds.
    """
    mix, nominal = MIXES[kind]
    end = time.perf_counter() + warm
    while time.perf_counter() < end:
        mix()
    return nominal / statistics.median(mix() for _ in range(REPEAT))
