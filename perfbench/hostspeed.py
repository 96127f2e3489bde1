"""Host-speed probe: a fixed piece of work, independent of fbpinn, timed
between the benchmark's repeats.

The benchmark runs on a few cores of a shared host. Other tenants make
the same code run up to ~1.7x slower, in spells from under a second to
tens of seconds, and the slowdown shows in CPU time as well as in wall
time. The probe has the workloads' character and mix, so the host slows
it down in about the same proportion: a tanh network's forward and
backward passes on mini-batches with Adam updates (as loss_gradient and
the optimizer), a forward pass over a few thousand points (as the cache
refresh) and, every 20 iterations, one over a 30000-point grid, 3000
points at a time (as the recording; the chunks keep the probe's memory
well below the program's, so that peak_rss_mb stays the program's). The
benchmark probes before each repeat and after the last, and multiplies
each repeat's times by REFERENCE_S over the mean of the probes just
before and just after it: they read as seconds on the host at its
reference speed. A slower program still reads slower; a slower host does
not.
"""

from __future__ import annotations

from time import perf_counter

# The probe's time on a 2-core Xeon host with one BLAS thread (tenth
# percentile over a minute of probes). It sets the units only: the host
# is at times faster than this, and scaled times then exceed raw ones.
REFERENCE_S = 0.23
ITERATIONS = 100
POINTS = 3000
BATCH = 375
WIDTH = 16
REFRESH_ROWS = 3000
GRID = 30000
GRID_EVERY = 20


def probe():
    """Seconds taken by the fixed work; the work is the same on every call."""
    # imported here, after run.py has pinned BLAS to one thread
    import numpy as np
    rng = np.random.default_rng(12345)
    x = rng.uniform(-1.0, 1.0, (POINTS, 1))
    target = np.sin(15.0 * x)
    grid = np.linspace(-1.0, 1.0, GRID)[:, None]
    ws = [rng.standard_normal((1, WIDTH)),
          0.25 * rng.standard_normal((WIDTH, WIDTH)),
          0.25 * rng.standard_normal((WIDTH, 1))]
    bs = [np.zeros(WIDTH), np.zeros(WIDTH), np.zeros(1)]
    m = [np.zeros_like(w) for w in ws]
    v = [np.zeros_like(w) for w in ws]

    def forward(a):
        for w, b in zip(ws[:-1], bs[:-1]):
            a = np.tanh(a @ w + b)
        return a @ ws[-1] + bs[-1]

    start = perf_counter()
    for it in range(ITERATIONS):
        for lo in range(0, POINTS, BATCH):
            acts = [x[lo:lo + BATCH]]
            for w, b in zip(ws[:-1], bs[:-1]):
                acts.append(np.tanh(acts[-1] @ w + b))
            out = acts[-1] @ ws[-1] + bs[-1]
            g = 2.0 * (out - target[lo:lo + BATCH]) / BATCH
            grads = []
            for k in range(len(ws) - 1, -1, -1):
                grads.append(acts[k].T @ g)
                if k:
                    g = (g @ ws[k].T) * (1.0 - acts[k] ** 2)
            for k, grad in enumerate(reversed(grads)):
                m[k] = 0.9 * m[k] + 0.1 * grad
                v[k] = 0.999 * v[k] + 0.001 * grad * grad
                ws[k] = ws[k] - 1e-3 * m[k] / (np.sqrt(v[k]) + 1e-8)
        lo = (it * 977) % (GRID - REFRESH_ROWS)
        forward(grid[lo:lo + REFRESH_ROWS])
        if it % GRID_EVERY == GRID_EVERY - 1:
            for lo in range(0, GRID, REFRESH_ROWS):
                forward(grid[lo:lo + REFRESH_ROWS])
    return perf_counter() - start
