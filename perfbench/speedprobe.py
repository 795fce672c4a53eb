"""Fixed kernels whose times follow the speed of the solves.

The 2-core shared VM this benchmark was set on runs up to a third faster
or slower for minutes at a time, and interpreter-bound code and numpy work
on large fresh arrays each drift by their own amount.  Each kernel does
one of these kinds of work, so its time slows and speeds with the solvers
that do the same.  Neither touches rbannulus, so a change in the solvers
does not move them.

- python: an integer and dict loop in the interpreter, then small numpy
  calls on arrays that stay in the CPU caches, as the axis-parallel
  solvers run (interpreter-bound, with numpy calls in rect);
- numpy: pairwise distances over arrays of 25.6 MB allocated on every
  call, as the circle solvers' batched scoring runs.

The python kernel's arrays take about 300 KB.  The numpy kernel's
temporaries stay far under the peak of a circle workload but well over
the peak of an axis-parallel one, so a run times only its workload's
kernel; then neither moves a workload's peak memory.
"""

import time

import numpy

class SpeedProbe:
    """Times one kernel, "python" or "numpy", on demand and keeps every
    timing."""

    def __init__(self, kernel):
        self.name = kernel
        self.kernel = {"python": self.python_kernel,
                       "numpy": self.numpy_kernel}[kernel]
        # fixed numbers in a scrambled order; numpy.random is not needed,
        # and importing it alone would cost more memory than the kernels
        self.values = numpy.arange(10_000) * 7919 % 10_007 / 10_007.0
        self.small = self.values[:320].reshape(40, 8).copy()
        self.diffs = numpy.empty((40, 40, 8))
        self.dists = numpy.empty((40, 40))
        self.work = numpy.empty_like(self.values)
        self.large = (numpy.arange(8_000) * 7919 % 8_009 / 8_009.0
                      ).reshape(400, 20)
        self.samples = []

    def python_kernel(self):
        acc, table = 0, {}
        for i in range(150_000):
            acc += i * i % 7
            table[i & 255] = acc
        p, diffs, dists, work = self.small, self.diffs, self.dists, self.work
        for _ in range(200):
            numpy.subtract(p[:, None, :], p[None, :, :], out=diffs)
            numpy.multiply(diffs, diffs, out=diffs)
            diffs.sum(axis=-1, out=dists)
            numpy.sqrt(dists, out=dists)
            work[:] = self.values
            work.sort()

    def numpy_kernel(self):
        p = self.large
        for _ in range(2):
            diffs = p[:, None, :] - p[None, :, :]
            numpy.sqrt((diffs * diffs).sum(axis=-1))

    def __call__(self):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def seconds(self):
        """The kernel's time in this run.  For the python kernel that is
        its fastest timing: it is short, and its timings spread only
        upward, whenever anything interrupts it.  For the numpy kernel it
        is the median timing: its allocations spread them both ways."""
        if self.name == "python":
            return min(self.samples)
        got = sorted(self.samples)
        return got[len(got) // 2]
