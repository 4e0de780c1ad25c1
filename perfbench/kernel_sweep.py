#!/usr/bin/env python3
"""Time the active dense kernels of collidesim at dims 2^4, 2^6, 2^8 and 2^10.

    python3 perfbench/kernel_sweep.py

Prints microseconds per call with the computed bytes and floating-point
operations of one call. Computed bytes are the arrays a call must read and
write once (complex128 = 16 B, int64 = 8 B); cache misses are not counted.
Operations are those of the direct algorithm for the kernel's result (complex
multiply = 6, complex add = 2), whatever schedule the implementation uses.
Runs with whichever kernel set collidesim picked; numba is not needed.
"""

import statistics
import time

KERNELS = ("monomial_conj", "two_sparse_conj", "kron", "partial_trace", "expect_tr", "born_probs")
DIMS = (16, 64, 256, 1024)
C16 = 16  # bytes per complex128
I8 = 8  # bytes per int64


def kernel_cost(name, dims):
    """(computed bytes, flops) of one call, from the leading sizes of its array arguments."""
    if name == "monomial_conj":  # rho, perm, amps
        d = dims[0]
        return 2 * C16 * d * d + (I8 + C16) * d, 12 * d * d
    if name == "two_sparse_conj":  # rho, xidx, diag, off
        d = dims[0]
        return 2 * C16 * d * d + (I8 + 2 * C16) * d, 28 * d * d
    if name == "kron":  # a, b
        da, db = dims
        d = da * db
        return C16 * (da * da + db * db + d * d), 6 * d * d
    if name == "partial_trace":  # rho, keep_scatter, trace_scatter
        d, nk, nt = dims
        return C16 * (d * d + nk * nk) + I8 * (nk + nt), 2 * nk * nk * (nt - 1)
    if name == "expect_tr":  # op, rho
        d = dims[0]
        return 2 * C16 * d * d, 8 * d * d
    if name == "born_probs":  # vecs, rho: diag(V† rho V)
        d = dims[0]
        return 2 * C16 * d * d + 8 * d, 8 * d**3 + 8 * d * d
    raise ValueError(f"unknown kernel {name!r}")


def _inputs(np, name, d, rng):
    def cmat(n):
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    def phases(n):
        return np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))

    if name == "monomial_conj":
        return cmat(d), rng.permutation(d).astype(np.int64), phases(d)
    if name == "two_sparse_conj":
        return cmat(d), np.arange(d, dtype=np.int64) ^ 1, phases(d), phases(d)
    if name == "kron":
        return cmat(d // 2), cmat(2)
    if name == "partial_trace":  # trace out the least significant qubit
        return cmat(d), np.arange(0, d, 2, dtype=np.int64), np.arange(2, dtype=np.int64)
    if name == "expect_tr":
        return cmat(d), cmat(d)
    return np.ascontiguousarray(np.linalg.qr(cmat(d))[0]), cmat(d)


def time_call(fn, args, target_s):
    """Median seconds per call. The first call warms up; when it alone takes
    longer than target_s it is the measurement."""
    start = time.perf_counter()
    fn(*args)
    first = time.perf_counter() - start
    if first >= target_s:
        return first
    samples, spent = [], 0.0
    while spent < target_s or len(samples) < 3:
        start = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - start)
        spent += samples[-1]
    return statistics.median(samples)


def sweep(kernels, dims=DIMS, target_s=0.02, seed=0):
    """[(kernel, dim, us per call, computed bytes, flops)] for the given kernel module."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = []
    for name in KERNELS:
        fn = getattr(kernels, name)
        for d in dims:
            args = _inputs(np, name, d, rng)
            seconds = time_call(fn, args, target_s)
            moved, flops = kernel_cost(name, tuple(a.shape[0] for a in args))
            rows.append((name, d, seconds * 1e6, moved, flops))
    return rows


def sweep_metric_names(dims=DIMS):
    return [f"kernels.{k}.d{d}.us_per_call" for k in KERNELS for d in dims]


def main():
    from run import import_package

    cs, _ = import_package()
    print(f"kernel set: {cs.active_kernels}")
    print(f"{'kernel':<16} {'dim':>5} {'us/call':>12} {'bytes':>12} {'flops':>14} {'GB/s':>8} {'GFLOP/s':>8}")
    for name, d, us, moved, flops in sweep(cs._kernels):
        print(f"{name:<16} {d:>5} {us:>12.2f} {moved:>12} {flops:>14} {moved / us / 1e3:>8.3f} {flops / us / 1e3:>8.3f}")


if __name__ == "__main__":
    main()
