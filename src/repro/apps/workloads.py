"""Workload generators.

The paper's introduction motivates dynamic reconfiguration with wireless
equipment that must track "multiple or migrating international standards":
frame-structured baseband processing where different algorithm blocks run
in different runtime periods.  These generators produce :class:`JobSpec`
schedules with controllable *context locality*:

* :func:`frame_interleaved_jobs` — every frame touches every block in
  sequence (worst-case switch rate: one switch per invocation on a
  single-context fabric);
* :func:`batched_jobs` — all invocations of a block run back to back
  (best case: one switch per block);
* :func:`random_mix_jobs` — seeded random block order (intermediate);
* :func:`golden_outputs` — reference results from the executable
  specification, for end-to-end verification (memoized per job content:
  design points that share a data seed check against the same results).

All randomness is drawn from seeded private generators; identical
arguments give identical schedules.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .accelerators import (
    dct_blocks,
    fft_fixed,
    fir_filter,
    matmul_int,
    viterbi_decode,
    convolutional_encode,
    xtea_process,
)
from .driver import JobSpec

#: Default per-block job sizing (kept small so simulations stay fast while
#: still moving realistic burst traffic).
DEFAULT_SIZES = {
    "fir": 64,       # samples
    "fft": 32,       # points (64 words)
    "dct": 64,       # one 8x8 block
    "viterbi": 48,   # information bits
    "xtea": 32,      # words (16 blocks)
    "matmul": 6,     # N (72 words)
}

_FIR_TAPS = 8
_XTEA_KEY = [0x0123_4567, 0x89AB_CDEF, 0xFEDC_BA98, 0x7654_3210]


def _make_job(kind: str, rng: random.Random, sizes: Dict[str, int], label: str) -> JobSpec:
    size = sizes[kind]
    if kind == "fir":
        samples = [rng.randint(-20_000, 20_000) for _ in range(size)]
        coefs = [rng.randint(-8_000, 8_000) for _ in range(_FIR_TAPS)]
        return JobSpec("fir", samples, param=_FIR_TAPS, coefs=coefs, label=label)
    if kind == "fft":
        data = [rng.randint(-10_000, 10_000) for _ in range(2 * size)]
        return JobSpec("fft", data, param=size, label=label)
    if kind == "dct":
        pixels = [rng.randint(-128, 127) for _ in range(size)]
        return JobSpec("dct", pixels, param=0, label=label)
    if kind == "viterbi":
        bits = [rng.randint(0, 1) for _ in range(size)]
        symbols = convolutional_encode(bits)
        return JobSpec(
            "viterbi", symbols, param=size, n_outputs=size, label=label
        )
    if kind == "xtea":
        words = [rng.getrandbits(31) for _ in range(size)]
        return JobSpec("xtea", words, param=0, coefs=_XTEA_KEY, label=label)
    if kind == "matmul":
        n = size
        data = [rng.randint(-50, 50) for _ in range(2 * n * n)]
        return JobSpec("matmul", data, param=n, n_outputs=n * n, label=label)
    raise KeyError(f"unknown workload kind {kind!r}")


def frame_interleaved_jobs(
    accels: Sequence[str],
    n_frames: int,
    *,
    seed: int = 42,
    sizes: Optional[Dict[str, int]] = None,
) -> List[JobSpec]:
    """One invocation of every block per frame, frames back to back.

    On a single-context fabric this forces a context switch per
    invocation — the paper's costly case.
    """
    rng = random.Random(seed)
    sizes = {**DEFAULT_SIZES, **(sizes or {})}
    jobs: List[JobSpec] = []
    for frame in range(n_frames):
        for kind in accels:
            jobs.append(_make_job(kind, rng, sizes, f"frame{frame}.{kind}"))
    return jobs


def batched_jobs(
    accels: Sequence[str],
    n_frames: int,
    *,
    seed: int = 42,
    sizes: Optional[Dict[str, int]] = None,
) -> List[JobSpec]:
    """The same work as :func:`frame_interleaved_jobs`, grouped by block.

    One context switch per block regardless of frame count — the paper's
    cheap case ("several roughly same sized hardware accelerators that are
    not used in the same time").
    """
    rng = random.Random(seed)
    sizes = {**DEFAULT_SIZES, **(sizes or {})}
    jobs: List[JobSpec] = []
    for kind in accels:
        for frame in range(n_frames):
            jobs.append(_make_job(kind, rng, sizes, f"batch.{kind}.{frame}"))
    return jobs


def random_mix_jobs(
    accels: Sequence[str],
    n_jobs: int,
    *,
    seed: int = 42,
    sizes: Optional[Dict[str, int]] = None,
) -> List[JobSpec]:
    """A seeded random block order (intermediate context locality)."""
    rng = random.Random(seed)
    sizes = {**DEFAULT_SIZES, **(sizes or {})}
    return [
        _make_job(rng.choice(list(accels)), rng, sizes, f"mix{i}")
        for i in range(n_jobs)
    ]


def golden_outputs(spec: JobSpec) -> List[int]:
    """Reference result of a job from the executable specification.

    Computed once per distinct (accel, inputs, coefs, param) in a process,
    from a bounded cache; every call returns a fresh list.
    """
    coefs = None if spec.coefs is None else tuple(spec.coefs)
    return list(_golden(spec.accel, tuple(spec.inputs), coefs, spec.param))


@lru_cache(maxsize=256)
def _golden(
    accel: str, inputs: Tuple[int, ...], coefs: Optional[Tuple[int, ...]], param: int
) -> Tuple[int, ...]:
    if accel == "fir":
        return tuple(fir_filter(list(inputs), list(coefs[:param])))
    if accel == "fft":
        return tuple(fft_fixed(list(inputs), param))
    if accel == "dct":
        return tuple(dct_blocks(list(inputs)))
    if accel == "viterbi":
        return tuple(viterbi_decode(list(inputs), param))
    if accel == "xtea":
        masked = [w & 0xFFFFFFFF for w in inputs]
        out = xtea_process(masked, [k & 0xFFFFFFFF for k in coefs], decrypt=bool(param))
        return tuple(w - (1 << 32) if w & 0x80000000 else w for w in out)
    if accel == "matmul":
        n = param
        return tuple(matmul_int(list(inputs[: n * n]), list(inputs[n * n : 2 * n * n]), n))
    raise KeyError(f"no golden model for {accel!r}")


def switch_count_lower_bound(jobs: Sequence[JobSpec]) -> int:
    """Minimum context switches a single-context fabric needs for ``jobs``.

    Equals the number of adjacent job pairs that target different blocks,
    plus one for the initial load — the quantity the scheduler's
    instrumentation is checked against in tests.
    """
    if not jobs:
        return 0
    switches = 1
    for prev, cur in zip(jobs, jobs[1:]):
        if prev.accel != cur.accel:
            switches += 1
    return switches
