"""Time-domain integration of the delayed relaxation equation by the method of steps.

The excited-state amplitude obeys

    beta'(t) = -(i*omega_tau + N*gamma_tau/2) * beta(t)
               - gamma_tau * sum_{l=1}^{N-1} (N - l) * beta(t - l) * Theta(t - l)

in tau = 1 units, with beta(0) = 1 and identically zero history (spontaneous
emission from the bare excited state).  Classical RK4 with step h = tau/M
stores each whole step and its cubic-Hermite midpoint.  Every delay is a
whole tau, so with X_i the 2M+1 half-step samples of interval [i, i+1], the
delayed stage inputs of all M steps of interval j are one weighted sum
v_j = sum_{l=1}^{min(j, N-1)} gamma*(N-l) * X_{j-l}: no history is
interpolated, and a term stays off for the step at whose right end it turns
on.  Given v_j, a chunk of C = 16 steps is one linear map, read once off the
stage formulas, from its start value and 2C+1 entries of v_j to its 2C new
samples.  An interval is ceil(M/C) chunks, the last one padded with zero
drive.  One buffer holds the interval's start value followed by v_j, so chunk
i's window of 2C+2 entries opens with the entry just before its inputs: the
true start value for chunk 0, the drive value s_i for the others.  One matrix
product of all these windows by the map gives every chunk from the start value
it read; when there are several chunks, doubling passes solve
d_i = R**C * d_{i-1} + (end of chunk i-1) - s_i, d_0 = 0, for each chunk's
error in its start value, and d_i times the start-value response is added
back.  A step with |R| >= 1 is refused, so every power of R is bounded by 1.
"""

from __future__ import annotations

import numpy as np

from .core import (AmplitudeTrace, DivergenceError, GiantAtomParams, check_budget,
                   check_int, check_positive)

__all__ = ["DEFAULT_STEPS_PER_TAU", "MAX_TRACE_SAMPLES", "integrate_beta", "beta_at",
           "beta_at_many"]

DEFAULT_STEPS_PER_TAU = 256

# Largest trace integrate_beta will build: 2*t_max*steps_per_tau + 1 samples,
# written straight into one complex array at 16 bytes per sample (about 268 MB
# at this budget).  At the default 256 steps per tau it allows t_max up to 32768.
# The march's scratch arrays each hold about one interval, 2*steps_per_tau + 1
# samples, whatever t_max is; that count is held to the same budget.  So is
# field.waveguide_probability's inside cone, N-1 rows of about 200 nodes each
# and their prefix sums, held at once, which grows with N alone and is checked
# before any row is built.
MAX_TRACE_SAMPLES = 2 ** 24

# steps per chunk map: the smallest steps_per_tau, so M = 16 is one chunk and no scan
_CHUNK = 16

# half-grid positions within 1e-9 of an integer index are treated as grid hits
_GRID_SNAP = 1e-9


def _rk4_step(y, g0, g1, g2, decay: complex, h: float):
    """Hermite midpoint and end value of one RK4 step of y' = decay*y - g, with
    g = g0, g1, g1, g2 at the stages; the end slope stays on the step's branch."""
    a1 = decay * y - g0
    y2 = y + 0.5 * h * a1
    a2 = decay * y2 - g1
    y3 = y + 0.5 * h * a2
    a3 = decay * y3 - g1
    y4 = y + h * a3
    a4 = decay * y4 - g2
    y_next = y + h / 6.0 * (a1 + 2.0 * (a2 + a3) + a4)
    f_end = a4 + decay * (y_next - y4)
    return 0.5 * (y + y_next) + 0.125 * h * (a1 - f_end), y_next


def integrate_beta(params: GiantAtomParams, t_max: float,
                   steps_per_tau: int = DEFAULT_STEPS_PER_TAU,
                   beta0: complex = 1.0 + 0.0j) -> AmplitudeTrace:
    """Integrate the delayed relaxation equation on [0, t_max].

    Returns an AmplitudeTrace sampled every h/2 with h = tau/steps_per_tau,
    over t_max rounded up to a whole step and over at least two steps.
    beta0 scales the initial excited-state amplitude (default: fully excited);
    the dynamics is linear, so the trace scales with it.  The samples are
    read-only, as every AmplitudeTrace makes its own.  Raises ValueError,
    before allocating anything, when the trace or one interval of the march's
    scratch would exceed MAX_TRACE_SAMPLES, or when the RK4 step is unstable
    for the decay rate (|R| >= 1).
    """
    check_positive("t_max", t_max)
    m = check_int("steps_per_tau", steps_per_tau, 16)

    n = params.n_legs
    h = 1 / m  # int division: 0.0 past float range, not an OverflowError
    # in floats: a huge t_max or steps_per_tau gives inf steps, not an OverflowError;
    # at least two steps, so the trace holds the 4 samples dense output needs
    n_steps = max(2.0, np.ceil(t_max / h - 1e-12) if h else np.inf)
    steps = m if m <= 2 ** 53 else "over 2**53"  # a huge m in full would flood the message
    check_budget(f"t_max = {t_max:g} at {steps} steps per tau",
                 max(2.0 * n_steps + 1.0, 2 * m + 1), "samples", MAX_TRACE_SAMPLES)
    n_steps = int(n_steps)
    decay = -1j * params.omega_tau - 0.5 * n * params.gamma_tau
    # the chunk map, read off unit inputs: row 0 is the start value, rows 1.. the
    # 2C+1 delayed inputs; columns are each step's midpoint and end value
    unit = np.eye(2 * _CHUNK + 2)
    cols = [unit[0]]
    for i in range(_CHUNK):
        cols += _rk4_step(cols[-1], *unit[2 * i + 1:2 * i + 4], decay, h)
    chunk_map = np.column_stack(cols[1:])
    k_y = chunk_map[0]  # the response to the start value
    r_end = k_y[1]  # one step's growth of the start value
    if abs(r_end) >= 1.0:
        raise ValueError(f"steps_per_tau = {m} is too coarse for this decay rate: each RK4 "
                         f"step grows the bare amplitude by |R| = {abs(r_end):.6g} >= 1")
    n_chunks = -(-m // _CHUNK)
    passes = [(s, k_y[-1] ** s) for s in (1 << p for p in range((n_chunks - 1).bit_length()))]
    # gamma*(N-l) for l = N-1 down to 1, the order of the rows below
    weights = params.gamma_tau * np.arange(1, n)

    samples = np.empty(2 * n_steps + 1, dtype=complex)
    samples[0] = beta0
    rows = _intervals(samples, 2 * m)  # row i is X_i, the 2M+1 samples of interval i
    # vb[0] is the interval's start value and vb[1:] its 2M+1 delayed inputs, then zero
    # padding; chunk i reads vb[2Ci : 2Ci+2C+2], so it starts from vb[2Ci].  A partial
    # last interval takes its whole drive and drops the samples past its end.
    vb = np.zeros(2 * _CHUNK * n_chunks + 2, dtype=complex)
    drive = vb[1:2 * m + 2]
    starts = vb[2 * _CHUNK:-2:2 * _CHUNK]  # s_i, the start value chunk i >= 1 reads
    windows = np.lib.stride_tricks.sliding_window_view(vb, 2 * _CHUNK + 2)[::2 * _CHUNK]
    local = np.empty((n_chunks, 2 * _CHUNK), dtype=complex)
    flat = local.reshape(-1)
    carry = np.zeros(n_chunks, dtype=complex)  # d_0 = 0: chunk 0 starts from its true value
    for j, start in enumerate(range(0, 2 * n_steps, 2 * m)):
        lag = min(j, n - 1)
        np.dot(weights[n - 1 - lag:], rows[j - lag:j], out=drive)
        vb[0] = samples[start]
        np.matmul(windows, chunk_map, out=local)
        if n_chunks > 1:  # d_i = c_i - vb[2Ci] = R**C * d_{i-1} + end of chunk i-1 - vb[2Ci]
            np.subtract(local[:-1, -1], starts, out=carry[1:])
            for s, power in passes:
                carry[s:] += power * carry[:-s]
            local += carry[:, None] * k_y
        k = min(2 * m, 2 * n_steps - start)  # half-steps in this interval
        samples[start + 1:start + k + 1] = flat[:k]

    bad = ~np.isfinite(samples)
    if bad.any():
        raise DivergenceError(f"non-finite amplitude at t = {np.argmax(bad) * 0.5 * h:g}")
    return AmplitudeTrace(dt=h, samples=samples, t_max=n_steps * h)


def _intervals(samples: np.ndarray, per_tau: int) -> np.ndarray:
    """Read-only view of samples whose row k is the per_tau + 1 samples of the
    whole interval [k, k+1], for every complete interval (none in a trace
    shorter than one tau); a row's last sample is the next row's first."""
    size, item = (len(samples) - 1) // per_tau, samples.itemsize
    return np.lib.stride_tricks.as_strided(samples, (size, per_tau + 1), (per_tau * item, item),
                                           writeable=False)


def check_trace_times(trace: AmplitudeTrace, ts) -> None:
    """Reject any time (nan included) outside [0, t_max] beyond rounding."""
    flat = np.atleast_1d(np.asarray(ts, dtype=float))
    if flat.size and not (flat.min() >= -1e-12 and flat.max() <= trace.t_max + 1e-9):
        raise ValueError(
            f"time outside trace range [0, {trace.t_max:g}]: "
            f"min {flat.min():g}, max {flat.max():g}"
        )


def beta_at_many(trace: AmplitudeTrace, ts) -> np.ndarray:
    """Vectorised dense output: cubic interpolation of the half-step samples.

    Exact (bit-identical) at stored grid points: a position within _GRID_SNAP
    of a sample is snapped onto it, where the cubic weights are one-hot.  The
    four-point stencil is kept inside a single smooth piece [k, k+1)*tau
    whenever possible, so the derivative breakpoints at whole multiples of tau
    do not degrade accuracy.  Raises ValueError for a trace of fewer than four
    samples, which has no four-point stencil.
    """
    ts = np.asarray(ts, dtype=float)
    flat = np.atleast_1d(ts)
    samples = trace.samples
    n = len(samples)
    if n < 4:
        raise ValueError(f"dense output needs a trace of at least 4 samples, got {n}")
    step = 0.5 * trace.dt
    check_trace_times(trace, flat)

    per_tau = 2 * trace.steps_per_tau
    lo = np.maximum(np.floor(flat).astype(int) * per_tau, 0)
    i0, (w0, w1, w2, w3) = _stencil(np.clip(flat / step, 0.0, n - 1.0), lo,
                                    np.minimum(lo + per_tau, n - 1))
    out = (w0 * samples[i0] + w1 * samples[i0 + 1]
           + w2 * samples[i0 + 2] + w3 * samples[i0 + 3])
    return out.reshape(ts.shape)


def _stencil(pos: np.ndarray, lo, hi):
    """First sample i0 and the four cubic weights of the stencil i0 .. i0+3 at
    positions pos, counted in samples, inside the smooth piece [lo, hi].

    A position within _GRID_SNAP of a sample is snapped onto it, where the
    weights are one-hot; a piece shorter than the stencil takes the four
    samples that end at hi.
    """
    nearest = np.rint(pos)
    pos = np.where(np.abs(pos - nearest) <= _GRID_SNAP, nearest, pos)
    i0 = np.minimum(np.maximum(np.floor(pos).astype(int) - 1, lo), hi - 3)
    u = pos - i0
    u1, u2, u3 = u - 1.0, u - 2.0, u - 3.0
    return i0, (-u1 * u2 * u3 / 6.0, u * u2 * u3 / 2.0, -u * u1 * u3 / 2.0, u * u1 * u2 / 6.0)


def beta_at(trace: AmplitudeTrace, t: float) -> complex:
    """Amplitude at an arbitrary time 0 <= t <= t_max (dense output)."""
    return complex(beta_at_many(trace, np.asarray([t]))[0])
