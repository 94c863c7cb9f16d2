"""Time-domain integration of the delayed relaxation equation by the method of steps.

The excited-state amplitude obeys

    beta'(t) = -(i*omega_tau + N*gamma_tau/2) * beta(t)
               - gamma_tau * sum_{l=1}^{N-1} (N - l) * beta(t - l) * Theta(t - l)

in tau = 1 units, with beta(0) = 1 and identically zero history (spontaneous
emission from the bare excited state).  Every delay is an integer multiple of
tau, so a fixed step h = tau/M keeps all delayed stage arguments of classical
RK4 on a stored grid: endpoint stages hit whole steps, and midpoint stages hit
the cubic-Hermite midpoint sample that the marcher records for each completed
step.  No history is ever interpolated at integration time, and because h
divides tau no step straddles a derivative breakpoint at t = k*tau; each
step's end slope is evaluated on that step's own smooth branch so the dense
midpoints stay fourth-order accurate across breakpoints.
"""

from __future__ import annotations

import math

import numpy as np

from .core import AmplitudeTrace, DivergenceError, GiantAtomParams

__all__ = ["DEFAULT_STEPS_PER_TAU", "MAX_TRACE_SAMPLES", "integrate_beta", "beta_at",
           "beta_at_many"]

DEFAULT_STEPS_PER_TAU = 256

# Largest trace integrate_beta will build: 2*t_max*steps_per_tau + 1 samples.
# The marcher holds one Python complex per sample (~40 bytes, ~670 MB at this
# budget) before packing them into a 16-byte-per-sample array.  At the default
# 256 steps per tau it allows t_max up to 32768.
MAX_TRACE_SAMPLES = 2 ** 24

# half-grid positions within 1e-9 of an integer index are treated as grid hits
_GRID_SNAP = 1e-9


def integrate_beta(params: GiantAtomParams, t_max: float,
                   steps_per_tau: int = DEFAULT_STEPS_PER_TAU,
                   beta0: complex = 1.0 + 0.0j) -> AmplitudeTrace:
    """Integrate the delayed relaxation equation on [0, t_max].

    Returns an AmplitudeTrace sampled every h/2 with h = tau/steps_per_tau.
    beta0 scales the initial excited-state amplitude (default: fully excited);
    the dynamics is linear, so the trace scales with it.  Raises ValueError,
    before allocating anything, when the trace would exceed MAX_TRACE_SAMPLES.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be positive, got {t_max}")
    m = int(steps_per_tau)
    if m != steps_per_tau or m < 16:
        raise ValueError(f"steps_per_tau must be an integer >= 16, got {steps_per_tau!r}")

    n = params.n_legs
    gamma = params.gamma_tau
    h = 1.0 / m
    steps = t_max / h - 1e-12
    if steps > (MAX_TRACE_SAMPLES - 1) // 2:
        raise ValueError(
            f"t_max = {t_max:g} at {m} steps per tau needs about {2.0 * steps:.3g} "
            f"samples, above the budget of {MAX_TRACE_SAMPLES}"
        )
    n_steps = max(1, math.ceil(steps))
    decay = -1j * params.omega_tau - 0.5 * n * gamma
    # (half-index delay, coupling weight, first step index where the term is live)
    terms = [(2 * l * m, gamma * (n - l), l * m) for l in range(1, n)]

    samples = [0j] * (2 * n_steps + 1)
    y = complex(beta0)
    samples[0] = y
    sixth = h / 6.0
    half = 0.5 * h
    eighth = 0.125 * h

    live: list[tuple[int, float]] = []
    pending = iter(terms)
    upcoming = next(pending, None)
    for k in range(n_steps):
        while upcoming is not None and k >= upcoming[2]:
            live.append(upcoming[:2])
            upcoming = next(pending, None)
        base = 2 * k

        a1 = decay * y
        for d, w in live:
            a1 -= w * samples[base - d]
        y2 = y + half * a1
        a2 = decay * y2
        for d, w in live:
            a2 -= w * samples[base + 1 - d]
        y3 = y + half * a2
        a3 = decay * y3
        for d, w in live:
            a3 -= w * samples[base + 1 - d]
        y4 = y + h * a3
        a4 = decay * y4
        for d, w in live:
            a4 -= w * samples[base + 2 - d]
        y_next = y + sixth * (a1 + 2.0 * (a2 + a3) + a4)
        # end slope on this step's branch (terms switching on at the right
        # endpoint are still off), so the Hermite midpoint stays clean
        f_end = a4 + decay * (y_next - y4)
        samples[base + 1] = 0.5 * (y + y_next) + eighth * (a1 - f_end)
        samples[base + 2] = y_next
        y = y_next
        if y != y:  # NaN guard; the dissipative dynamics should never diverge
            raise DivergenceError(f"non-finite amplitude at t = {(k + 1) * h:g}")

    arr = np.asarray(samples, dtype=complex)
    if not np.all(np.isfinite(arr.view(float))):
        raise DivergenceError("non-finite samples in integrated trace")
    return AmplitudeTrace(dt=h, samples=arr, t_max=n_steps * h)


def beta_at_many(trace: AmplitudeTrace, ts) -> np.ndarray:
    """Vectorised dense output: cubic interpolation of the half-step samples.

    Exact (bit-identical) at stored grid points.  The four-point stencil is
    kept inside a single smooth piece [k, k+1)*tau whenever possible, so the
    derivative breakpoints at whole multiples of tau do not degrade accuracy.
    """
    ts = np.asarray(ts, dtype=float)
    flat = np.atleast_1d(ts)
    samples = trace.samples
    n = len(samples)
    step = 0.5 * trace.dt
    if flat.size and (flat.min() < -1e-12 or flat.max() > trace.t_max + 1e-9):
        raise ValueError(
            f"time outside trace range [0, {trace.t_max:g}]: "
            f"min {flat.min():g}, max {flat.max():g}"
        )

    pos = np.clip(flat / step, 0.0, n - 1.0)
    nearest = np.rint(pos)
    on_grid = np.abs(pos - nearest) <= _GRID_SNAP
    out = np.empty(flat.shape, dtype=complex)
    if on_grid.any():
        out[on_grid] = samples[nearest[on_grid].astype(int)]
    off = ~on_grid
    if off.any():
        p = pos[off]
        per_tau = 2 * trace.steps_per_tau
        piece = np.floor(flat[off]).astype(int)
        lo = np.maximum(piece * per_tau, 0)
        hi = np.minimum(lo + per_tau, n - 1)
        i0 = np.floor(p).astype(int) - 1
        i0 = np.clip(i0, lo, np.maximum(hi - 3, 0))
        i0 = np.clip(i0, 0, n - 4)  # final-fragment fallback
        u = p - i0
        w0 = -(u - 1.0) * (u - 2.0) * (u - 3.0) / 6.0
        w1 = u * (u - 2.0) * (u - 3.0) / 2.0
        w2 = -u * (u - 1.0) * (u - 3.0) / 2.0
        w3 = u * (u - 1.0) * (u - 2.0) / 6.0
        out[off] = (w0 * samples[i0] + w1 * samples[i0 + 1]
                    + w2 * samples[i0 + 2] + w3 * samples[i0 + 3])
    return out.reshape(ts.shape)


def beta_at(trace: AmplitudeTrace, t: float) -> complex:
    """Amplitude at an arbitrary time 0 <= t <= t_max (dense output)."""
    if not (-1e-12 <= t <= trace.t_max + 1e-9):
        raise ValueError(f"t = {t:g} outside trace range [0, {trace.t_max:g}]")
    return complex(beta_at_many(trace, np.asarray([t]))[0])
