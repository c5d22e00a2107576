"""Log-linear envelope fits for exponentially decaying sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ExpFit", "exp_fit"]

FIT_FLOOR = 1e-13


@dataclass
class ExpFit:
    """Fitted envelope |v_n| <= constant * rate^n with the fit quality."""

    rate: float
    constant: float
    r_squared: float
    n_used: int


def exp_fit(ns, values):
    """Least-squares fit of log |values| against ns.

    Entries at or below ``FIT_FLOOR`` are excluded (they are numerically zero).
    With fewer than two usable points the fit degenerates to rate 0 and a
    constant equal to the largest magnitude seen; a sequence that is
    identically zero decays faster than any exponential, so rate 0 is the
    honest report.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    mags = np.abs(values)
    usable = mags > FIT_FLOOR
    n_used = int(usable.sum())
    if n_used < 2:
        return ExpFit(0.0, float(mags.max(initial=0.0)), 1.0, n_used)
    x = ns[usable]
    y = np.log(mags[usable])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    rate = float(np.exp(slope))
    constant = float(np.max(mags[usable] / rate**x)) if rate > 0 else float(mags.max())
    return ExpFit(rate, constant, r2, n_used)
