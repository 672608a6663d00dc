"""Reference implementations the library code is pinned against.

These are the former library routines, kept verbatim so the tests can
check the faster replacements float for float (or within a stated
tolerance):

* :func:`scipy_quantile_from_mgf` — the quantile search driven by
  ``scipy.optimize.brentq``, which the generator search of
  :mod:`repro.core.inversion` must reproduce bit for bit;
* :func:`nested_chernoff_quantile` and :func:`nested_term_sum_chernoff`
  — the Chernoff quantile as a ``brentq`` over a bound that runs one
  ``minimize_scalar`` per probe, which the one-pass minimisation must
  match within 1e-9 relative;
* :func:`fixed_point_root` — the Appendix C fixed-point iteration for
  one root of eq. (26), which the Lambert W root kernel of
  :mod:`repro.core.downstream` must match within 1e-12 relative;
* :func:`brentq_md1_pole` — the bracketed ``brentq`` for the M/D/1
  dominant pole, which the Lambert W closed form must match within
  1e-12 relative.
"""

from __future__ import annotations

import cmath
import math

from scipy import optimize

from repro.core.inversion import tail_from_mgf
from repro.errors import ParameterError


def scipy_quantile_from_mgf(mgf, probability, scale_hint, tolerance=1e-10, atom_at_zero=None):
    """Memoised bracket doubling, then ``scipy.optimize.brentq``."""
    cache = {}

    def tail(x):
        value = cache.get(x)
        if value is None:
            value = tail_from_mgf(mgf, x, atom_at_zero=atom_at_zero)
            cache[x] = value
        return value

    target = 1.0 - probability
    if tail(0.0) <= target:
        return 0.0
    lower = 0.0
    upper = scale_hint
    for _ in range(200):
        if tail(upper) < target:
            break
        lower = upper
        upper *= 2.0
    else:
        raise ParameterError("could not bracket the requested quantile")
    return float(optimize.brentq(lambda x: tail(x) - target, lower, upper, xtol=tolerance))


def _nested_chernoff(mgf, s_max, probability, start):
    """``brentq`` on ``bound(x) - (1 - p)``, one minimisation per probe."""
    target = 1.0 - probability

    def bound(x):
        if x <= 0.0:
            return 1.0
        result = optimize.minimize_scalar(
            lambda s: -s * x + math.log(max(abs(mgf(s)), 1e-300)),
            bounds=(1e-12, s_max),
            method="bounded",
        )
        return math.exp(min(float(result.fun), 0.0))

    upper = start
    for _ in range(200):
        if bound(upper) < target:
            break
        upper *= 2.0
    else:
        raise ParameterError("could not bracket the Chernoff quantile")
    return float(optimize.brentq(lambda x: bound(x) - target, 1e-15, upper, xtol=1e-12))


def nested_chernoff_quantile(model, probability):
    """The former ``ComposedRttModel`` Chernoff queueing quantile."""
    poles = [
        t.rate.real
        for terms in (model._upstream_terms, model._burst_terms, model._position_terms)
        for t in terms.terms
    ]
    return _nested_chernoff(
        model.queueing_mgf,
        min(poles) * (1.0 - 1e-9),
        probability,
        max(model.mean_queueing_delay(), 1e-7),
    )


def nested_term_sum_chernoff(terms, probability):
    """The former ``ErlangTermSum.quantile_chernoff``."""
    return _nested_chernoff(
        terms.mgf,
        min(t.rate.real for t in terms.terms) * (1.0 - 1e-9),
        probability,
        max(terms.mean(), 1e-12),
    )


def fixed_point_root(load, order, branch):
    """Root ``branch`` of ``z = exp((z-1)/load + 2*pi*i*branch/order)`` in ``|z| < 1``.

    Appendix C: the iteration started at ``z = 0`` converges to it.  It
    contracts at the rate ``|z|/load``, which nears 1 as ``load -> 1``,
    so its stopping rule leaves it ~1e-11 short of the root at load
    0.999; one Newton step on the same equation closes that gap.
    """
    phase = 2.0j * math.pi * branch / order
    z = 0.0 + 0.0j
    for _ in range(100_000):
        z_next = cmath.exp((z - 1.0) / load + phase)
        if abs(z_next - z) <= 1e-14 * max(1.0, abs(z_next)):
            break
        z = z_next
    else:
        raise RuntimeError(f"no convergence (load={load}, order={order}, branch={branch})")
    image = cmath.exp((z_next - 1.0) / load + phase)
    return z_next - (z_next - image) / (1.0 - image / load)


def brentq_md1_pole(queue):
    """The M/D/1 dominant pole: bracket upwards, then ``brentq``."""
    lam, d = queue.arrival_rate, queue.service_time_s

    def g(s):
        return lam * math.expm1(s * d) - s

    # g(0) = 0, g'(0) = rho - 1 < 0 and g -> +inf, so bracket upwards.
    lower = 1e-9 / d
    upper = 1.0 / d
    while g(upper) <= 0.0:
        upper *= 2.0
        if upper > 1e12 / d:
            raise ParameterError("failed to bracket the M/D/1 dominant pole")
    return float(optimize.brentq(g, lower, upper, xtol=1e-15, rtol=1e-14))
