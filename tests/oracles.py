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
  match within 1e-9 relative.
"""

from __future__ import annotations

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
