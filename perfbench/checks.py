"""Correctness checks against mpmath at 40 digits, with a reference cache.

References are computed after the timed region and kept in a JSON file
under the checkout's .bench_cache/, so repeated runs do not pay for them
again (a reference above a ~ 2e6 costs about 0.2 s).
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import mpmath

_DPS = 40


def _upper(a, x):
    """Regularized Q(a, x) at the working precision.

    mpmath's gammainc gives up (NoConvergence) for non-integer shapes above
    about 2e6.  There Q is the defining integral of t^(a-1) e^-t / Gamma(a)
    from x, taken by tanh-sinh quadrature in s = (t - a) / sqrt(a) with
    15 guard digits, split at every unit of s up to s = 40, beyond which
    the integrand is below 1e-340.  Independent of any series; about 0.2 s
    at any shape, and equal to the summed lower series to 1e-45.
    """
    try:
        return mpmath.gammainc(a, x, mpmath.inf, regularized=True)
    except mpmath.libmp.NoConvergence:
        with mpmath.extradps(15):
            root = mpmath.sqrt(a)
            log_norm = mpmath.loggamma(a)

            def density(s):
                t = a + s * root
                return mpmath.exp((a - 1) * mpmath.log(t) - t - log_norm) \
                    * root

            s0 = (x - a) / root
            cuts = [s0] + list(range(int(mpmath.floor(s0)) + 1, 41))
            return mpmath.quad(density, cuts)


class References:
    """Q(a, x) = Gamma(a, x) / Gamma(a) at 40 digits, cached on disk."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._dirty = False
        try:
            self._cache = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self._cache = {}

    def q(self, a: float, c: float = 0.0, x: float | None = None):
        """Q(a, a + c) with a + c taken exactly, or Q(a, x) when x is given.

        Exactly 1 on the plateau a + c <= 0.
        """
        key = f"q:{a!r}:{x!r}" if x is not None else f"p:{a!r}:{c!r}"
        with mpmath.workdps(_DPS):
            cached = self._cache.get(key)
            if cached is not None:
                return mpmath.mpf(cached)
            arg = mpmath.mpf(x) if x is not None else (
                mpmath.mpf(a) + mpmath.mpf(c))
            value = _upper(mpmath.mpf(a), arg) if arg > 0 else mpmath.mpf(1)
            self._cache[key] = mpmath.nstr(value, _DPS + 5)
            self._dirty = True
            return value

    def save(self) -> None:
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._cache), encoding="utf-8")
        os.replace(tmp, self.path)


def check_certify(ops: list[dict], summaries: list[dict],
                  refs: References) -> list[str]:
    """Failures: a verdict off the paper's regime, a witness refuted by
    mpmath (p1 > p2 < p3 must hold on the true values), or an error."""
    failures = []
    for i, (op, s) in enumerate(zip(ops, summaries)):
        if "error" in s:
            failures.append(f"op {i} c={op['c']!r}: {s['error']}")
        elif op["kind"] == "monotone":
            if s["direction"] != op["expect"]:
                failures.append(f"op {i} c={op['c']!r}: {s['direction']}, "
                                f"expected {op['expect']}")
        else:
            a1, a2, a3 = s["a"]
            with mpmath.workdps(_DPS):
                p1, p2, p3 = (refs.q(a, op["c"]) for a in (a1, a2, a3))
                ok = a1 < a2 < a3 and p1 > p2 < p3
            if not ok:
                failures.append(f"op {i} c={op['c']!r}: witness "
                                f"a=({a1!r}, {a2!r}, {a3!r}) refuted")
    return failures


def check_large_shape(ops: list[dict], summaries: list[dict],
                      refs: References) -> tuple[list[str], dict[str, float]]:
    """Failures of |value - ref| <= err_bound for evaluations and of
    |Q_ref(a, m) - 1/2| <= 1e-12 + err_bound(Q(a, m)) for medians; a raised
    error is a failure.  Also returns, per kernel branch, the worst
    |value - ref| / err_bound over the evaluations."""
    failures = []
    worst: dict[str, float] = {}
    for i, (op, s) in enumerate(zip(ops, summaries)):
        a = op["a"]
        if "error" in s:
            failures.append(f"op {i} {op['kind']} a={a!r}: {s['error']}")
            continue
        with mpmath.workdps(_DPS):
            if op["kind"] == "median":
                m = s["median"]
                miss = abs(refs.q(a, x=m) - mpmath.mpf("0.5"))
                allowed = mpmath.mpf(1e-12) + mpmath.mpf(s["kernel_err_bound"])
                if miss > allowed:
                    failures.append(
                        f"op {i} median a={a!r}: |Q(a, m) - 1/2| = "
                        f"{mpmath.nstr(miss, 3)} > {mpmath.nstr(allowed, 3)}")
                continue
            err = abs(mpmath.mpf(s["value"]) - refs.q(a, op["c"]))
            bound = mpmath.mpf(s["err_bound"])
            method = s["method"]
            if bound > 0:
                ratio = float(err / bound)
                worst[method] = max(worst.get(method, 0.0), ratio)
            if err > bound:
                failures.append(
                    f"op {i} eval a={a!r} c={op['c']!r} ({method}): "
                    f"|value - ref| = {mpmath.nstr(err, 3)} > err_bound "
                    f"{mpmath.nstr(bound, 3)}")
    return failures, worst


def check_criteria(summaries: list[dict]) -> list[str]:
    """Failures of the in-process acceptance criteria."""
    return [f"{s.get('cid', '?')}: {s.get('error', 'FAIL')}"
            for s in summaries if not s.get("passed")]
