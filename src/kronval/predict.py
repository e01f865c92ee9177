"""Closed-form predictions: degree moments, degree-count mixture, regime
classification, the psi function and its critical fraction, and the expected
Hamming profile of a neighborhood."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ParameterError
from .model import PROB_TOL, KroneckerParams


@dataclass(frozen=True)
class DegreeMoments:
    """Mean, sum of squared pair probabilities, and variance of one vertex's
    degree, as functions of the vertex weight only."""

    mean: float
    sum_sq_probs: float
    variance: float
    weight: int


def _power_product(what: str, x: float, p: int, y: float, q: int) -> float:
    """x^p * y^q from direct powers, or through logs where a power or the
    product leaves the float range; ParameterError when the value does."""
    try:
        value = x**p * y**q
    except OverflowError:
        value = math.inf
    if 0.0 < value < math.inf:
        return value
    log_value = p * math.log(x) + q * math.log(y)
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ParameterError(
            f"{what} is e^{log_value:.6g}, beyond the largest float {sys.float_info.max:.6g}"
        ) from None


def degree_moments(params: KroneckerParams, w: int) -> DegreeMoments:
    """Exact degree moments of a vertex with w one-digits.

    mean        = (alpha+beta)^w (beta+gamma)^(n-w)
    sum_sq      = (alpha^2+beta^2)^w (beta^2+gamma^2)^(n-w)
    variance    = mean - sum_sq
    The sums behind these run over all 2^n potential neighbors including the
    vertex itself, i.e. the self-loop term is part of the degree.  Each is
    computed through logs where a direct power leaves the float range.
    """
    n = params.n
    if not 0 <= w <= n:
        raise ParameterError(f"weight must lie in [0, {n}], got {w}")
    a, b, g = params.alpha, params.beta, params.gamma
    mean = _power_product(f"the mean degree at weight {w}", a + b, w, b + g, n - w)
    sum_sq = _power_product(
        f"the sum of squared probabilities at weight {w}", a * a + b * b, w, b * b + g * g, n - w
    )
    return DegreeMoments(mean=mean, sum_sq_probs=sum_sq, variance=mean - sum_sq, weight=w)


def expected_degree_count(params: KroneckerParams, d: int) -> float:
    """Expected number of vertices of degree d under the Poisson mixture.

    Sums C(n,w) * lam_w^d * exp(-lam_w) / d! over all weights w, where lam_w
    is the mean degree at weight w.  Terms are assembled in log space so
    large n and large d stay stable; the full range w = 0..n is kept (the
    neglected tail is vanishing, and the full sum is what simulation sees).
    """
    if d < 0:
        raise ParameterError(f"degree must be >= 0, got {d}")
    n = params.n
    w = np.arange(n + 1, dtype=float)
    log_lam = w * math.log(params.alpha + params.beta) + (n - w) * math.log(
        params.beta + params.gamma
    )
    log_choose = (
        math.lgamma(n + 1)
        - np.array([math.lgamma(k + 1) + math.lgamma(n - k + 1) for k in range(n + 1)])
    )
    with np.errstate(over="ignore"):  # exp(lam) = inf is a vanishing term
        exponent = log_choose + d * log_lam - np.exp(log_lam) - math.lgamma(d + 1)
        count = float(np.exp(exponent).sum())
    if math.isinf(count):
        raise ParameterError(
            f"the expected count of degree-{d} vertices is beyond the float range"
            f" (largest float {sys.float_info.max:.6g})"
        )
    return count


@dataclass(frozen=True)
class RegimeVerdict:
    """Outcome of the six-case classification of E(#degree-d vertices).

    Exactly one of two orders holds: Theta((x^d + y^d)^n) with
    x = alpha+beta, y = beta+gamma (``vanishing`` False, ``theta_base`` set),
    or o(2^n) (``vanishing`` True).  ``power_law_possible`` is True only when
    alpha+beta = beta+gamma = 1, and even then the distribution is Poisson(1)
    rather than a power law.  ``boundary`` marks verdicts that relied on an
    equality test at tolerance.
    """

    case_id: int
    vanishing: bool
    theta_base: float | None
    power_law_possible: bool
    boundary: bool
    subcase: str | None = None
    c1: float | None = None
    c2: float | None = None

    def describe(self) -> str:
        parts = [f"case {self.case_id}"]
        if self.subcase:
            parts[-1] += f"({self.subcase})"
        if self.vanishing:
            parts.append("expected count is o(2^n)")
        else:
            parts.append(f"expected count is Theta(base^n) with base {self.theta_base:.12g}")
        if self.power_law_possible:
            parts.append("degree counts follow Poisson(1); not a power law")
        else:
            parts.append("not a power law")
        if self.boundary:
            parts.append("boundary parameters (equality resolved at tolerance)")
        return "; ".join(parts)


def _theta_base(hi: float, lo: float, d: int) -> float:
    """hi^d + lo^d, the base of a reported Theta(base^n) order."""
    try:
        return hi**d + lo**d
    except OverflowError:
        raise ParameterError(
            f"the regime base (alpha+beta)^d + (beta+gamma)^d at d = {d} is beyond"
            f" the largest float {sys.float_info.max:.6g}"
        ) from None


def classify_regime(params: KroneckerParams, d: int) -> RegimeVerdict:
    """Classify the order of the expected number of degree-d vertices.

    The two row sums alpha+beta and beta+gamma are interchangeable (a global
    0/1 digit flip swaps alpha and gamma), so they are ordered before the
    case split.  Case 3 splits further on the binomial peak c1 versus the
    root c2 of hi^c * lo^(1-c) = 1.  The base is computed only for the
    verdicts that report it, and c1 through logs where hi^d overflows.
    """
    if d < 0:
        raise ParameterError(f"degree must be >= 0, got {d}")
    s_top = params.alpha + params.beta
    s_bot = params.beta + params.gamma
    hi, lo = max(s_top, s_bot), min(s_top, s_bot)

    hi_is_one = abs(hi - 1.0) <= PROB_TOL
    lo_is_one = abs(lo - 1.0) <= PROB_TOL

    if hi_is_one and lo_is_one:
        return RegimeVerdict(
            case_id=6, vanishing=False, theta_base=2.0,
            power_law_possible=True, boundary=True,
        )
    if hi_is_one:
        return RegimeVerdict(
            case_id=1, vanishing=False, theta_base=_theta_base(hi, lo, d),
            power_law_possible=False, boundary=True,
        )
    if lo_is_one:
        return RegimeVerdict(
            case_id=2, vanishing=True, theta_base=None,
            power_law_possible=False, boundary=True,
        )
    if hi < 1.0:
        return RegimeVerdict(
            case_id=4, vanishing=False, theta_base=_theta_base(hi, lo, d),
            power_law_possible=False,
            boundary=abs(hi - lo) <= PROB_TOL,
        )
    if lo > 1.0:
        return RegimeVerdict(
            case_id=5, vanishing=True, theta_base=None,
            power_law_possible=False,
            boundary=abs(hi - lo) <= PROB_TOL,
        )

    # Case 3: lo < 1 < hi.  c1 is where the binomial part of the summand
    # peaks; c2 is where the exponential part starts to bite.
    try:
        c1 = hi**d / (hi**d + lo**d)
    except OverflowError:
        c1 = 1.0 / (1.0 + math.exp(d * (math.log(lo) - math.log(hi))))
    c2 = brentq(
        lambda c: c * math.log(hi) + (1.0 - c) * math.log(lo),
        0.0, 1.0, xtol=1e-15,
    )
    if abs(c1 - c2) <= PROB_TOL:
        subcase, vanishing = "ii", False
    elif c1 < c2:
        subcase, vanishing = "i", False
    else:
        subcase, vanishing = "iii", True
    return RegimeVerdict(
        case_id=3,
        vanishing=vanishing,
        theta_base=None if vanishing else _theta_base(hi, lo, d),
        power_law_possible=False,
        boundary=subcase == "ii",
        subcase=subcase,
        c1=c1,
        c2=float(c2),
    )


def psi(params: KroneckerParams, c: float) -> float:
    """(beta/c)^c * (alpha/(1-c))^(1-c), evaluated in log space.

    Defined for 0 < c < 1.  Increases up to c = beta/(alpha+beta), where it
    attains alpha+beta, and decreases afterwards; the limits at 0 and 1 are
    alpha and beta.
    """
    if not 0.0 < c < 1.0:
        raise ParameterError(f"c must lie strictly in (0, 1), got {c!r}")
    return math.exp(
        c * (math.log(params.beta) - math.log(c))
        + (1.0 - c) * (math.log(params.alpha) - math.log(1.0 - c))
    )


@dataclass(frozen=True)
class CriticalFraction:
    """Root of psi(c) = 1/2, when one exists, and which side of the maximum
    beta/(alpha+beta) it lies on ('below' or 'above')."""

    c: float | None
    side: str | None

    @property
    def exists(self) -> bool:
        return self.c is not None


def critical_fraction(params: KroneckerParams) -> CriticalFraction:
    """Solve psi(c) = 1/2 on the monotone branch selected by the parameters.

    Requires alpha = gamma and alpha + beta > 1.  With alpha < 1/2 the root
    is unique in (0, beta/(alpha+beta)); with beta < 1/2 it is unique in
    (beta/(alpha+beta), 1); if neither entry is below 1/2 there is no root.
    """
    if not params.alpha_equals_gamma:
        raise ParameterError("critical_fraction requires alpha = gamma")
    a, b = params.alpha, params.beta
    if a + b <= 1.0:
        raise ParameterError("critical_fraction requires alpha + beta > 1")
    peak = b / (a + b)
    fn = lambda c: psi(params, c) - 0.5
    if a < 0.5:
        root = brentq(fn, 1e-15, peak, xtol=1e-12)
        return CriticalFraction(c=float(root), side="below")
    if b < 0.5:
        root = brentq(fn, peak, 1.0 - 1e-15, xtol=1e-12)
        return CriticalFraction(c=float(root), side="above")
    return CriticalFraction(c=None, side=None)


def hamming_profile_prediction(params: KroneckerParams, k: int) -> float:
    """Expected number of neighbors at Hamming distance exactly k.

    Requires alpha = gamma; then the value C(n,k) alpha^(n-k) beta^k is the
    same for every vertex, and equals (alpha+beta)^n times the binomial
    point mass at k with success rate beta/(alpha+beta).  k = 0 is the
    self-loop term alpha^n.
    """
    if not params.alpha_equals_gamma:
        raise ParameterError("hamming profile requires alpha = gamma")
    n = params.n
    if not 0 <= k <= n:
        raise ParameterError(f"distance must lie in [0, {n}], got {k}")
    log_value = (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + (n - k) * math.log(params.alpha)
        + k * math.log(params.beta)
    )
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ParameterError(
            f"expected neighbors at distance {k} is e^{log_value:.6g}, beyond the"
            f" largest float {sys.float_info.max:.6g}"
        ) from None


def hamming_window(params: KroneckerParams) -> tuple[float, float]:
    """(lo, hi) of the concentration window for neighbor distances.

    Centered at beta*n/(alpha+beta) with half-width
    sqrt(2*beta/(alpha+beta)) * log(n) * sqrt(n).  Requires alpha = gamma.
    """
    if not params.alpha_equals_gamma:
        raise ParameterError("hamming window requires alpha = gamma")
    n = params.n
    center = params.beta * n / (params.alpha + params.beta)
    half = math.sqrt(2.0 * params.beta / (params.alpha + params.beta)) * math.log(n) * math.sqrt(n)
    return center - half, center + half
