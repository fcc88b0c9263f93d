"""Parameter containers and model family tags.

The joint system is a log price X and an instantaneous variance V with a
GARCH-diffusion volatility structure: the vol-of-vol is sigma * V with
leverage correlation rho.  Under the pricing measure, which enters only
through the swap relation IV = A + B*V and the variance risk premium, the
variance drift is affine, b0_q + b1_q * V.  The dynamics are simulated
and estimated under the real-world measure, with two drift families:

    LN:  dV drift = b0_q + b1 * V
    NL:  dV drift = b0 + b1 * V + b2 * V^2 + b3 / V

and the log-price drift is a0 + a1 * V for both.  RW is the no-dynamics
random-walk benchmark used only in forecasting.

Parameters are partitioned into four disjoint groups for estimation:
theta_sigma (shared between measures), theta_q (pricing measure only),
theta_xp (price drift) and theta_vp (variance drift), following the
limited-information ordering in which theta_vp and theta_xp have
closed-form optima given theta_sigma and theta_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum


class Family(str, Enum):
    """Drift family tag: random walk, linear or nonlinear variance drift."""

    RW = "RW"
    LN = "LN"
    NL = "NL"


class Measure(str, Enum):
    """Probability measure of simulated dynamics.  Only the physical
    measure P is simulated or estimated, so it is the one member; the
    enum stays because the benchmark passes ``Measure.P`` to
    :func:`nlsv.simulate.simulate_paths`, until the next benchmark change
    deletes it."""

    P = "P"


class DomainViolation(ValueError):
    """Input lies outside the model's state or parameter domain."""


#: The layout of an estimated parameter vector: the parameters of the
#: outer search, then the price drift coefficients, then the family's free
#: variance drift coefficients (``ModelSpec.variance_names``).
OUTER = ("sigma", "rho", "b0_q", "b1_q")
STOCK = ("a0", "a1")


@dataclass(frozen=True)
class ModelSpec:
    """Model family of one estimated or forecast model."""

    family: Family

    @property
    def variance_names(self) -> tuple[str, ...]:
        """Free variance drift coefficients: for LN only b1, because its
        intercept is b0_q; for NL all four."""
        if self.family is Family.LN:
            return ("b1",)
        if self.family is Family.NL:
            return ("b0", "b1", "b2", "b3")
        raise DomainViolation("RW has no variance drift")

    @property
    def param_names(self) -> tuple[str, ...]:
        """Every estimated parameter, in the order of fits and their errors."""
        return OUTER + STOCK + self.variance_names


@dataclass(frozen=True)
class ParamVector:
    """Full parameter set for one model.

    Units are annualized: drifts are per year, sigma per sqrt(year).
    ``b0``, ``b2``, ``b3`` are meaningful only for the NL family; the LN
    variance drift intercept is ``b0_q`` itself.  ``r`` (short rate) and
    ``c`` (dampening constant) enter nothing: the package computes no
    pricing-measure price drift and uses the undampened drifts.  They stay,
    unchecked, because the benchmark sets them, until the next benchmark
    change deletes them.
    """

    sigma: float
    rho: float
    b0_q: float
    b1_q: float
    a0: float = 0.0
    a1: float = 0.0
    b0: float = 0.0
    b1: float = 0.0
    b2: float = 0.0
    b3: float = 0.0
    r: float = 0.05
    c: float = 1e-6

    def validate(self) -> "ParamVector":
        """Check the hard parameter-domain invariants, return self."""
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainViolation(f"sigma must be finite and > 0, got {self.sigma}")
        if not (abs(self.rho) < 1.0):
            raise DomainViolation(f"|rho| must be < 1, got {self.rho}")
        if not (self.b0_q > 0.0):
            raise DomainViolation(f"b0_q must be > 0, got {self.b0_q}")
        for name in ("b1_q", "a0", "a1", "b0", "b1", "b2", "b3"):
            if not math.isfinite(getattr(self, name)):
                raise DomainViolation(f"{name} must be finite")
        return self

    def with_variance_coeffs(self, spec: ModelSpec, coeffs) -> "ParamVector":
        """Return a copy with the free variance drift coefficients
        ``spec.variance_names`` replaced, in that order."""
        return replace(self, **dict(zip(spec.variance_names, map(float, coeffs), strict=True)))

    def with_stock_coeffs(self, a0: float, a1: float) -> "ParamVector":
        return replace(self, a0=float(a0), a1=float(a1))


@dataclass(frozen=True)
class State:
    """Joint state: log price x and instantaneous variance v (> 0)."""

    x: float
    v: float

    def validate(self) -> "State":
        if not (self.v > 0.0 and math.isfinite(self.v)):
            raise DomainViolation(f"v must be finite and > 0, got {self.v}")
        if not math.isfinite(self.x):
            raise DomainViolation(f"x must be finite, got {self.x}")
        return self

    def y(self, sigma: float) -> float:
        """Log-variance coordinate y = log(v) / sigma."""
        return math.log(self.v) / sigma
