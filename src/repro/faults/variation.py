"""Process-variation model for gate delays.

Following the paper (Section 4.3) and VARIUS-style models [Sarangi et al.],
transistor length L, width W and oxide thickness t_ox are Gaussian with a
+-20% band (interpreted as 3-sigma) around nominal. A gate's drive current
in the alpha-power law is I ~ (W / L) * C_ox * (V - Vth)^alpha with
C_ox ~ 1/t_ox, so the per-gate delay factor relative to nominal is

    d / d_nom = (L / L_nom) * (t_ox / t_ox_nom) / (W / W_nom)

to first order. The model produces per-gate multiplicative delay factors
and the implied sigma/mu of a logic path as the root-sum-square over its
(assumed independent) gate contributions. Draws come from
``numpy.random.default_rng(seed)``, so a seed fixes every sample.
"""

import math

import numpy as np


class VariationSample:
    """Per-gate delay factors sampled for one die."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = np.asarray(factors, dtype=float)

    def __len__(self):
        return len(self.factors)

    @property
    def mean(self):
        """Mean delay factor over the sampled gates."""
        return float(self.factors.mean())

    @property
    def std(self):
        """Standard deviation of the delay factors."""
        return float(self.factors.std())


class ProcessVariationModel:
    """Gaussian L/W/t_ox variation mapped to gate delay factors.

    Parameters
    ----------
    deviation:
        The +-band of parameter variation (paper: 0.20), interpreted as the
        3-sigma point of the Gaussian, i.e. ``sigma = deviation / 3``.
    seed:
        Seed for the internal random generator.
    """

    def __init__(self, deviation=0.20, seed=0):
        if not 0.0 <= deviation < 1.0:
            raise ValueError("deviation must be in [0, 1)")
        self.deviation = deviation
        self.sigma_param = deviation / 3.0
        self._rng = np.random.default_rng(seed)

    def sample_gate_factors(self, n_gates):
        """Sample per-gate delay factors for ``n_gates`` gates.

        Each gate draws independent L, W and t_ox deviations; the delay
        factor is ``(1+dL) * (1+dtox) / (1+dW)``, clipped to stay positive.
        """
        s = self.sigma_param
        d_l = self._rng.normal(0.0, s, n_gates)
        d_w = self._rng.normal(0.0, s, n_gates)
        d_tox = self._rng.normal(0.0, s, n_gates)
        factors = (1.0 + d_l) * (1.0 + d_tox) / np.clip(1.0 + d_w, 0.1, None)
        return VariationSample(np.clip(factors, 0.1, None))

    def path_sigma_over_mu(self, logic_depth):
        """Relative sigma of a path of ``logic_depth`` equal-delay gates.

        With independent per-gate factors of relative sigma ``s_g``, a path
        of n gates has sigma/mu = s_g / sqrt(n): deep paths average out the
        random component. ``s_g`` combines the three parameter Gaussians
        (approximately sqrt(3) * sigma_param for small deviations).
        """
        if logic_depth <= 0:
            raise ValueError("logic depth must be positive")
        per_gate_sigma = math.sqrt(3.0) * self.sigma_param
        return per_gate_sigma / math.sqrt(logic_depth)
