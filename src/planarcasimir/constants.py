"""Exact SI constants (2019 redefinition), equal to ``scipy.constants``."""

import math

c = 299792458.0  # speed of light, m/s
hbar = 6.62607015e-34 / (2 * math.pi)  # reduced Planck constant, J s
Boltzmann = 1.380649e-23  # J/K
