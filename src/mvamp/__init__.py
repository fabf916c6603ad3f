"""AMP for multi-view spiked matrix models.

Modules:
    model      signal priors, couplings, instance synthesis
    denoise    Bayes-optimal denoisers and derivatives
    amp        the AMP recursion
    se         state evolution, overlap functions, fixed-point refinement
    stability  completely positive operator toolkit and fixed-point stability
    limits     channel KL divergences and the variational MMSE bound
    cli        experiment harness (``mvamp`` console entry point)
"""

__version__ = "0.3.0"

from . import amp, denoise, limits, model, se, stability  # noqa: F401
