"""AMP for multi-view spiked matrix models.

Modules:
    model      signal priors, couplings, instance synthesis
    se         the scalar channel (posterior mean, overlap, relative entropy)
               and state evolution with fixed-point refinement
    amp        the AMP recursion and its block denoiser
    stability  completely positive operator toolkit and fixed-point stability
    limits     the variational MMSE bound
    cli        experiment harness (``mvamp`` console entry point)
"""

__version__ = "0.5.0"

from . import amp, limits, model, se, stability  # noqa: F401
