"""Neural-surrogate training and settings optimization for a multivariate sensor.

Pipeline: a seeded analytic oracle simulates a factorial sweep dataset, a
from-scratch feed-forward network learns (signal, snr, output3) from the
settings, and an interpolated design-space sweep scores every candidate
combination on four SNR-curve criteria, selecting the best by rank
intersection.

The API lives in the submodules (sensopt.oracle, sensopt.data,
sensopt.network, sensopt.training, sensopt.curves, sensopt.sweep and the
sensopt.cli command line); the package root holds only __version__.
"""

__version__ = "0.1.0"
