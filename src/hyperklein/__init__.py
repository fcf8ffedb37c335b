"""Klein-model hyperbolic geometry, gyrovector calculus, and hyperbolic NNs."""

__version__ = "0.1.0"
