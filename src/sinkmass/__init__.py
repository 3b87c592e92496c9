"""Invertebrate dry-mass estimation from sinking-specimen image sequences.

The package provides linear estimators over sequence-metadata features
(specimen area, sinking speed), a desk-scale neural family (single-view,
multi-view, metadata-aware), the full resampling evaluation protocol, and a
synthetic physics oracle for end-to-end validation.

Names are imported from their modules (``from sinkmass.linear import
fit_ols``). Importing the package, or the CLI inside it, loads no numpy, so
``--threads`` can set the BLAS thread caps before numpy starts.
"""

__version__ = "0.1.0"
