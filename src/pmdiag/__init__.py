"""Point-machine power-signal diagnostics toolkit.

Synthetic manoeuvre generation with injectable faults, shape-normalized
feature extraction, MLP fault classification, and split-conformal
prediction sets with a marginal coverage guarantee.
"""

__version__ = "0.1.0"
