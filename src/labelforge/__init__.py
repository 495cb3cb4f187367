"""labelforge: semi-supervised pseudo-labeling for embedding classifiers.

Separates identity-overlapping samples via extreme-value statistics,
clusters the disjoint remainder into pseudo-labels, estimates per-sample
clustering uncertainty, and retrains a cosine-margin classification head
with uncertainty-weighted losses.
"""

__version__ = "0.1.0"
