"""Continual-learning toolkit: create flat regions with adaptive
sharpness-aware updates, estimate per-parameter flatness via the empirical
Fisher, and train new tasks under hard/soft flatness constraints with
replay, plus probes and metrics."""
