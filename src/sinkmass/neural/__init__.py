"""Desk-scale differentiable regression stack.

Single-view, multi-view, and metadata-aware architectures over a small
convolutional encoder, trained with hand-written reverse-mode gradients and
AdamW under a cosine learning-rate schedule. Names are imported from the
submodules: ``model``, ``layers``, ``losses``, ``optim``, ``augment`` and
``training``.
"""
