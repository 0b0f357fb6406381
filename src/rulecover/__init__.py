"""Universal covers for carpenter's rule folding via the involute method."""

__version__ = "0.1.0"
