"""Corpus-to-distance-matrix benchmark for topodist (see README.md)."""
