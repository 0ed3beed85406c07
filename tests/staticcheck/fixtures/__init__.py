"""Fixture corpus for the staticcheck tests.

``bad_components.py`` is parsed, never imported;
``planted_artifacts.py`` is imported by the prover tests.
"""
