"""Vaccine-sentiment measurement and outbreak-risk simulation toolkit.

Classifies short-text vaccine sentiment, analyzes homophily on the
directed network of opinionated users, and simulates SEIR epidemics on
weighted contact networks under assortativity-constrained vaccination
distributions.
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """A malformed input file; the message starts with ``path:line:``."""
