"""Test-only reference oracles: the pre-optimisation versions of hot
paths, kept verbatim so differential tests can check the fast code
against them."""
