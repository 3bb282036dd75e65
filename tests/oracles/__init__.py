"""Reference implementations the tests compare the production code against.

Kept out of ``src/``: each is the plain formula the optimised code must
reproduce exactly, not a second code path.
"""
