"""Wall-clock benchmark of the barycentric Lagrange treecode.

Run ``python3 perfbench/run.py --help`` from the repository root.  The
package is kept out of the tier-1 suite: none of its files match
pytest's ``test_*.py`` pattern, so ``python -m pytest`` at the root does
not collect them.  Its own checks run with
``python -m pytest perfbench/checks.py``.
"""
