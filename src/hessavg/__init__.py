"""Stochastic Newton optimization with online weighted Hessian averaging.

The package is organized around the pipeline of a randomized second-order
experiment:

- ``problem``: objective contract, regularized logistic regression, quadratic
  test objective, float64-certified reference solutions and H*-error.
- ``datagen``: synthetic logistic instances with controlled coherence and
  condition number.
- ``oracles``: stochastic Hessian estimators (subsampling and three sketches)
  and the noise norms of repeated draws.
- ``averaging``: the online weighted Hessian averaging recursion and the
  weight-sequence family.
- ``solver``: the averaged stochastic Newton loop with skip rule and Armijo
  backtracking, and a BFGS baseline.
- ``theory``: closed-form transition points, rates, and the martingale
  concentration bound.
- ``bench``: experiment grids, dataset/trace serialization.
- ``cli``: the ``hessavg`` command line (generate | solve | bench | diag | rates).
"""

__version__ = "0.1.0"
