"""Pulse-level single-qubit gate simulator with benchmarking, calibration,
drift spectroscopy, filter-function decoherence prediction, and an
analytic error budget.

The API lives in the modules, each listing its public names in ``__all__``,
as in ``from qubitbench.rb import RBPlan, run_rb``; the package imports none.
"""

__version__ = "0.1.0"
