"""groupspec: element-order spectra of finite classical groups and their outer cosets.

Submodules:
  arith    exact integer helpers (pi-parts, factorization, cyclotomic values)
  spectra  closed-form spectra of the simple and near-simple classical groups
  coset    spectra of graph / field / graph-field cosets and the tau criterion
  outer    outer automorphism group algebra and admissibility of cyclic extensions
  oracle   brute-force matrix-group verification (enumeration and sampling)
  cli      command line front end
"""

__version__ = "0.1.0"

from .arith import UsageError

__all__ = ["UsageError", "__version__"]
