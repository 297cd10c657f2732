"""Linear-optical two-photon gate simulation and analysis toolkit.

Subpackages by concern: :mod:`lophoton.linalg` (small dense complex linear
algebra), :mod:`lophoton.jones` (polarization calculus),
:mod:`lophoton.circuit` (two-photon interference through partially
polarizing splitters, post-selected CZ/CNOT), :mod:`lophoton.emitter`
(decay, oscillator strength and dephasing/visibility models),
:mod:`lophoton.counting` (coincidence histograms, g2 and interference
visibility estimators), :mod:`lophoton.tomo` (two-qubit tomography and
entanglement metrics), :mod:`lophoton.io` (validating readers shared by
the CSV and JSON input formats), :mod:`lophoton.cli` (batch command line).
"""

from . import circuit, counting, emitter, io, jones, linalg, tomo

__all__ = ["circuit", "counting", "emitter", "io", "jones", "linalg", "tomo"]

__version__ = "0.1.0"
