"""Entangled-lattice-clock toolkit.

Checks the feasibility of the polarization-screw transport lattice,
schedules the GHZ entanglement protocol, simulates the clock register with
photon-scattering decoherence, and quantifies the resulting precision
against the standard quantum limit.

The package re-exports nothing: import each name from the module that
defines it (``screwclock.config``, ``screwclock.pipeline``,
``screwclock.register``, ...), so a module loads only what it needs.
"""

__version__ = "0.1.0"
