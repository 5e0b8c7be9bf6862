"""cmtrace: traces of CM values of modular functions, exact modular
identities, Rademacher-type exact formulas, and theta-lift validation."""

__version__ = "0.2.4"
