"""The names the CLI offers as choices, in a module without numpy, so the
parser is built without importing the modules that use them."""

VARIANTS = ("full", "local", "avgpool")

SWEEP_PARAMS = ("rg", "rq", "k", "ratio")
