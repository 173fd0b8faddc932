"""Names of the verification suites and the defaults of their named
tolerances.  Plain data without numpy, so the CLI parser can list them
without loading the suites themselves (`qps.verify`)."""

SUITES = ("uncertainty", "closure", "microstate", "fock", "gauge", "density")

# default bound of each named tolerance (`qps --tol NAME=VALUE` overrides)
TOLERANCES = {
    "saturation": 1e-6, "kennard": 1e-8, "closure": 1e-3, "microstate": 1e-3,
    "gram": 1e-6, "ccr": 1e-8, "gauge_pair": 1e-10, "consistency": 1e-3,
    "overlap": 1e-8, "purity": 1e-10,
}
