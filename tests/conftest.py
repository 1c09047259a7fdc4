from hypothesis import settings

# Derandomized: every run of the suite draws the same examples, so a failure
# reproduces and a pass is not a lucky draw. Example counts are unchanged.
settings.register_profile("flowprune", derandomize=True)
settings.load_profile("flowprune")
