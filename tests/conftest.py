from hypothesis import settings

# property tests run whole quadratures and LPs per example; their time
# varies with machine load, so no example is failed for being slow
settings.register_profile("tangentia", deadline=None)
settings.load_profile("tangentia")
