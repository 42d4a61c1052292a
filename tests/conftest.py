from hypothesis import settings

# `pytest --hypothesis-profile=ci` (the CI tier-1 step) prints, for a failing
# randomized test, the blob that replays it with @reproduce_failure
settings.register_profile("ci", print_blob=True)
