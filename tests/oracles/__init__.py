"""Reference implementations the differential suites compare against.

Nothing here ships in ``repro``: each module is the plain, obviously
correct version of something the package serves faster, kept only so
the tests can hold the shipped path byte-identical to it.
"""
