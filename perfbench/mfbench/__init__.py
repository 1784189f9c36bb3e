"""Benchmark harness for the modforms CLI: seeded job lists, golden output
checks, fresh-process timing and an outside-the-program tracer."""
