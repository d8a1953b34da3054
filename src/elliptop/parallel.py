"""Empty: every command runs in one thread.  The module remains only
because the benchmark's tracer (``perfbench/tracing.py``) imports it."""
