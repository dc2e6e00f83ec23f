"""End-to-end + per-layer benchmark for train, serve and stream.

``perf/run.py`` is the one command; see ``perf/README.md``.
"""
