"""Seeded end-to-end and per-layer benchmark of the gaitverify CLI pipeline.

Run ``python3 gvbench/run.py --help`` from the repository root.
"""
