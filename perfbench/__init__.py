"""Wall-clock benchmark for the DCT+Chop compressor, its service and its fleet.

The benchmark sits outside the program: it drives the public API of
``repro.core``, ``repro.serve`` and ``repro.fleet`` from one process with
one caller, and in a traced run wraps the calls at each layer boundary in
its own spans.  Run it with ``python3 perfbench/run.py --help``; see
``perfbench/README.md`` for the workloads and metrics.
"""
