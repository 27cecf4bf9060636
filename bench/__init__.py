"""The repository's benchmark: four cycle-structured workloads, speed-normalised.

See ``bench/README.md`` for the method and ``BENCHMARK.json`` for the contract.
"""
