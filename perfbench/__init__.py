"""End-to-end benchmark for the InteGrade reproduction.

Run ``python3 perfbench/run.py --workload campus --seed 1 --seconds 20
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
