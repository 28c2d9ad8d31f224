# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test test-service serve-latency test-3d coverage csan cvec threads-gate bench bench-gate ledger-smoke bench-scaling chaos chaos-service examples results clean docs-check check check-gates verify-gate verify-full

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# every gate below ends by printing "gate-status: <gate> ran" (or
# "skipped(<reason>)" from the tools that can skip); `make check`
# replays those lines as its closing summary
docs-check:
	$(PYTHON) tools/check_links.py
	$(PYTHON) tools/check_docstrings.py
	$(PYTHON) tools/check_imports.py
	@echo "gate-status: docs-check ran"

# fast service-layer subset: the multi-job engine (submit/cancel/
# priority/preempt-resume/isolation), the spool/CLI front-end, and the
# latency gate below
test-service: serve-latency
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_service_engine.py tests/test_service_cli.py tests/test_service_recovery.py
	@echo "gate-status: test-service ran"

# ten spaced jobs through a default-settings `repro serve` child: the
# median submit->result latency must stay under half the default --poll
# (nobody sits out a timer); skips where the tmp filesystem has no FIFOs
serve-latency:
	$(PYTHON) tools/serve_latency_gate.py

# 3D feature-parity subset: kernels/orderings, the parity acceptance
# tests (numpy-mp bitwise at 2, 4, 8 and 9 workers), the 2D/3D checkpoint/resume suite, and the curves and
# solver that serve both dimensions (every index map against the
# recorded ones)
test-3d:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_pic3d.py tests/test_pic3d_parity.py tests/test_core_checkpoint.py tests/test_curves_orders.py tests/test_grid_poisson.py
	@echo "gate-status: test-3d ran"

# line-coverage floor on repro.pic3d + repro.verify (skips with exit 0
# when pytest-cov is not installed — the gate never requires an install)
coverage:
	$(PYTHON) tools/coverage_gate.py

# ckernels.c under -std=c99 -pedantic -Wall -Wextra -Werror, then its
# equivalence and every-input tests against a -fsanitize=undefined
# build; skips where there is no compiler or no libubsan
csan:
	$(PYTHON) tools/c_sanitize_gate.py

# GCC's -fopt-info-vec report of ckernels.c under the shipped flags: the
# push and update-v loops, the eight-accumulator loop of the energies'
# sum of squares and the deposit's corner row add are vectorized in the
# x86-64-v4 clone, the deposit never across particles; skips where
# there is no compiler or no target_clones
cvec:
	$(PYTHON) tools/c_vectorize_gate.py

# the c backend's thread team: its bitwise matrix (1-8 threads) and the
# parent digests at 2, 4 and 8 threads, unpinned and then under
# `taskset -c 0`, where the threads share one CPU and must neither
# change a bit nor hang
threads-gate:
	$(PYTHON) tools/threads_gate.py

check-gates: docs-check chaos chaos-service csan cvec threads-gate bench-gate ledger-smoke verify-gate serve-latency test-service test-3d coverage examples
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/
	@echo "gate-status: tests ran"

# all gates, then one line per gate — ran or skipped(<reason>) — so a
# compiler-less / pytest-cov-less host does not read as all-green
check:
	@log=$$(mktemp); \
	{ $(MAKE) --no-print-directory check-gates; echo $$? > $$log.rc; } 2>&1 | tee $$log; \
	rc=$$(cat $$log.rc); \
	echo "== make check: gates =="; \
	sed -n 's/^gate-status: /  /p' $$log; \
	rm -f $$log $$log.rc; \
	if [ $$rc -ne 0 ]; then echo "make check: FAILED (exit $$rc)"; fi; \
	exit $$rc

# fault-injection suite under a fixed seed, then assert zero leaked
# /dev/shm segments and zero checkpoint temp files
chaos:
	$(PYTHON) tools/chaos_check.py
	@echo "gate-status: chaos ran"

# service-level chaos gate: SIGKILL `repro serve` mid-campaign, restart
# with --recover, assert every job settles bitwise-equal to an
# uninterrupted golden run and no *.tmp / orphan *.lease litter remains
chaos-service:
	PYTHONPATH=src $(PYTHON) tools/chaos_service.py
	@echo "gate-status: chaos-service ran"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# performance gate: fails if the histogram-balanced deposit cuts lose
# to equal cells on a skewed plasma
bench-gate:
	$(PYTHON) tools/bench_gate.py

# the benchmark ledger end to end at ~1/20 size: all five workloads,
# both passes, every correctness check (exit 1 if one fails)
ledger-smoke:
	$(PYTHON) benchmarks/ledger/run.py --smoke
	@echo "gate-status: ledger-smoke ran"

# golden-run regression gate: every importable backend must reproduce
# the committed golden/GOLDEN_*.json documents (bitwise for numpy, c
# and numpy-mp); regenerate after an intentional numerics change with
# `python tools/verify_gate.py --regenerate` (workflow:
# docs/verification.md)
verify-gate:
	$(PYTHON) tools/verify_gate.py

# the full differential-verification matrix: the verify_full-marked
# tests that tier-1 deselects (bigger sampled matrix, oracles on every
# backend) plus a 16-sample CLI sweep
verify-full:
	PYTHONPATH=src $(PYTHON) -m pytest -q -m verify_full tests/
	PYTHONPATH=src $(PYTHON) -m repro verify --seed 0 --samples 16 --oracles --golden

# numpy-mp vs numpy at 10k and 100k particles, 1 and 2 workers (quick);
# the full crossover sweep up to 1M, which rewrites
# benchmarks/results/BENCH_shm_scaling.json, is the same script
# without --smoke
bench-scaling:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_shm_scaling.py --smoke

# every runnable demo under examples/, end to end (~40 s; each asserts
# what it demonstrates, so a failing one exits non-zero)
examples:
	for f in examples/*.py; do echo "== $$f =="; PYTHONPATH=src $(PYTHON) $$f || exit 1; done
	@echo "gate-status: examples ran"

results: test bench
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# untracked run litter only: everything under benchmarks/ is either
# committed (benchmarks/results/ holds the paper tables) or ignored
# ledger output, and stays
clean:
	rm -rf .pytest_cache .hypothesis .benchmarks src/*.egg-info
	rm -f .coverage test_output.txt bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
