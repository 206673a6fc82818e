PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src

.PHONY: check test test-fast test-resilience test-chaos test-check test-cluster test-matrix-pooled test-server coverage bench-smoke bench-commit bench-server bench-e2e-smoke bench

## check: what CI runs -- tier-1 tests plus a ~10s benchmark smoke.
check: test bench-smoke

## test: the full lane -- every test, including slow/subprocess ones.
test:
	$(PYTHON) -m pytest tests/ -q

## test-fast: the fast CI lane -- skips tests marked `slow` (the
## cross-backend equivalence matrix, fault-injection races, and other
## fork-heavy suites); finishes in a few seconds.
test-fast:
	$(PYTHON) -m pytest tests/ -q -m "not slow"

## coverage: line coverage over src/repro, gated at 80% on the obs,
## check, independence, and server subsystems (requires pytest-cov; CI
## installs it).
coverage:
	$(PYTHON) -m pytest tests/ -q --cov=repro --cov-report=term-missing
	$(PYTHON) -m coverage report --include="*/repro/obs/*" --fail-under=80
	$(PYTHON) -m coverage report --include="*/repro/check/*" --fail-under=80
	$(PYTHON) -m coverage report --include="*/repro/independence/*" --fail-under=80
	$(PYTHON) -m coverage report --include="*/repro/server/*" --fail-under=80

## test-resilience: the fault-injection smoke CI runs per injector seed.
## Uses a hard per-test timeout when pytest-timeout is available (a hung
## test here means a reaping/backstop regression).
REPRO_FAULT_SEED ?= 0
test-resilience:
	REPRO_FAULT_SEED=$(REPRO_FAULT_SEED) $(PYTHON) -m pytest tests/resilience -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo "--timeout=60 --timeout-method=thread")

## test-chaos: the distributed chaos soak CI runs per seed -- faulty
## links, leases, journal recovery, and the serial-equivalence matrix
## over every scenario in CHAOS_SCENARIOS.
REPRO_CHAOS_SEED ?= 0
test-chaos:
	REPRO_CHAOS_SEED=$(REPRO_CHAOS_SEED) $(PYTHON) -m pytest \
		tests/net/test_chaos.py tests/ipc/test_reliable_channel.py \
		tests/ipc/test_journal.py -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo "--timeout=120 --timeout-method=thread")

## test-cluster: the real-wire cluster runtime -- TCP worker daemons,
## the impairment-proxy chaos matrix, zombie epoch fencing, journal
## torn-write recovery, authenticated gossip membership (HMAC frames,
## truncation/tamper sweeps, phi-accrual suspicion, worker re-join),
## the per-endpoint circuit breaker, and the subprocess acceptance
## tests (real SIGKILL mid-race, respawn-and-rejoin, router
## kill-and-replay).  Per-test timeout when pytest-timeout is
## available (a hang here means a lost daemon).
test-cluster:
	REPRO_CHAOS_SEED=$(REPRO_CHAOS_SEED) $(PYTHON) -m pytest \
		tests/cluster tests/resilience/test_breaker.py \
		tests/ipc/test_journal_durable.py -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo "--timeout=180 --timeout-method=thread")

## test-check: the schedule-exploration harness -- the checker's own
## suite, then an explore pass over every canonical block (CI fans this
## out as a strategy x seed matrix).  Uses a hard per-test timeout when
## pytest-timeout is available (a hang here means a lost handoff in the
## cooperative scheduler).
CHECK_STRATEGY ?= random
CHECK_SEED ?= 0
CHECK_SCHEDULES ?= 50
test-check:
	$(PYTHON) -m pytest tests/check -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo "--timeout=300 --timeout-method=thread")
	$(PYTHON) -m repro check --all --strategy $(CHECK_STRATEGY) \
		--seed $(CHECK_SEED) --schedules $(CHECK_SCHEDULES) --stats

## test-matrix-pooled: the cross-backend equivalence matrix with the
## pre-warmed world pool enabled -- the pooled process backend (and the
## pool-oblivious SimBackend) must still agree with the serial oracle.
## test_world_pool.py carries the arena's own battery (TestArena: one
## evolving parent against serial block for block, two stores sharing a
## pool, rotation, a worker killed after publish, the inline fallback)
## and the response slabs' (TestResponseSlabs: fifty blocks on a handful
## of segments, a winner's slab waiting for the world that adopted it, a
## faulted arm's for the reaper, a nested pool, 16/1024/16-page spaces,
## the bounded spare set, shutdown under a pin; plus the
## lease/win/lose/kill/detach/drain/deadline/exit/shutdown state
## machine) and the detached leases' (TestDetachedLeases: fifty blocks
## settled by the pool, a late loser's slab kept until its record is
## read, a deaf loser killed at its deadline by lease, drain and
## shutdown, ship faults and a stale epoch on a detached arm, a retired
## arena pinned until settle, a pool as wide as its block never forking,
## the instruction issued before the lease is read, the stale bell, the
## pre-body check).  The default pool
## has 2 workers, so every block wider than 2 crosses, in one race, the
## reissued slab of a leased arm and the create-and-unlink slab of an arm
## that fell back to a fork: the 13-block matrix staying byte-identical
## here is the check on both.
test-matrix-pooled:
	REPRO_WORLD_POOL=1 $(PYTHON) -m pytest \
		tests/obs/test_equivalence_matrix.py tests/process/test_world_pool.py -q

## test-server: the multi-tenant race-server battery -- the
## admission/DRR Hypothesis state machine, server basics, the lease
## ledger under concurrent races, the concurrent equivalence matrix,
## and the worker-assassination soak.  REPRO_SERVER_SEED varies the
## soak's kill schedule; any schedule must leave results untouched.
## Per-test timeout when pytest-timeout is available (a hang here
## means a stuck dispatcher or an unfinished ticket).
REPRO_SERVER_SEED ?= 0
test-server:
	REPRO_SERVER_SEED=$(REPRO_SERVER_SEED) $(PYTHON) -m pytest \
		tests/server tests/process/test_pool_concurrency.py -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo "--timeout=180 --timeout-method=thread")

bench-smoke:
	$(PYTHON) benchmarks/bench_parallel_backends.py --quick

## bench-commit: the commit-latency sweep (pipe pickling vs the
## shared-memory pointer-swap commit, 1..4096 dirty pages); --quick in
## CI, full sweep locally regenerates BENCH_commit_latency.json.
BENCH_SEED ?= 0
bench-commit:
	$(PYTHON) benchmarks/bench_commit_latency.py --seed $(BENCH_SEED)

## bench-server: the multi-tenant throughput sweep (pooled workers vs
## fork-per-block across three concurrency levels); --quick in CI, full
## sweep locally regenerates BENCH_server_throughput.json.  Exits
## non-zero unless pooled wins by >=2x at the top level with a fair
## per-tenant goodput spread.
bench-server:
	$(PYTHON) benchmarks/bench_server_throughput.py --seed $(BENCH_SEED)

## bench-e2e-smoke: the end-to-end benchmark's self-check -- every
## workload of bench/run.py for a fraction of a second, untraced and
## traced (closure, shapes, correctness), then the benchmark's own tests.
## Between the two, gates on the record.  A pooled lease publishes what
## differs, so the traced solo-snapshot lease copies < 16 pages (it was
## 256, the whole parent per arm).  A clustered block rides sessions
## that already exist and names the parent's frames by id, so the traced
## cluster-race dials < 0.5 connections per block (it was 3) and moves
## < 60 000 bytes per block (it was 214 474).  A pooled arm ships into a
## slab its lease lends it -- one per worker, made by the first block
## (in the untimed warm-up) and reissued when its last reader lets go --
## so the traced solo-dirty creates < 1 slab per block (it was 3, one per
## arm; the smoke run reads 0, and a reuse that went through
## ShmSlab.create would read 3 again).  A race leaves its pooled losers
## to the pool, which hears them out one drainer at a time and makes a
## lease wait for them: a drain that misreads a shared pipe shows as
## respawns, a lease that forks instead of waiting as fallbacks, so the
## traced served-burst (two race threads on one pool) and solo-small
## (back-to-back blocks, no idle time for losers to report in) read 0 of
## each.  Counts, not timings: they hold on a shared CI runner.
SMOKE_RECORD ?= bench/out/smoke-gate.json
define SMOKE_GATE
import json, sys
summary = json.load(open('$(SMOKE_RECORD)'))['summary']
gates = [
    ('solo-snapshot', 'process.pool.snapshot_pages_per_lease', 16),
    ('cluster-race', 'cluster.stream.connects_per_block', 0.5),
    ('cluster-race', 'cluster.stream.bytes_per_block', 60000),
    ('solo-dirty', 'pages.shm.slabs_per_block', 1),
    ('served-burst', 'process.pool.fallbacks', 1),
    ('served-burst', 'process.pool.respawns', 1),
    ('solo-small', 'process.pool.fallbacks', 1),
    ('solo-small', 'process.pool.respawns', 1),
]
failed = False
for workload, metric, limit in gates:
    value = summary[workload][metric]['median']
    print(workload, metric, '=', value, '(gate: <', str(limit) + ')')
    failed = failed or value >= limit
sys.exit(failed)
endef
export SMOKE_GATE
bench-e2e-smoke:
	$(PYTHON) bench/run.py --smoke --out $(SMOKE_RECORD)
	$(PYTHON) -c "$$SMOKE_GATE"
	$(PYTHON) -m pytest bench -q

## bench: regenerate every paper table/figure (slow).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q
