# Convenience targets wrapping dune. `bench-smoke` is the CI-grade
# check for the compression bench: a small-scale run must produce a
# BENCH_compress.json in the current schema. Via `bench-validate-smoke`
# it also requires BENCH_validate.json's 2-domain bulk-validation
# checksums to agree with the sequential sweeps.

SMOKE_JSON := BENCH_smoke.json
VALIDATE_SMOKE_JSON := BENCH_validate_smoke.json
SIM_SMOKE_JSON := BENCH_rtr_smoke.json
FANOUT_SMOKE_JSON := BENCH_rtr_fanout_smoke.json
ARENA_SMOKE_JSON := BENCH_arena_smoke.json
CHURN_SMOKE_JSON := BENCH_churn_smoke.json

.PHONY: build test lint lint-typed check check-sanitize bench bench-smoke \
	bench-validate-smoke sim-smoke bench-fanout-smoke bench-arena-smoke \
	bench-churn-smoke clean

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

bench-smoke: bench-validate-smoke
	rm -f $(SMOKE_JSON)
	BENCH_SCALE=0.05 BENCH_ONLY=compress BENCH_JSON=$(SMOKE_JSON) \
		dune exec bench/main.exe
	@test -f $(SMOKE_JSON) || { echo "bench-smoke: $(SMOKE_JSON) missing"; exit 1; }
	@grep -q '"schema": "rpki-maxlen/bench-compress/v2"' $(SMOKE_JSON) || \
		{ echo "bench-smoke: bad schema"; exit 1; }
	@echo "bench-smoke: OK"

bench-validate-smoke:
	rm -f $(VALIDATE_SMOKE_JSON)
	BENCH_SCALE=0.05 RPKI_DOMAINS=2 BENCH_ONLY=validate \
		BENCH_VALIDATE_JSON=$(VALIDATE_SMOKE_JSON) \
		dune exec bench/main.exe
	@test -f $(VALIDATE_SMOKE_JSON) || \
		{ echo "bench-validate-smoke: $(VALIDATE_SMOKE_JSON) missing"; exit 1; }
	@grep -q '"schema": "rpki-maxlen/bench-validate/v1"' $(VALIDATE_SMOKE_JSON) || \
		{ echo "bench-validate-smoke: bad schema"; exit 1; }
	@grep -q '"agrees": true' $(VALIDATE_SMOKE_JSON) || \
		{ echo "bench-validate-smoke: no agreeing parallel run recorded"; exit 1; }
	@! grep -q '"agrees": false' $(VALIDATE_SMOKE_JSON) || \
		{ echo "bench-validate-smoke: parallel validation drifted from sequential"; exit 1; }
	@echo "bench-validate-smoke: OK"

# Arena smoke: a small-scale arena-vs-record run must produce
# BENCH_arena.json with every per-query output element-wise identical
# to the record oracle and the arena side strictly faster on every
# workload (the bench exits non-zero on either violation; the greps
# double-check the recorded verdicts).
bench-arena-smoke:
	rm -f $(ARENA_SMOKE_JSON)
	BENCH_SCALE=0.05 RPKI_DOMAINS=2 BENCH_ONLY=arena \
		BENCH_ARENA_JSON=$(ARENA_SMOKE_JSON) \
		dune exec bench/main.exe
	@test -f $(ARENA_SMOKE_JSON) || \
		{ echo "bench-arena-smoke: $(ARENA_SMOKE_JSON) missing"; exit 1; }
	@grep -q '"schema": "rpki-maxlen/bench-arena/v1"' $(ARENA_SMOKE_JSON) || \
		{ echo "bench-arena-smoke: bad schema"; exit 1; }
	@grep -q '"outputs_agree": true' $(ARENA_SMOKE_JSON) || \
		{ echo "bench-arena-smoke: arena output diverged from the record oracle"; exit 1; }
	@grep -q '"arena_faster": true' $(ARENA_SMOKE_JSON) || \
		{ echo "bench-arena-smoke: arena path not strictly faster"; exit 1; }
	@echo "bench-arena-smoke: OK"

# Live-churn smoke: a reduced timeline replay through the incremental
# engine must stay bit-identical to the per-transition batch recompute
# AND come in strictly cheaper than it, then serve the resulting
# compressed sets over a scripted RTR run that converges (the bench
# exits non-zero on any violation; the greps double-check the recorded
# verdicts).
bench-churn-smoke:
	rm -f $(CHURN_SMOKE_JSON)
	BENCH_ONLY=churn BENCH_CHURN_SCALE=0.01 BENCH_CHURN_ROUTERS=20 \
		BENCH_CHURN_JSON=$(CHURN_SMOKE_JSON) \
		dune exec bench/main.exe
	@test -f $(CHURN_SMOKE_JSON) || \
		{ echo "bench-churn-smoke: $(CHURN_SMOKE_JSON) missing"; exit 1; }
	@grep -q '"schema": "rpki-maxlen/bench-churn/v1"' $(CHURN_SMOKE_JSON) || \
		{ echo "bench-churn-smoke: bad schema"; exit 1; }
	@grep -q '"incremental_matches_batch": true' $(CHURN_SMOKE_JSON) || \
		{ echo "bench-churn-smoke: incremental state diverged from batch"; exit 1; }
	@! grep -q '"identical": false' $(CHURN_SMOKE_JSON) || \
		{ echo "bench-churn-smoke: a transition diverged from batch"; exit 1; }
	@grep -q '"ok": true' $(CHURN_SMOKE_JSON) || \
		{ echo "bench-churn-smoke: the churn-scripted RTR run did not converge"; exit 1; }
	@echo "bench-churn-smoke: OK"

# Fault-injection smoke: a reduced RTR sweep (every fault policy, a
# handful of seeds) must satisfy the convergence invariant and replay
# deterministically. The bench exits non-zero on any violation; the
# greps double-check the recorded verdicts.
sim-smoke:
	rm -f $(SIM_SMOKE_JSON)
	BENCH_RTR_SEEDS=10 BENCH_ONLY=rtr BENCH_RTR_JSON=$(SIM_SMOKE_JSON) \
		dune exec bench/main.exe
	@test -f $(SIM_SMOKE_JSON) || { echo "sim-smoke: $(SIM_SMOKE_JSON) missing"; exit 1; }
	@grep -q '"schema": "rpki-maxlen/bench-rtr/v1"' $(SIM_SMOKE_JSON) || \
		{ echo "sim-smoke: bad schema"; exit 1; }
	@grep -q '"all_ok": true' $(SIM_SMOKE_JSON) || \
		{ echo "sim-smoke: a run violated the convergence invariant"; exit 1; }
	@grep -q '"deterministic": true' $(SIM_SMOKE_JSON) || \
		{ echo "sim-smoke: replay diverged"; exit 1; }
	@echo "sim-smoke: OK"

# Encode-once smoke: one reduced fan-out run (1k sessions, mixed fault
# policies) must hold the one-delta-encode-per-publish invariant and
# end with >=90% of the fleet Fresh. The bench exits non-zero on
# either violation; the greps double-check the recorded verdict.
bench-fanout-smoke:
	rm -f $(FANOUT_SMOKE_JSON)
	BENCH_ONLY=fanout BENCH_FANOUT_SESSIONS=1000 \
		BENCH_FANOUT_JSON=$(FANOUT_SMOKE_JSON) \
		dune exec bench/main.exe
	@test -f $(FANOUT_SMOKE_JSON) || \
		{ echo "bench-fanout-smoke: $(FANOUT_SMOKE_JSON) missing"; exit 1; }
	@grep -q '"schema": "rpki-maxlen/bench-rtr-fanout/v1"' $(FANOUT_SMOKE_JSON) || \
		{ echo "bench-fanout-smoke: bad schema"; exit 1; }
	@grep -q '"encode_once_ok": true' $(FANOUT_SMOKE_JSON) || \
		{ echo "bench-fanout-smoke: more than one encode per serial bump"; exit 1; }
	@echo "bench-fanout-smoke: OK"

clean:
	dune clean
	rm -f BENCH_compress.json BENCH_validate.json BENCH_rtr.json \
		BENCH_rtr_fanout.json BENCH_arena.json BENCH_churn.json \
		$(SMOKE_JSON) $(VALIDATE_SMOKE_JSON) $(SIM_SMOKE_JSON) \
		$(FANOUT_SMOKE_JSON) $(ARENA_SMOKE_JSON) $(CHURN_SMOKE_JSON) \
		$(LINT_JSON)

LINT_JSON := LINT_report.json

lint:
	@rm -f $(LINT_JSON)
	dune build bin/lint/lint_main.exe
	dune exec bin/lint/lint_main.exe -- --format json --out $(LINT_JSON)
	@echo "lint: OK (report in $(LINT_JSON))"

# Typed lint: the interprocedural rules (R8-R10) read the .cmt
# artifacts a full build leaves under _build, so build first — without
# artifacts the run would silently degrade to the syntactic rules.
lint-typed:
	@rm -f $(LINT_JSON)
	dune build
	dune exec bin/lint/lint_main.exe -- --typed --format json --out $(LINT_JSON)
	@grep -q '"typed_units": [1-9]' $(LINT_JSON) || \
		{ echo "lint-typed: typed phase did not run (no .cmt artifacts?)"; exit 1; }
	@echo "lint-typed: OK (report in $(LINT_JSON))"

# Handle-safety gate: re-run the arena differential suites and the
# netsim sweep with the sanitizer on (ARENA_SANITIZE=1), so every
# store widens its handles with generation tags, poisons freed slots
# and bounds/liveness/generation-checks every accessor. Any stale or
# cross-store handle the normal build would silently resolve raises
# San.Violation here and fails the run. The arena suite also contains
# a deliberately-stale-handle test asserting the sanitizer does fire.
check-sanitize: build
	ARENA_SANITIZE=1 dune exec test/test_arena.exe
	ARENA_SANITIZE=1 dune exec test/test_compress.exe
	ARENA_SANITIZE=1 dune exec test/test_validation.exe
	ARENA_SANITIZE=1 dune exec test/test_churn.exe
	ARENA_SANITIZE=1 dune exec test/test_netsim.exe
	@echo "check-sanitize: OK"

# The one-stop gate: build everything, run the test suites, lint the
# tree (typed phase included), and smoke-check the compression and
# validation benches, the RTR simulator, the encode-once fan-out, the
# arena-vs-record data plane and the live-churn incremental engine.
check: build test lint-typed bench-smoke sim-smoke bench-fanout-smoke bench-arena-smoke \
		bench-churn-smoke
	@echo "check: OK"
