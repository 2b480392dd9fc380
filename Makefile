# Convenience targets wrapping dune. `make check` is the one-stop gate;
# the end-to-end benchmark is `python3 bench/e2e/run.py` (BENCHMARK.json).

.PHONY: build test lint lint-typed check check-sanitize clean

build:
	dune build

test:
	dune runtest

clean:
	dune clean
	rm -f $(LINT_JSON)

LINT_JSON := LINT_report.json

lint:
	@rm -f $(LINT_JSON)
	dune build bin/lint/lint_main.exe
	dune exec bin/lint/lint_main.exe -- --format json --out $(LINT_JSON)
	@echo "lint: OK (report in $(LINT_JSON))"

# Typed lint: the interprocedural rules (R8, R10-R13) read the .cmt
# artifacts under _build. A plain `dune build` leaves none for an
# executable (dune writes it only as a side product of native
# compilation, then deletes it as stale), so the @check alias builds
# one per module as a target. Every scanned .ml without a .cmt fails
# the run; with no artifacts at all it would degrade to the syntactic
# rules, which the typed_units guard below refuses.
lint-typed:
	@rm -f $(LINT_JSON)
	dune build
	dune build @check
	dune exec bin/lint/lint_main.exe -- --typed --format json --out $(LINT_JSON)
	@grep -q '"typed_units": [1-9]' $(LINT_JSON) || \
		{ echo "lint-typed: typed phase did not run (no .cmt artifacts?)"; exit 1; }
	@echo "lint-typed: OK (report in $(LINT_JSON))"

# Handle-safety gate: re-run the arena differential suites, the
# Bgp_table suite, the scenario suite (Table 1, Figure 3 and the
# timeline, all driven by the snapshot generator) and the netsim
# sweep with the sanitizer on
# (ARENA_SANITIZE=1), so every store widens its handles with
# generation tags, poisons freed slots and bounds/liveness/generation-
# checks every accessor. Any stale or cross-store handle the normal
# build would silently resolve raises San.Violation here and fails the
# run. The arena suite also contains a deliberately-stale-handle test
# asserting the sanitizer does fire.
check-sanitize: build
	ARENA_SANITIZE=1 dune exec test/test_arena.exe
	ARENA_SANITIZE=1 dune exec test/test_compress.exe
	ARENA_SANITIZE=1 dune exec test/test_validation.exe
	ARENA_SANITIZE=1 dune exec test/test_churn.exe
	ARENA_SANITIZE=1 dune exec test/test_dataset.exe
	ARENA_SANITIZE=1 dune exec test/test_scenario.exe
	ARENA_SANITIZE=1 dune exec test/test_netsim.exe
	@echo "check-sanitize: OK"

# The one-stop gate: build everything, run the test suites (the
# bench/e2e smoke runs among them) and lint the tree, typed phase
# included.
check: build test lint-typed
	@echo "check: OK"
