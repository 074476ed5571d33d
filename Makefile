GO ?= go
FUZZTIME ?= 5s
# 5 samples per cell matches the committed results/table4*.txt provenance
# (see EXPERIMENTS.md).
TABLE4FLAGS ?= -samples 5 -timing model

.PHONY: check bench table4 clean

# check is the CI entry point. scripts/check.sh holds the one list of
# checks: gofmt/vet/staticcheck, build, the full test suite, the race-enabled
# suite, the allocs-only benchmark regression gate, a short fuzz pass over
# each wire-parsing target, the live loopback smoke (incl. -pool), the
# sharded-accept saturate smoke, the distributed coordinator/worker smoke,
# the observability smokes (phase traces + Prometheus /metrics, windowed
# timelines), and a workers-1-vs-8 determinism spot check.
check:
	FUZZTIME=$(FUZZTIME) sh scripts/check.sh

# bench refreshes the committed microbenchmark baseline (kernel ns/op +
# allocs/op + live loopback handshakes/sec) and runs the go-test-native
# kernel benchmarks once as a smoke pass. Commit the regenerated JSON when
# the numbers move for a good reason; scripts/bench_gate.sh fails CI when
# they move for a bad one.
bench:
	$(GO) build -o bin/pqbench ./cmd/pqbench
	bin/pqbench microbench -out BENCH_12.json
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# table4 regenerates the constrained-network tables (Table 4a/4b) with the
# parallel engine, verifies worker-count determinism (the -workers 8 output
# must be byte-identical to -workers 1), and shows what changed vs. the
# committed results. The loss-monotonicity gate runs inside pqbench.
table4:
	$(GO) build -o bin/pqbench ./cmd/pqbench
	bin/pqbench all-kem-scenarios $(TABLE4FLAGS) -workers 8 > results/table4a.txt
	bin/pqbench all-sig-scenarios $(TABLE4FLAGS) -workers 8 > results/table4b.txt
	bin/pqbench all-kem-scenarios $(TABLE4FLAGS) -workers 1 | cmp - results/table4a.txt
	bin/pqbench all-sig-scenarios $(TABLE4FLAGS) -workers 1 | cmp - results/table4b.txt
	git diff --stat -- results/table4a.txt results/table4b.txt

clean:
	$(GO) clean ./...
	rm -f *.pcap
	rm -rf bin
