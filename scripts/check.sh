#!/bin/sh
# CI gate: the one list of checks. `make check` runs this script; it also
# runs standalone where make is unavailable. Fails on the first broken step.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
    echo "gofmt needed on:"
    echo "$fmt_out"
    exit 1
fi

echo "==> go vet"
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck"
    staticcheck ./...
else
    echo "==> staticcheck not installed; skipping"
fi

echo "==> go build"
go build ./...

echo "==> go test"
go test ./...

echo "==> go test -race"
go test -race ./...

echo "==> benchmark regression gate (short mode: allocs/op only)"
sh scripts/bench_gate.sh -short

echo "==> fuzz smoke (${FUZZTIME:-5s} per target): every parser a peer reaches"
for target in FuzzClientHelloParse FuzzServerHelloParse FuzzRecordDeprotect \
    FuzzHandshakeReassembly FuzzParsePSKExtension FuzzParseCertificate \
    FuzzParseCertVerify FuzzParseHRRGroup; do
    go test ./internal/tls13 -run '^$' -fuzz "^$target\$" -fuzztime "${FUZZTIME:-5s}"
done
go test ./internal/pki -run '^$' -fuzz '^FuzzUnmarshal$' -fuzztime "${FUZZTIME:-5s}"

echo "==> live smoke: loopback handshakes under -race, schedule digest reproducible (incl. -pool)"
livedir=$(mktemp -d)
go build -race -o "$livedir/pqbench-race" ./cmd/pqbench
d1=$("$livedir/pqbench-race" live -kem kyber768 -sig dilithium3 -rate 50 -duration 1s |
    tee /dev/stderr | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
d2=$("$livedir/pqbench-race" live -kem kyber768 -sig dilithium3 -rate 50 -duration 1s |
    sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
if [ -z "$d1" ] || [ "$d1" != "$d2" ]; then
    rm -rf "$livedir"
    echo "live smoke: schedule digest not reproducible: '$d1' vs '$d2'"
    exit 1
fi
# The full precompute subsystem (-pool: key-share factory, amortized client
# caches, signing worker pool) must keep the digest and finish without
# failures under the race detector.
pout=$("$livedir/pqbench-race" live -kem kyber768 -sig dilithium3 -rate 50 -duration 1s -pool |
    tee /dev/stderr)
d3=$(echo "$pout" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
if [ "$d1" != "$d3" ]; then
    rm -rf "$livedir"
    echo "live smoke: -pool changed the schedule digest: '$d1' vs '$d3'"
    exit 1
fi
if ! echo "$pout" | grep -q 'failed 0,'; then
    rm -rf "$livedir"
    echo "live smoke: -pool run had handshake failures"
    exit 1
fi

echo "==> saturate smoke: sharded accept + split-schedule dispatch under -race, sweep digest reproducible"
s1=$("$livedir/pqbench-race" saturate -rate 40 -duration 1s -rungs 2 -shards 1,2 -resume |
    tee /dev/stderr | sed -n 's/.*sweep digest \([0-9a-f]*\).*/\1/p')
s2=$("$livedir/pqbench-race" saturate -rate 40 -duration 1s -rungs 2 -shards 1,2 -resume |
    sed -n 's/.*sweep digest \([0-9a-f]*\).*/\1/p')
if [ -z "$s1" ] || [ "$s1" != "$s2" ]; then
    rm -rf "$livedir"
    echo "saturate smoke: sweep digest not reproducible: '$s1' vs '$s2'"
    exit 1
fi

echo "==> dist smoke: coordinator/worker under -race, merged digest equals single-process"
"$livedir/pqbench-race" dist-coordinator -simulate -verify -workers 2 -workers-local 2 \
    -rate 80 -duration 1s -start-delay 50ms -heartbeat-timeout 2s
echo "==> dist smoke: kill one worker mid-run, reassignment must keep totals exact"
"$livedir/pqbench-race" dist-coordinator -simulate -verify -workers 2 -workers-local 2 \
    -rate 80 -duration 1s -start-delay 50ms \
    -heartbeat-timeout 400ms -kill-worker-after 500ms
rm -rf "$livedir"

echo "==> phases smoke: span traces + Prometheus /metrics end to end"
sh scripts/phases_smoke.sh

echo "==> timeline smoke: windowed telemetry artifacts, fleet merge digest-exact"
sh scripts/timeline_smoke.sh

echo "==> determinism spot check: pqbench all-kem, workers 1 vs 8"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/pqbench" ./cmd/pqbench
"$tmpdir/pqbench" all-kem -samples 3 -workers 1 >"$tmpdir/w1.txt" 2>/dev/null
"$tmpdir/pqbench" all-kem -samples 3 -workers 8 >"$tmpdir/w8.txt" 2>/dev/null
cmp "$tmpdir/w1.txt" "$tmpdir/w8.txt"

echo "OK"
