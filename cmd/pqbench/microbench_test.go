package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Bench files written before the host fields existed still load, and a
// file that records its host reads back as the same host.
func TestBenchFileHost(t *testing.T) {
	old, err := readBenchFile("../../BENCH_12.json")
	if err != nil {
		t.Fatal(err)
	}
	if old.NProc != 0 || !strings.Contains(old.host(), "not recorded") || len(old.Benchmarks) == 0 {
		t.Errorf("BENCH_12.json: host %q, %d kernels", old.host(), len(old.Benchmarks))
	}
	doc := benchFile{Schema: benchSchema, Go: "go1.24.0", NProc: 2, GOMAXPROCS: 2, CPU: "test cpu"}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := readBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.host() != doc.host() || back.host() == old.host() {
		t.Errorf("host %q after a round trip, want %q", back.host(), doc.host())
	}
}
