// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints its metrics by name and unit, then
// one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload full-pq --seed 1 --seconds 15 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - full-pq: kyber768 + dilithium3 full handshakes over loopback, the
//     server issuing a ticket after each and the client processing it.
//   - resume-pq: kyber768 psk_dhe_ke resumptions from primed tickets.
//   - paper-grid: the modeled Tables 2a, 2b and 4a through harness.RunCampaign.
//
// The live workloads run an open loop (Poisson arrivals drawn from --seed,
// each handshake timed from when it was due, at most nproc connections)
// for half the run and a closed loop over nproc connections for the other
// half. --trace 0 prints the end-to-end metrics; --trace 1 reruns the same
// workload with hooks on both ends and prints the per-layer metrics, and
// writes the spans under --out when it ends. The benchmark sets no
// performance option of the program: it measures the default
// configuration. It runs on Linux only: it reads per-thread rusage.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose paper-grid rows the benchmark pins.
const defaultSeed = 1

// How many cold set-ups a run times, all but one in fresh processes;
// setup_s is their median. The grid's set-up takes about 20 s, half of it
// RSA key generation, whose prime search tries a random number of
// candidates, so it repeats fewer times than the live set-ups.
const (
	liveSetupRepeats = 15
	gridSetupRepeats = 3
)

// runCtx carries the flags of one run.
type runCtx struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	host     hostInfo
	outDir   string
}

func (c runCtx) artifactName(kind string) string {
	return fmt.Sprintf("%s-%s-seed%d-trace%d.json", kind, c.workload, c.seed, boolInt(c.traced))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "full-pq | resume-pq | paper-grid")
	seed := fs.Int64("seed", defaultSeed, "draws the arrival schedule and the grid's loss seeds")
	seconds := fs.Float64("seconds", 15, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	setupOnly := fs.Bool("setup-only", false, "set the workload up once, print its set-up seconds and exit")
	outDir := fs.String("out", ".bench_build/results", "directory for the run's result file and the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	ctx := runCtx{
		workload: *workload, seed: *seed,
		dur:    time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, host: readHost(), outDir: *outDir,
	}
	if ctx.host.GOMAXPROCS != ctx.host.NProc {
		fmt.Fprintf(stderr, "perfbench: warning: GOMAXPROCS=%d but nproc=%d; the live loops size themselves by nproc\n",
			ctx.host.GOMAXPROCS, ctx.host.NProc)
	}

	var spec liveSpec
	switch *workload {
	case fullPQ.name:
		spec = fullPQ
	case resumePQ.name:
		spec = resumePQ
	case gridName:
	default:
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (full-pq, resume-pq, paper-grid)\n", *workload)
		return 2
	}
	if *setupOnly {
		secs, err := setupOnce(ctx, spec)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "setup_s=%s\n", strconv.FormatFloat(secs, 'g', -1, 64))
		return 0
	}

	var r *report
	if *workload == gridName {
		r = runGrid(ctx)
	} else {
		r = runLive(spec, ctx)
	}
	want := endToEnd
	if ctx.traced {
		want = perLayer
	}
	res := r.emit(stdout, want, ctx.host)
	if err := writeArtifact(ctx.outDir, ctx.artifactName("result"), map[string]any{
		"host": ctx.host, "workload": ctx.workload, "seed": ctx.seed, "seconds": *seconds,
		"result": res, "all_metrics": r.metrics, "notes": r.notes, "problems": r.problems,
	}); err != nil {
		fmt.Fprintf(stderr, "perfbench: result file not written: %v\n", err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// setupOnce times one cold set-up of the workload and tears it down.
func setupOnce(ctx runCtx, spec liveSpec) (float64, error) {
	t0 := time.Now()
	if ctx.workload == gridName {
		if err := setupGrid(paperCells(), ctx.host.NProc); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		return time.Since(t0).Seconds(), nil
	}
	env, err := setupLive(spec, false)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	secs := time.Since(t0).Seconds()
	if err := env.shutdown(); err != nil {
		return 0, fmt.Errorf("shutdown: %w", err)
	}
	return secs, nil
}

// childSetups times n cold set-ups of the workload, each in a fresh
// process, so every one pays the credential build and lazy tables.
func childSetups(ctx runCtx, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(exe, "--workload", ctx.workload, "--setup-only")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up process: %v: %s", err, strings.TrimSpace(stderr.String()))
		}
		v, err := parseSetupLine(stdout.String())
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseSetupLine(s string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "setup_s="); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("set-up process printed no setup_s line: %q", s)
}
