// Command perfbench is the repository's benchmark. It serves each
// named workload for a fixed time on the host, measured from outside
// the program, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload fast-64 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run records spans around every call into
// a layer and the result carries the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"ehdl/internal/ebpf"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 15

// compileShare is the part of the measured time the compile loop takes.
const compileShare = 0.3

// outDir holds span files and full results, inside the checkout.
const outDir = ".bench_build/out"

// baselinePath is the repository's recorded bench points.
const baselinePath = "BENCH_baseline.json"

func main() {
	name := flag.String("workload", "", "workload name: fast-64, rss-caida or interp-caida")
	seed := flag.Int64("seed", 1, "traffic seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := checkProcs(runtime.GOMAXPROCS(0), rssQueues, runtime.NumCPU()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	env := fmt.Sprintf("workload=%s seed=%d numcpu=%d gomaxprocs=%d go=%s",
		w.name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintln(os.Stderr, "perfbench:", env)

	budget := time.Duration(*seconds) * time.Second
	var res result
	var rec *recorder
	var err error
	if *trace == 1 {
		rec = newRecorder()
		res, err = runTraced(w, *seed, budget, rec)
	} else {
		res, err = runTimed(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := save(w, *seed, *trace, env, res, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// checkProcs rejects a process allowed more threads, or RSS worker
// queues, than there are CPUs: the host rates would then measure
// time-slicing, not the engine.
func checkProcs(gomaxprocs, queues, ncpu int) error {
	if gomaxprocs > ncpu {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs available", gomaxprocs, ncpu)
	}
	if queues > ncpu {
		return fmt.Errorf("%d RSS queues exceed the %d CPUs available", queues, ncpu)
	}
	return nil
}

// run is the state both modes share: set-up, the deterministic pass
// and the correctness checks.
type run struct {
	w      workload
	ss     []*served
	setups []float64 // process CPU seconds per set-up repetition
	gen    setupStats
	sim    *tally
	// attempted and failed count operations: packets offered and
	// programs compiled; drops, errors and divergences.
	attempted, failed uint64
	divergent         []string
}

// prepare runs set-up setupReps times, keeps the last shells, and
// replays each pool once on them for the deterministic sim_* figures.
func prepare(w workload, seed int64) (*run, error) {
	r := &run{w: w}
	for i := 0; i < setupReps; i++ {
		// Collect the previous repetition first, so peak memory does
		// not depend on when the collector happened to run.
		r.ss = nil
		runtime.GC()
		ss, st, err := setup(w, seed)
		if err != nil {
			return nil, err
		}
		r.ss, r.gen = ss, st
		r.setups = append(r.setups, st.total.Seconds())
	}
	sim, err := simPass(w, r.ss)
	if err != nil {
		return nil, err
	}
	r.sim = sim
	r.account(sim)
	return r, nil
}

// account folds a tally into the operation counts.
func (r *run) account(t *tally) {
	r.attempted += t.sent
	r.failed += t.lost + uint64(len(t.violations))
	r.divergent = append(r.divergent, t.violations...)
}

// check runs the untimed correctness pass and the design checks.
func (r *run) check(c compileResult) error {
	r.diverge(correctness(r.w, r.ss))
	r.diverge(c.mismatches)
	fig, err := fig10Mismatches(baselinePath, c)
	if err != nil {
		return err
	}
	r.diverge(fig)
	return nil
}

func (r *run) diverge(msgs []string) {
	for _, m := range msgs {
		fmt.Fprintln(os.Stderr, "perfbench: divergence:", m)
	}
	r.divergent = append(r.divergent, msgs...)
	r.failed += uint64(len(msgs))
}

func (r *run) result(m map[string]metric) result {
	return result{Correct: len(r.divergent) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// runTimed measures the end-to-end metrics with tracing off.
func runTimed(w workload, seed int64, budget time.Duration) (result, error) {
	r, err := prepare(w, seed)
	if err != nil {
		return result{}, err
	}
	var req int64
	compileBudget := time.Duration(float64(budget) * compileShare)
	c, err := compileLoop(programs(r.ss), compileBudget, nil, &req)
	if err != nil {
		return result{}, err
	}
	r.attempted += uint64(len(c.ms))
	runtime.GC() // the compile loop's garbage is not serving's cost
	sv, err := serve(w, r.ss, budget-compileBudget, nil, &req, nil, nil)
	if err != nil {
		return result{}, err
	}
	r.account(&sv.tally)
	if err := r.check(c); err != nil {
		return result{}, err
	}

	// The tail is process CPU time on every workload: on the RSS engine
	// wall-clock tails measure the host's stolen time more than the
	// program, and the allocation and collector work the tail should
	// show is CPU time on any thread.
	host, err := tailPercentile(sv.cpuNs)
	if err != nil {
		return result{}, fmt.Errorf("host ns/pkt: %w", err)
	}
	comp, err := tailPercentile(c.ms)
	if err != nil {
		return result{}, fmt.Errorf("compile ms: %w", err)
	}
	clock := "process CPU"
	if wallClocked(w) {
		clock = "wall"
	}
	fmt.Fprintf(os.Stderr, "perfbench: host ns/pkt p50 (%s time) and p%.4g (process CPU time) over %d RunLoad chunks of %d packets; compile ms p%.4g over %d programs\n",
		clock, host.Pct, host.N, w.chunk, comp.Pct, comp.N)
	sim := r.sim.sim()
	pct := c.meanPct()
	return r.result(map[string]metric{
		"host_mpps":           {sv.mpps(), "Mpps"},
		"host_ns_per_pkt_p50": {median(sv.hostNs), "ns"},
		"host_ns_per_pkt_p99": {host.Value, "ns"},
		"sim_mpps":            {sim.mpps, "Mpps"},
		"sim_latency_ns":      {sim.latencyNs, "sim-ns"},
		"sim_latency_max_ns":  {sim.latencyMaxNs, "sim-ns"},
		"sim_delivery_ratio":  {sim.delivery, "ratio"},
		"compile_ms_p50":      {median(c.ms), "ms"},
		"compile_ms_p99":      {comp.Value, "ms"},
		"design_lut_pct":      {pct.LUT, "%"},
		"design_bram_pct":     {pct.BRAM, "%"},
		"setup_s":             {median(r.setups), "s"},
		"max_rss_mb":          {maxRSSMB(), "MB"},
	}), nil
}

func programs(ss []*served) []*ebpf.Program {
	out := make([]*ebpf.Program, len(ss))
	for i, s := range ss {
		out[i] = s.prog
	}
	return out
}

// rusage is the process's resource usage so far.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return ru
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// processCPU is the CPU time every thread of the process has used, to
// the microsecond. A sample of it excludes the time the host did not
// run the process at all, which on a shared host is the largest source
// of run-to-run spread, and still counts the runtime's own work
// (garbage collection) on any thread.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// save writes the full result, with the run's environment, and in the
// traced run the spans, under outDir.
func save(w workload, seed int64, trace int, env string, res result, rec *recorder) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, trace))
	full := struct {
		Env    string `json:"env"`
		Result result `json:"result"`
	}{env, res}
	raw, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", raw, 0o644); err != nil {
		return err
	}
	if rec == nil {
		return nil
	}
	return rec.writeJSONL(base + ".spans.jsonl")
}
