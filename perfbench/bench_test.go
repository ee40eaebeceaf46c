package main

import (
	"math"
	"testing"
	"time"

	"ehdl/internal/ebpf"
	"ehdl/internal/nic"
)

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing should be NaN")
	}
}

// seq returns 1..n.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{2000, 99, 1980}, // p99 rank 1980 leaves 20 beyond
		{1000, 99, 990},  // exactly 10 beyond
		{999, 100 * 989.0 / 999, 989},
		{100, 90, 90},
		{11, 100.0 / 11, 1},
	} {
		tl, err := tailPercentile(seq(tc.n))
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if tl.N != tc.n || tl.Value != tc.wantVal || math.Abs(tl.Pct-tc.wantPct) > 1e-9 {
			t.Fatalf("n=%d: got %+v, want p%v = %v", tc.n, tl, tc.wantPct, tc.wantVal)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > tl.Value {
				beyond++
			}
		}
		if beyond < minTail {
			t.Fatalf("n=%d: only %d samples beyond p%v", tc.n, beyond, tl.Pct)
		}
	}
	if _, err := tailPercentile(seq(minTail)); err == nil {
		t.Fatal("ten samples cannot support any tail percentile")
	}
}

func span(id, parent int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "root", 0, 100),
		span(2, 1, "a", 10, 30),
		span(3, 1, "a", 20, 40),  // overlaps the first child
		span(4, 1, "b", 90, 120), // outlives the parent
		span(5, 2, "leaf", 12, 14),
		span(6, 0, "root", 200, 210),
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"root": (100 - 30 - 10) + 10, // children cover [10,40) and [90,100)
		"a":    (20 - 2) + 20,
		"b":    30,
		"leaf": 2,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	if _, err := selfTimes([]Span{span(1, 9, "orphan", 0, 1)}); err == nil {
		t.Error("unknown parent accepted")
	}
	if _, err := selfTimes([]Span{span(1, 0, "backwards", 5, 1)}); err == nil {
		t.Error("span ending before it starts accepted")
	}
}

func TestRecorderNilIsFree(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 1)
	r.end(id)
	if id != 0 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
	rec := newRecorder()
	root := rec.begin("root", 0, 7)
	child := rec.begin("child", root, 7)
	rec.end(child)
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[1].Parent != root || rec.spans[1].Req != 7 {
		t.Fatalf("spans = %+v", rec.spans)
	}
	if _, err := selfTimes(rec.spans); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerViolations(t *testing.T) {
	good := nic.Report{
		Sent: 10, Received: 8, Lost: 2,
		Actions: map[ebpf.XDPAction]uint64{ebpf.XDPPass: 5, ebpf.XDPDrop: 3},
	}
	if v := ledgerViolations(good); len(v) != 0 {
		t.Fatalf("balanced report flagged: %v", v)
	}
	for name, mut := range map[string]func(*nic.Report){
		"lost packet":    func(r *nic.Report) { r.Lost = 1 },
		"action missing": func(r *nic.Report) { r.Actions = map[ebpf.XDPAction]uint64{ebpf.XDPPass: 7} },
		"merge conflict": func(r *nic.Report) { r.MergeConflicts = 1 },
	} {
		bad := good
		mut(&bad)
		if v := ledgerViolations(bad); len(v) != 1 {
			t.Errorf("%s: got %d violations %v, want 1", name, len(v), v)
		}
	}
}

func TestCheckProcsRejectsOversubscription(t *testing.T) {
	for _, tc := range []struct {
		gomaxprocs, queues, ncpu int
		ok                       bool
	}{
		{2, 2, 2, true},
		{1, 2, 2, true},
		{3, 2, 2, false}, // GOMAXPROCS > nproc
		{1, 2, 1, false}, // more RSS queues than CPUs
	} {
		err := checkProcs(tc.gomaxprocs, tc.queues, tc.ncpu)
		if (err == nil) != tc.ok {
			t.Errorf("checkProcs(%d, %d, %d) = %v, want ok=%v", tc.gomaxprocs, tc.queues, tc.ncpu, err, tc.ok)
		}
	}
}

func TestSkew(t *testing.T) {
	if got := skew([]uint64{61, 39}); math.Abs(got-1.22) > 1e-12 {
		t.Fatalf("skew = %v, want 1.22", got)
	}
	if got := skew(nil); got != 0 {
		t.Fatalf("skew of nothing = %v", got)
	}
}

func TestWorkloadsDivideTheirPools(t *testing.T) {
	// serve hands twins s.pkts[c0:c0+chunk]: a chunk must never wrap.
	for _, w := range workloads {
		if w.pool%w.chunk != 0 || w.layerPkts > w.pool || w.correctPrefix > w.pool {
			t.Errorf("%s: pool %d, chunk %d, layer %d, prefix %d", w.name, w.pool, w.chunk, w.layerPkts, w.correctPrefix)
		}
	}
}

// small shrinks a workload so a test can run every phase quickly.
func small(w workload) workload {
	w.chunk = min(w.chunk, 256)
	w.pool = 4 * w.chunk
	w.correctPrefix = min(w.correctPrefix, w.pool)
	w.layerPkts = min(w.layerPkts, w.pool)
	return w
}

func TestWorkloadsServeCleanAndDeterministically(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			var sims [2]simMetrics
			for i := range sims {
				ss, _, err := setup(w, 42)
				if err != nil {
					t.Fatal(err)
				}
				tl, err := simPass(w, ss)
				if err != nil {
					t.Fatal(err)
				}
				if tl.lost != 0 || len(tl.violations) != 0 {
					t.Fatalf("sim pass: lost %d, ledger %v", tl.lost, tl.violations)
				}
				sims[i] = tl.sim()
				if i == 1 {
					var req int64
					sv, err := serve(w, ss, 20*time.Millisecond, nil, &req, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					if sv.tally.lost != 0 || len(sv.tally.violations) != 0 {
						t.Fatalf("serve: lost %d, ledger %v", sv.tally.lost, sv.tally.violations)
					}
					if d := correctness(w, ss); len(d) != 0 {
						t.Fatalf("divergences: %v", d)
					}
				}
			}
			if sims[0] != sims[1] {
				t.Fatalf("same seed, different simulated results: %+v vs %+v", sims[0], sims[1])
			}
		})
	}
}

func TestTracedServingAlternatesTwinOrder(t *testing.T) {
	w := small(workloads[0])
	ss, _, err := setup(w, 42)
	if err != nil {
		t.Fatal(err)
	}
	var cnt counts
	tw, err := twins(w, ss, &cnt)
	if err != nil {
		t.Fatal(err)
	}
	rec, lr := newRecorder(), newLayerRun()
	var req int64
	if _, err := serve(w, ss, 50*time.Millisecond, rec, &req, tw, lr); err != nil {
		t.Fatal(err)
	}
	// The first child of each round shows which side went first.
	first := map[int64]string{}
	for _, sp := range rec.spans {
		if _, seen := first[sp.Req]; !seen && sp.Parent != 0 {
			first[sp.Req] = sp.Name
		}
	}
	for r, twinFirst := range lr.twinFirst {
		want := "nic.RunLoad"
		if twinFirst {
			want = "fastpath.drive:" + ss[0].app.Name
		}
		if first[r] != want {
			t.Errorf("round %d (twin first %v) opens with %q, want %q", r, twinFirst, first[r], want)
		}
	}
	if lr.orderPkts[false] == 0 || lr.orderPkts[true] == 0 {
		t.Fatalf("packets per order %v: both orders must be timed", lr.orderPkts)
	}
}
