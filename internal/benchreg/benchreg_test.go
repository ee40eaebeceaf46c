package benchreg

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// collectOnce shares one (expensive) collection across the tests.
var cached *Baseline

func collect(t *testing.T) *Baseline {
	t.Helper()
	if cached == nil {
		b, err := Collect(1500)
		if err != nil {
			t.Fatal(err)
		}
		cached = b
	}
	return cached
}

func TestCollectCoversEveryFigure(t *testing.T) {
	b := collect(t)
	if b.NumCPU != runtime.NumCPU() {
		t.Errorf("recorded %d CPUs, host has %d", b.NumCPU, runtime.NumCPU())
	}
	for _, k := range []string{
		"fig9a/firewall/mpps", "fig9a/suricata/mpps", "fig9b/router/latency_ns",
		"fig10/firewall/lut_pct", "fig10/firewall/bram_pct",
		"scaling/toy/q1/mpps", "scaling/toy/q8/mpps", "scaling/toy/speedup_4q",
		KeyFastpathToyMpps, "host/fastpath/firewall/mpps",
		"host/fastpath/toy/q4/mpps", KeyFastpathSpeedup4Q,
	} {
		if _, ok := b.Points[k]; !ok {
			t.Errorf("point %q missing", k)
		}
	}
	for k, v := range b.Points {
		if strings.HasSuffix(k, "/mpps") && v <= 0 {
			t.Errorf("%s = %f, want > 0", k, v)
		}
	}
}

// TestScalingSpeedupRecorded is the acceptance number: four replicas
// must sustain at least 2.5x the single queue's simulated throughput.
// The host-side figure is asserted only on hosts with the cores to
// show it; the recorded NumCPU explains the committed value either way.
func TestScalingSpeedupRecorded(t *testing.T) {
	b := collect(t)
	if sp := b.Points["scaling/toy/speedup_4q"]; sp < 2.5 {
		t.Errorf("simulated 4-queue speedup %.2fx, want >= 2.5x", sp)
	}
	if lost := b.Points["scaling/toy/q4/lost"]; lost != 0 {
		t.Errorf("4 queues lost %.0f packets at 85%% aggregate load", lost)
	}
	if runtime.NumCPU() >= 4 {
		if sp := b.Points["host/scaling/toy/speedup_4q"]; sp < 1.2 {
			t.Errorf("host-side 4-queue speedup %.2fx on a %d-CPU host, want parallel gain", sp, runtime.NumCPU())
		}
	}
}

// TestCollectDeterministic: every simulated point must be bit-equal
// across collections; only the host/ wall-clock points may move.
func TestCollectDeterministic(t *testing.T) {
	a := collect(t)
	b, err := Collect(1500)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range a.Points {
		if strings.HasPrefix(k, "host/") {
			continue
		}
		if got := b.Points[k]; got != want {
			t.Errorf("%s: %v then %v across two collections", k, want, got)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := &Baseline{Packets: 100, Points: map[string]float64{
		"fig9a/toy/mpps":           100,
		"fig9b/toy/latency_ns":     50,
		"host/scaling/toy/q1/mpps": 3,
	}}
	cur := &Baseline{Packets: 100, Points: map[string]float64{
		"fig9a/toy/mpps":           96,
		"fig9b/toy/latency_ns":     500, // not gated: latency is informational
		"host/scaling/toy/q1/mpps": 0.1, // not gated: host wall clock
	}}
	if regs := Compare(base, cur, 5); len(regs) != 0 {
		t.Errorf("4%% drop within 5%% tolerance flagged: %v", regs)
	}
	cur.Points["fig9a/toy/mpps"] = 94
	regs := Compare(base, cur, 5)
	if len(regs) != 1 || !strings.Contains(regs[0], "fig9a/toy/mpps") {
		t.Errorf("6%% drop not flagged: %v", regs)
	}
	delete(cur.Points, "fig9a/toy/mpps")
	if regs := Compare(base, cur, 5); len(regs) != 1 || !strings.Contains(regs[0], "disappeared") {
		t.Errorf("vanished point not flagged: %v", regs)
	}
	if regs := Compare(base, &Baseline{Packets: 99, Points: map[string]float64{}}, 5); len(regs) != 1 {
		t.Errorf("packet-count mismatch not flagged: %v", regs)
	}
}

// TestFastpathGates pins the compiled-path gate arithmetic: the gates
// arm only when the baseline records the fast-path keys, the Mpps gate
// floors at FastpathFactor times the smaller of the committed and the
// just-measured interpreter rate (noise on the collecting host sinks
// both legs together; a fast host cannot raise the bar), and the
// 4-queue speedup must strictly exceed 1.
func TestFastpathGates(t *testing.T) {
	base := &Baseline{Packets: 100, Points: map[string]float64{
		KeyScalingToyQ1Mpps:  0.4,
		KeyFastpathToyMpps:   6,
		KeyFastpathSpeedup4Q: 8,
	}}
	cur := &Baseline{Packets: 100, Points: map[string]float64{
		KeyScalingToyQ1Mpps:  0.2, // a slow collection day halves the denominator too
		KeyFastpathToyMpps:   2.5, // above 10 x min(0.4, 0.2)
		KeyFastpathSpeedup4Q: 1.5,
	}}
	if regs := Compare(base, cur, 5); len(regs) != 0 {
		t.Errorf("passing fast path flagged: %v", regs)
	}

	cur.Points[KeyFastpathToyMpps] = 1.9 // below 10 x min(0.4, 0.2)
	regs := Compare(base, cur, 5)
	if len(regs) != 1 || !strings.Contains(regs[0], KeyFastpathToyMpps) {
		t.Errorf("sub-floor fast path not flagged: %v", regs)
	}

	// A fast host cannot raise the bar past the committed rate.
	cur.Points[KeyScalingToyQ1Mpps] = 0.9
	cur.Points[KeyFastpathToyMpps] = 4.5 // above 10 x min(0.4, 0.9), below 10 x 0.9
	if regs := Compare(base, cur, 5); len(regs) != 0 {
		t.Errorf("committed-rate cap not applied: %v", regs)
	}
	cur.Points[KeyScalingToyQ1Mpps] = 0.2
	cur.Points[KeyFastpathToyMpps] = 2.5

	cur.Points[KeyFastpathSpeedup4Q] = 0.97
	regs = Compare(base, cur, 5)
	if len(regs) != 1 || !strings.Contains(regs[0], KeyFastpathSpeedup4Q) {
		t.Errorf("speedup <= 1 not flagged: %v", regs)
	}
	delete(cur.Points, KeyFastpathSpeedup4Q)
	regs = Compare(base, cur, 5)
	if len(regs) != 1 || !strings.Contains(regs[0], "disappeared") {
		t.Errorf("vanished speedup not flagged: %v", regs)
	}

	// A baseline that predates the fast path arms nothing, whatever the
	// current collection contains.
	old := &Baseline{Packets: 100, Points: map[string]float64{KeyScalingToyQ1Mpps: 0.4}}
	if regs := Compare(old, &Baseline{Packets: 100, Points: map[string]float64{}}, 5); len(regs) != 0 {
		t.Errorf("pre-fastpath baseline armed gates: %v", regs)
	}
}

// TestRegressedFloor pins the shared floor rule: a drop within
// tolerance passes, a drop past it fails, improvements never fail, and
// a non-positive tolerance selects the default 5%.
func TestRegressedFloor(t *testing.T) {
	if Regressed(100, 96, 5) {
		t.Error("4% drop flagged at 5% tolerance")
	}
	if !Regressed(100, 94, 5) {
		t.Error("6% drop not flagged at 5% tolerance")
	}
	if Regressed(100, 150, 5) {
		t.Error("improvement flagged as regression")
	}
	if !Regressed(100, 90, 0) {
		t.Error("default tolerance not applied for tolerancePct=0")
	}
	if Regressed(0, 0, 5) {
		t.Error("zero baseline regressed against zero current")
	}
}

// TestSaveLoadRoundTrip: the header and every point of a collection
// survive Save and Load bit-exactly. Compare runs on a synthetic
// baseline: a live one would re-gate host rates, and the fast-path
// floor does not hold when the race detector slows the two engines
// unequally.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	roundTrip := func(b *Baseline) *Baseline {
		t.Helper()
		path := filepath.Join(dir, "baseline.json")
		if err := Save(path, b); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	b := collect(t)
	got := roundTrip(b)
	if got.Schema != b.Schema || got.Packets != b.Packets || got.NumCPU != b.NumCPU {
		t.Errorf("header mangled: %+v vs %+v", got, b)
	}
	if len(got.Points) != len(b.Points) {
		t.Fatalf("%d points survived of %d", len(got.Points), len(b.Points))
	}
	for k, v := range b.Points {
		if got.Points[k] != v {
			t.Errorf("%s: %v -> %v through JSON", k, v, got.Points[k])
		}
	}

	synth := &Baseline{Schema: 1, Packets: 100, NumCPU: 2, Points: map[string]float64{
		"fig9a/toy/mpps":     148.1,
		KeyScalingToyQ1Mpps:  0.4,
		KeyFastpathToyMpps:   6,
		KeyFastpathSpeedup4Q: 4.5,
	}}
	if regs := Compare(synth, roundTrip(synth), 5); len(regs) != 0 {
		t.Errorf("round-tripped baseline regressed against itself: %v", regs)
	}

	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("loading a missing baseline succeeded")
	}
}

// TestFigurePointsMatchCommittedBaseline pins the baseline to the
// experiments: at DefaultPackets the experiment points reproduce every
// simulated point of the committed BENCH_baseline.json bit for bit,
// with the same key set. bench-check holds only the "/mpps" points to
// a tolerance, so this is the test that notices a latency, loss or
// utilisation point drifting.
func TestFigurePointsMatchCommittedBaseline(t *testing.T) {
	base, err := Load(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Packets != DefaultPackets {
		t.Fatalf("committed baseline measured %d packets/point, DefaultPackets is %d", base.Packets, DefaultPackets)
	}
	got, err := figurePoints(DefaultPackets)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range base.Points {
		if strings.HasPrefix(k, "host/") {
			continue
		}
		v, ok := got[k]
		switch {
		case !ok:
			t.Errorf("%s: committed point not produced", k)
		case math.Float64bits(v) != math.Float64bits(want):
			t.Errorf("%s: %v, committed %v", k, v, want)
		}
	}
	for k := range got {
		if _, ok := base.Points[k]; !ok && !strings.HasPrefix(k, "host/") {
			t.Errorf("%s: produced but not in the committed baseline", k)
		}
	}
}

// TestBaselineSaveByteStable: the committed baseline file is diffed in
// review and hashed by the fleet config fingerprint path, so Save must
// emit byte-identical files for equal baselines — map keys sorted, one
// trailing newline.
func TestBaselineSaveByteStable(t *testing.T) {
	b := &Baseline{
		Schema: 1, Packets: 100, NumCPU: 8,
		Points: map[string]float64{
			"firewall/mpps": 2.5, "router/mpps": 1.25,
			"host/firewall/mpps": 30, "bridge/mpps": 3.75,
		},
	}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := Save(p1, b); err != nil {
		t.Fatal(err)
	}
	if err := Save(p2, b); err != nil {
		t.Fatal(err)
	}
	d1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Fatalf("two saves of one baseline differ:\n%s\n%s", d1, d2)
	}
	if !strings.Contains(string(d1), "\"bridge/mpps\"") {
		t.Fatal("points missing from saved baseline")
	}
	// Sorted keys: bridge < firewall < host < router in the output.
	if !(strings.Index(string(d1), "bridge/") < strings.Index(string(d1), "firewall/") &&
		strings.Index(string(d1), "firewall/") < strings.Index(string(d1), "host/")) {
		t.Error("saved point keys not sorted")
	}
	if d1[len(d1)-1] != '\n' {
		t.Error("saved baseline missing trailing newline")
	}
}
