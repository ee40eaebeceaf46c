//go:build !race

// AllocsPerRun interacts badly with the race detector's instrumented
// allocator, so this file sits outside the -race test gate; the same
// code paths run (with allocation untested) in the regular suite.

package nic

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/pktgen"
)

// TestMultiQueueAllocsPerBatch gates the multi-queue hand-off: on a
// warm 2-queue fast-path shell, doubling a RunLoad's packets must not
// add allocations. A RunLoad pays a fixed cost (worker goroutines,
// channels, the report), so the difference of the two runs isolates
// what grows with traffic — a per-batch allocation would add 128 here.
func TestMultiQueueAllocsPerBatch(t *testing.T) {
	const small, large = 8192, 16384
	app := apps.Firewall()
	sh := newShell(t, app, core.Options{}, ShellConfig{Queues: 2, FastPath: true})
	if !sh.FastPath() {
		t.Fatal("2-queue firewall shell should serve the fast path")
	}
	p := pktgen.CAIDAProfile()
	p.Seed = 1
	pool := pktgen.NewTrace(p).Batch(large)
	cur := 0
	next := func() []byte {
		pkt := pool[cur]
		cur = (cur + 1) % len(pool)
		return pkt
	}
	pps := pktgen.LineRatePPS(100e9, p.MeanPacketLen)
	run := func(count int) {
		if _, err := sh.RunLoad(next, count, pps); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: every flow of the pool inserts its map state once.
	run(2 * large)

	perRun := func(count int) float64 {
		return testing.AllocsPerRun(4, func() { run(count) })
	}
	a, b := perRun(small), perRun(large)
	if b-a > 8 {
		t.Errorf("%.1f allocs per %d-packet RunLoad vs %.1f per %d: %.1f grow with traffic, want <= 8",
			b, large, a, small, b-a)
	}
	t.Logf("allocs per RunLoad: %.1f at %d packets, %.1f at %d", a, small, b, large)
}
