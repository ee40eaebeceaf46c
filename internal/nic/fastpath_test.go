package nic

import (
	"fmt"
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/conformance"
	"ehdl/internal/core"
	"ehdl/internal/hwsim"
	"ehdl/internal/liveupdate"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
	"ehdl/internal/protect"
)

// TestFastPathReportMatchesInterpreter drives every app's seeded
// traffic through an interpreted shell and a compiled one, first
// overloaded and then at a light rate, and demands the externally
// visible ledger — sent, received, lost, per-verdict histogram — and
// the final map state agree exactly. Where the interpreter saw no RAW
// flush the hazard-free skeleton is its exact timing model, so the
// latencies must agree too, run by run: the light run's maximum is its
// own, not the overloaded run's.
func TestFastPathReportMatchesInterpreter(t *testing.T) {
	const count = 2000
	for _, app := range append(apps.All(), apps.Toy(), apps.LeakyBucket(), apps.LoadBalancer()) {
		slow := newShell(t, app, core.Options{}, ShellConfig{})
		fast := newShell(t, app, core.Options{}, ShellConfig{FastPath: true})
		if !fast.FastPath() {
			t.Fatalf("%s: FastPath()=false on an eligible config", app.Name)
		}
		// The skeleton computes verdicts at ingress, so under queueing a
		// time helper would read an earlier clock than the interpreter's
		// stage does; one pinned clock keeps the map bytes comparable.
		slow.PinClock(1e9)
		fast.PinClock(1e9)
		slowGen := pktgen.NewGenerator(app.Traffic)
		fastGen := pktgen.NewGenerator(app.Traffic)
		for _, mpps := range []float64{1000, 10} {
			run := func(sh *Shell, gen *pktgen.Generator) Report {
				rep, err := sh.RunLoad(gen.Next, count, mpps*1e6)
				if err != nil {
					t.Fatalf("%s @%v Mpps: %v", app.Name, mpps, err)
				}
				return rep
			}
			sr, fr := run(slow, slowGen), run(fast, fastGen)
			name := fmt.Sprintf("%s @%v Mpps", app.Name, mpps)
			if sr.Flushes > 0 {
				// Flushes stretch the interpreter's schedule, so under
				// overload its queue drops other packets than the
				// skeleton's: only the offered count is common.
				if sr.Sent != fr.Sent {
					t.Errorf("%s: sent %d (interp) vs %d (fast)", name, sr.Sent, fr.Sent)
				}
				continue
			}
			if sr.Sent != fr.Sent || sr.Received != fr.Received || sr.Lost != fr.Lost {
				t.Errorf("%s: ledger sent/received/lost %d/%d/%d (interp) vs %d/%d/%d (fast)",
					name, sr.Sent, sr.Received, sr.Lost, fr.Sent, fr.Received, fr.Lost)
			}
			if sr.MalformedDropped != fr.MalformedDropped {
				t.Errorf("%s: malformed %d vs %d", name, sr.MalformedDropped, fr.MalformedDropped)
			}
			if len(sr.Actions) != len(fr.Actions) {
				t.Errorf("%s: verdict histogram %v vs %v", name, sr.Actions, fr.Actions)
			}
			for act, n := range sr.Actions {
				if fr.Actions[act] != n {
					t.Errorf("%s: %v count %d (interp) vs %d (fast)", name, act, n, fr.Actions[act])
				}
			}
			if sr.AvgLatencyNs != fr.AvgLatencyNs || sr.MaxLatencyNs != fr.MaxLatencyNs {
				t.Errorf("%s: latency avg/max %.1f/%.1f ns (interp) vs %.1f/%.1f ns (fast)",
					name, sr.AvgLatencyNs, sr.MaxLatencyNs, fr.AvgLatencyNs, fr.MaxLatencyNs)
			}
			if mpps == 10 && sr.MaxLatencyNs != sr.AvgLatencyNs {
				// Nothing queues at the light rate: every packet sees just
				// the pipeline depth, whatever the overloaded run saw.
				t.Errorf("%s: light run latency max %.1f ns, avg %.1f ns", name, sr.MaxLatencyNs, sr.AvgLatencyNs)
			}
			if err := conformance.CompareMaps(slow.Maps(), fast.Maps()); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestFastPathFallbackMatrix: every feature the compiled engine does
// not implement silently keeps the interpreter in charge — FastPath()
// reports the truth and the run still completes. This is the
// executable form of the fallback matrix in DESIGN.md.
func TestFastPathFallbackMatrix(t *testing.T) {
	cases := map[string]hwsim.Config{
		"protection":   {Protection: protect.LevelParity},
		"watchdog":     {WatchdogCycles: 64},
		"stall-policy": {Policy: hwsim.PolicyStall},
		"strict-carry": {StrictCarryCheck: true},
		"metrics":      {Metrics: obs.NewRegistry()},
	}
	app := apps.Toy()
	for name, sim := range cases {
		sh := newShell(t, app, core.Options{}, ShellConfig{FastPath: true, Sim: sim})
		if sh.FastPath() {
			t.Errorf("%s: FastPath()=true on an ineligible config", name)
		}
		gen := pktgen.NewGenerator(app.Traffic)
		rep, err := sh.RunLoad(gen.Next, 300, 50e6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Received == 0 {
			t.Errorf("%s: interpreter fallback processed no packets", name)
		}
	}
}

// TestFastPathLiveUpdateFallsBack: on a single queue the live-update
// machinery runs only in the interpreter, so arming an update demotes
// a compiled shell for the whole run and the cutover retires the
// compiled program permanently (it was specialized against the old
// pipeline). The update itself must still commit hitlessly.
func TestFastPathLiveUpdateFallsBack(t *testing.T) {
	const count = 1200
	app := apps.Toy()
	sh := newShell(t, app, core.Options{}, ShellConfig{FastPath: true})
	if !sh.FastPath() {
		t.Fatal("FastPath()=false before arming the update")
	}
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.ScheduleUpdate(count/2, liveupdate.Config{Prog: prog, Setup: app.SetupHost}); err != nil {
		t.Fatal(err)
	}
	if sh.FastPath() {
		t.Error("FastPath()=true with an update armed")
	}
	gen := pktgen.NewGenerator(app.Traffic)
	rep, err := sh.RunLoad(gen.Next, count, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UpdatesCompleted != 1 {
		t.Fatalf("update completed %d, want 1", rep.UpdatesCompleted)
	}
	if sh.Fast() != nil {
		t.Error("compiled program survived the pipeline swap")
	}
	if rep.Received != rep.Sent {
		t.Errorf("received %d of %d across the update", rep.Received, rep.Sent)
	}
}

// TestFastPathMultiQueue: the FastPath switch reaches the RSS fleet —
// every replica runs compiled — and the multi-queue ledger matches the
// interpreted fleet on the same traffic.
func TestFastPathMultiQueue(t *testing.T) {
	const count = 1600
	app := apps.Toy()
	run := func(fastpath bool) (*Shell, Report) {
		sh := newShell(t, app, core.Options{}, ShellConfig{
			Queues: 4, FastPath: fastpath,
			Sim: hwsim.Config{InputQueuePackets: 64},
		})
		gen := pktgen.NewGenerator(app.Traffic)
		rep, err := sh.RunLoad(gen.Next, count, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		return sh, rep
	}
	fastSh, fr := run(true)
	slowSh, sr := run(false)
	if !fastSh.FastPath() {
		t.Fatal("FastPath()=false on an eligible multi-queue config")
	}
	if slowSh.FastPath() {
		t.Fatal("FastPath()=true without the switch")
	}
	if fr.QueueCount != 4 {
		t.Fatalf("queue count %d, want 4", fr.QueueCount)
	}
	if fr.Sent != sr.Sent || fr.Received != sr.Received || fr.Lost != sr.Lost {
		t.Errorf("ledger sent/received/lost %d/%d/%d (fast) vs %d/%d/%d (interp)",
			fr.Sent, fr.Received, fr.Lost, sr.Sent, sr.Received, sr.Lost)
	}
	for act, n := range sr.Actions {
		if fr.Actions[act] != n {
			t.Errorf("%v count %d (interp) vs %d (fast)", act, n, fr.Actions[act])
		}
	}
	if err := conformance.CompareMaps(slowSh.Maps(), fastSh.Maps()); err != nil {
		t.Error(err)
	}

	// Each run reports its own latency maximum: in a light run after an
	// overloaded one, every toy packet sees just the pipeline depth.
	for _, sh := range []*Shell{fastSh, slowSh} {
		gen := pktgen.NewGenerator(app.Traffic)
		var rep Report
		for _, mpps := range []float64{4000, 10} {
			var err error
			if rep, err = sh.RunLoad(gen.Next, count, mpps*1e6); err != nil {
				t.Fatal(err)
			}
		}
		if rep.MaxLatencyNs != rep.AvgLatencyNs {
			t.Errorf("fast=%v: light run latency max %.1f ns, avg %.1f ns", sh.FastPath(), rep.MaxLatencyNs, rep.AvgLatencyNs)
		}
	}
}
