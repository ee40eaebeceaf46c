// Package ehdl's benchmark suite regenerates every table and figure of
// the paper's evaluation as a testing.B benchmark: BenchmarkExperiments
// runs each experiment of internal/experiments and reports its points
// (simulated Mpps, latency, FPGA resources, ...) as custom metrics, with
// ns/op the host cost of one regeneration. The remaining benchmarks time
// the compiler, the backend and the execution engines themselves.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// One experiment:
//
//	go test -bench=BenchmarkExperiments/fig9a -benchtime=10x
package ehdl

import (
	"testing"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/experiments"
	"ehdl/internal/fastpath"
	"ehdl/internal/hdl"
	"ehdl/internal/hwsim"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
	"ehdl/internal/vm"
)

func programFor(b *testing.B, app *apps.App) *ebpf.Program {
	b.Helper()
	prog, err := app.Program()
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func compileFor(b *testing.B, app *apps.App, opts core.Options) *core.Pipeline {
	b.Helper()
	pl, err := core.Compile(programFor(b, app), opts)
	if err != nil {
		b.Fatal(err)
	}
	return pl
}

// benchPackets is the per-measurement-point packet count of the
// benchmarks that serve traffic.
const benchPackets = 2000

// BenchmarkExperiments regenerates every experiment once per b.N
// iteration and reports the last run's points as custom metrics, one
// per point key. The shape assertions live in the experiments tests.
func BenchmarkExperiments(b *testing.B) {
	cfg := experiments.Config{Packets: benchPackets}
	all := experiments.All()
	for _, id := range experiments.IDs() {
		run := all[id]
		b.Run(id, func(b *testing.B) {
			var tab experiments.Table
			for i := 0; i < b.N; i++ {
				var err error
				if tab, err = run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			for k, v := range tab.Points {
				b.ReportMetric(v, k)
			}
		})
	}
}

// BenchmarkSingleFlowDegradation is the atomic-map-primitive ablation
// (Section 5.3): the toy program's global counter, hit by every packet,
// served by atomics versus lowered to flushes (core.Options.DisableAtomics).
func BenchmarkSingleFlowDegradation(b *testing.B) {
	packets := make([][]byte, 0, 2000)
	for i := 0; i < 2000; i++ {
		packets = append(packets, pktgen.Build(pktgen.PacketSpec{TotalLen: 64}))
	}
	run := func(b *testing.B, opts core.Options) hwsim.Stats {
		sim, err := hwsim.New(compileFor(b, apps.Toy(), opts), hwsim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range packets {
			for !sim.InputFree() {
				if err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
			sim.Inject(p)
			if err := sim.Step(); err != nil {
				b.Fatal(err)
			}
		}
		if err := sim.RunToCompletion(1 << 24); err != nil {
			b.Fatal(err)
		}
		return sim.Stats()
	}
	var atomicMpps, flushMpps float64
	for i := 0; i < b.N; i++ {
		atomicMpps = run(b, core.Options{}).Mpps(250e6)
		flushMpps = run(b, core.Options{DisableAtomics: true}).Mpps(250e6)
	}
	b.ReportMetric(atomicMpps, "atomic-Mpps")
	b.ReportMetric(flushMpps, "flush-lowered-Mpps")
	if flushMpps >= atomicMpps {
		b.Error("lowering atomics to flushes did not degrade single-key throughput")
	}
}

// BenchmarkCompile measures the compiler itself — the paper notes eHDL
// generates designs "in few seconds".
func BenchmarkCompile(b *testing.B) {
	for _, app := range apps.All() {
		prog := programFor(b, app)
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(prog, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVHDLGeneration measures the backend.
func BenchmarkVHDLGeneration(b *testing.B) {
	pl := compileFor(b, apps.Tunnel(), core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hdl.Generate(pl)
	}
}

// BenchmarkSimulatorCycleRate measures the cycle-accurate simulator's
// host-side speed (cycles of simulated hardware per wall second).
func BenchmarkSimulatorCycleRate(b *testing.B) {
	app := apps.Firewall()
	sh, err := nic.New(compileFor(b, app, core.Options{}), nic.ShellConfig{})
	if err != nil {
		b.Fatal(err)
	}
	if err := app.Setup(sh.Maps()); err != nil {
		b.Fatal(err)
	}
	gen := pktgen.NewGenerator(app.Traffic)
	var rep nic.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err = sh.RunLoad(gen.Next, benchPackets, 148.8e6); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.Cycles), "sim-cycles")
}

// BenchmarkVMInterpreter measures the golden-model interpreter. Every
// iteration mutates the firewall's connection map, so the measured
// state is restored to the post-setup snapshot periodically — a long
// -benchtime run must not time an ever-growing map.
func BenchmarkVMInterpreter(b *testing.B) {
	app := apps.Firewall()
	prog := programFor(b, app)
	env, err := vm.NewEnv(prog)
	if err != nil {
		b.Fatal(err)
	}
	if err := app.Setup(env.Maps); err != nil {
		b.Fatal(err)
	}
	m, err := vm.New(prog, env)
	if err != nil {
		b.Fatal(err)
	}
	gen := pktgen.NewGenerator(app.Traffic)
	pkt := gen.Next()
	clean := env.Maps.Snapshot()
	const resetEvery = 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%resetEvery == 0 {
			b.StopTimer()
			if err := env.Maps.Restore(clean); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := m.Run(vm.NewPacket(pkt)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastPath is BenchmarkVMInterpreter's sibling on the
// compiled engine: the same firewall program and traffic, executed by
// the fused per-stage closure chain in steady state (each Step retires
// one packet and promotes the next, so ns/op is the per-packet cost).
// The ratio of the two ns/op figures is the host speedup the benchreg
// host/fastpath points gate.
func BenchmarkFastPath(b *testing.B) {
	app := apps.Firewall()
	pl := compileFor(b, app, core.Options{})
	m, err := fastpath.New(pl, hwsim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := app.Setup(m.Maps()); err != nil {
		b.Fatal(err)
	}
	gen := pktgen.NewGenerator(app.Traffic)
	pkt := gen.Next()
	// Warm up map and handle-table state so the timed loop is the
	// allocation-free happy path the zero-alloc test guards.
	m.Inject(pkt)
	if err := m.RunToCompletion(1 << 16); err != nil {
		b.Fatal(err)
	}
	clean := m.Maps().Snapshot()
	const resetEvery = 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%resetEvery == 0 {
			b.StopTimer()
			if err := m.Maps().Restore(clean); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		m.Inject(pkt)
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := m.RunToCompletion(1 << 16); err != nil {
		b.Fatal(err)
	}
}
