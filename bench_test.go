// Package ehdl's benchmark suite regenerates every table and figure of
// the paper's evaluation as a testing.B benchmark. Custom metrics carry
// the simulated quantities (Mpps, ns latency, FPGA resources); ns/op is
// the host-side simulation cost.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// One experiment:
//
//	go test -bench=BenchmarkFig9aThroughput -benchtime=10000x
package ehdl

import (
	"strconv"
	"testing"

	"ehdl/internal/analytic"
	"ehdl/internal/apps"
	"ehdl/internal/baseline/bluefield"
	"ehdl/internal/baseline/hxdp"
	"ehdl/internal/baseline/sdnet"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
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

func shellFor(b *testing.B, app *apps.App, opts core.Options, cfg nic.ShellConfig) *nic.Shell {
	b.Helper()
	sh, err := nic.New(compileFor(b, app, opts), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := app.Setup(sh.Maps()); err != nil {
		b.Fatal(err)
	}
	return sh
}

// benchPackets is the size of the one RunLoad (or baseline run) each
// b.N iteration serves, so ns/op is the host cost of that many packets.
const benchPackets = 2000

// serveBench runs one fixed-size RunLoad per b.N iteration and returns
// the last run's report for the simulated-time metrics.
func serveBench(b *testing.B, sh *nic.Shell, next func() []byte, offeredPps float64) nic.Report {
	b.Helper()
	var rep nic.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if rep, err = sh.RunLoad(next, benchPackets, offeredPps); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return rep
}

// BenchmarkFig9aThroughput regenerates Figure 9a: line-rate forwarding
// for every application, with the processor baselines for comparison.
func BenchmarkFig9aThroughput(b *testing.B) {
	for _, app := range apps.All() {
		b.Run(app.Name+"/eHDL", func(b *testing.B) {
			sh := shellFor(b, app, core.Options{}, nic.ShellConfig{})
			gen := pktgen.NewGenerator(app.Traffic)
			rep := serveBench(b, sh, gen.Next, sh.LineRateMpps(64)*1e6)
			b.ReportMetric(rep.AchievedMpps, "Mpps")
			b.ReportMetric(float64(rep.Lost), "lost")
			if rep.Lost > 0 {
				b.Errorf("%s lost %d packets at line rate", app.Name, rep.Lost)
			}
		})
		b.Run(app.Name+"/hXDP", func(b *testing.B) {
			gen := pktgen.NewGenerator(app.Traffic)
			prog := programFor(b, app)
			var mpps float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := hxdp.New().RunApp(prog, app.SetupHost, gen, benchPackets)
				if err != nil {
					b.Fatal(err)
				}
				mpps = rep.Mpps
			}
			b.ReportMetric(mpps, "Mpps")
		})
		b.Run(app.Name+"/Bf2-4c", func(b *testing.B) {
			gen := pktgen.NewGenerator(app.Traffic)
			prog := programFor(b, app)
			var mpps float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := bluefield.New(4).RunApp(prog, app.SetupHost, gen, benchPackets)
				if err != nil {
					b.Fatal(err)
				}
				mpps = rep.Mpps
			}
			b.ReportMetric(mpps, "Mpps")
		})
	}
}

// BenchmarkFig9bLatency regenerates Figure 9b: per-application
// forwarding latency.
func BenchmarkFig9bLatency(b *testing.B) {
	for _, app := range apps.All() {
		b.Run(app.Name, func(b *testing.B) {
			sh := shellFor(b, app, core.Options{}, nic.ShellConfig{})
			gen := pktgen.NewGenerator(app.Traffic)
			rep := serveBench(b, sh, gen.Next, 50e6)
			b.ReportMetric(rep.AvgLatencyNs, "ns-latency")
		})
	}
}

// BenchmarkFig9cStages regenerates Figure 9c: stage and instruction
// counts per application.
func BenchmarkFig9cStages(b *testing.B) {
	for _, app := range apps.All() {
		b.Run(app.Name, func(b *testing.B) {
			var stages, bundles, orig int
			for i := 0; i < b.N; i++ {
				pl := compileFor(b, app, core.Options{})
				bu, err := hxdp.New().StaticBundles(programFor(b, app))
				if err != nil {
					b.Fatal(err)
				}
				stages, bundles, orig = pl.NumStages(), bu, len(pl.Prog.Instructions)
			}
			b.ReportMetric(float64(stages), "stages")
			b.ReportMetric(float64(bundles), "hXDP-instr")
			b.ReportMetric(float64(orig), "orig-instr")
		})
	}
}

// BenchmarkFig10Resources regenerates Figure 10: FPGA utilisation of the
// three systems.
func BenchmarkFig10Resources(b *testing.B) {
	dev := hdl.AlveoU50()
	for _, app := range apps.All() {
		b.Run(app.Name, func(b *testing.B) {
			var eh hdl.Percent
			for i := 0; i < b.N; i++ {
				eh = hdl.EstimateDesign(compileFor(b, app, core.Options{})).PercentOf(dev)
			}
			b.ReportMetric(eh.LUT, "LUT%")
			b.ReportMetric(eh.FF, "FF%")
			b.ReportMetric(eh.BRAM, "BRAM%")
			if !app.P4Expressible {
				return
			}
			d, err := sdnet.Compile(app)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(d.Resources().PercentOf(dev).LUT, "SDNet-LUT%")
		})
	}
}

// BenchmarkTable2Flushing regenerates Table 2: leaky-bucket flush rates
// under the CAIDA and MAWI trace profiles.
func BenchmarkTable2Flushing(b *testing.B) {
	for _, profile := range []pktgen.TraceProfile{pktgen.CAIDAProfile(), pktgen.MAWIProfile()} {
		name := "CAIDA"
		if profile.Seed == pktgen.MAWIProfile().Seed {
			name = "MAWI"
		}
		b.Run(name, func(b *testing.B) {
			sh := shellFor(b, apps.LeakyBucket(), core.Options{}, nic.ShellConfig{})
			trace := pktgen.NewTrace(profile)
			rep := serveBench(b, sh, trace.Next, pktgen.LineRatePPS(100e9, profile.MeanPacketLen))
			b.ReportMetric(rep.FlushesPerS, "flushes/s")
			b.ReportMetric(float64(rep.Lost), "lost")
		})
	}
}

// BenchmarkTable3Analytic regenerates Table 3 from the compiled hazard
// geometry.
func BenchmarkTable3Analytic(b *testing.B) {
	pl := compileFor(b, apps.LeakyBucket(), core.Options{})
	var mb *core.MapBlock
	for i := range pl.Maps {
		if pl.Maps[i].NeedsFlush {
			mb = &pl.Maps[i]
		}
	}
	if mb == nil {
		b.Fatal("leaky bucket has no flush-protected map")
	}
	var tp float64
	for i := 0; i < b.N; i++ {
		pf := analytic.FlushProbZipf(mb.L, 50000)
		tp = analytic.Throughput(250, mb.K+4, pf)
	}
	b.ReportMetric(float64(mb.K), "K")
	b.ReportMetric(float64(mb.L), "L")
	b.ReportMetric(tp, "Tp-Mpps")
}

// BenchmarkTable4Analytic regenerates Table 4.
func BenchmarkTable4Analytic(b *testing.B) {
	var rows []analytic.Table4Row
	for i := 0; i < b.N; i++ {
		rows = analytic.Table4()
	}
	for _, row := range rows {
		b.ReportMetric(row.KMax, "Kmax-L"+strconv.Itoa(row.L))
	}
}

// BenchmarkTable5ILP regenerates Table 5 / Appendix A.3.
func BenchmarkTable5ILP(b *testing.B) {
	for _, app := range apps.All() {
		b.Run(app.Name, func(b *testing.B) {
			var maxILP int
			var avgILP float64
			for i := 0; i < b.N; i++ {
				maxILP, avgILP = compileFor(b, app, core.Options{}).ILP()
			}
			b.ReportMetric(float64(maxILP), "max-ILP")
			b.ReportMetric(avgILP, "avg-ILP")
		})
	}
}

// BenchmarkStatePruning regenerates the Section 5.4 ablation.
func BenchmarkStatePruning(b *testing.B) {
	var dLUT, dFF, dBRAM float64
	for i := 0; i < b.N; i++ {
		pruned := hdl.EstimatePipeline(compileFor(b, apps.Toy(), core.Options{}))
		unpruned := hdl.EstimatePipeline(compileFor(b, apps.Toy(), core.Options{DisablePruning: true}))
		dLUT = 100 * float64(unpruned.LUTs-pruned.LUTs) / float64(pruned.LUTs)
		dFF = 100 * float64(unpruned.FFs-pruned.FFs) / float64(pruned.FFs)
		dBRAM = 100 * float64(unpruned.BRAM36-pruned.BRAM36) / float64(maxInt(pruned.BRAM36, 1))
	}
	b.ReportMetric(dLUT, "dLUT%")
	b.ReportMetric(dFF, "dFF%")
	b.ReportMetric(dBRAM, "dBRAM%")
}

// BenchmarkSingleFlowDegradation regenerates the Section 5.3 in-text
// result: all packets on one map key versus the atomic toy counter.
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

// BenchmarkHazardPolicy compares flush against conservative stalling
// (the Section 4.1.2 design decision).
func BenchmarkHazardPolicy(b *testing.B) {
	for _, policy := range []hwsim.HazardPolicy{hwsim.PolicyFlush, hwsim.PolicyStall} {
		name := "flush"
		if policy == hwsim.PolicyStall {
			name = "stall"
		}
		b.Run(name, func(b *testing.B) {
			app := apps.LeakyBucket()
			traffic := app.Traffic
			traffic.Flows = 100000
			gen := pktgen.NewGenerator(traffic)
			sim, err := hwsim.New(compileFor(b, app, core.Options{}), hwsim.Config{Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range gen.Batch(benchPackets) {
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
			}
			b.StopTimer()
			b.ReportMetric(sim.Stats().Mpps(250e6), "Mpps")
		})
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
	sh := shellFor(b, apps.Firewall(), core.Options{}, nic.ShellConfig{})
	gen := pktgen.NewGenerator(apps.Firewall().Traffic)
	rep := serveBench(b, sh, gen.Next, 148.8e6)
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

// BenchmarkRSSScaling sweeps the multi-queue shell at 85% of the
// replica fleet's aggregate capacity; the Mpps and speedup metrics are
// the simulated-time figures the regression baseline also guards.
func BenchmarkRSSScaling(b *testing.B) {
	var base float64
	for _, queues := range []int{1, 2, 4, 8} {
		b.Run("q"+strconv.Itoa(queues), func(b *testing.B) {
			cfg := nic.ShellConfig{Queues: queues, Sim: hwsim.Config{InputQueuePackets: 64}}
			sh := shellFor(b, apps.Toy(), core.Options{}, cfg)
			gen := pktgen.NewGenerator(apps.Toy().Traffic)
			rep := serveBench(b, sh, gen.Next, 0.85*250e6*float64(queues))
			if rep.Lost > 0 {
				b.Errorf("%d queues lost %d packets at 85%% aggregate load", queues, rep.Lost)
			}
			if queues == 1 {
				base = rep.AchievedMpps
			}
			b.ReportMetric(rep.AchievedMpps, "Mpps")
			if base > 0 {
				b.ReportMetric(rep.AchievedMpps/base, "speedup")
			}
		})
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
