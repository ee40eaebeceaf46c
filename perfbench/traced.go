package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// traceSlices is how many untraced/traced serving slices alternate, so
// host drift touches both sides alike.
const traceSlices = 4

// serveShare is the part of the traced run's budget spent serving
// (half of it traced); compileShare goes to the compile loop and the
// direct layer drives take what they take.
const serveShare = 0.5

// runTraced produces the per-layer metrics. Every call into a layer is
// a span; each metric is a self time (span duration minus its children)
// per unit of work, or a count taken at the same boundary.
func runTraced(w workload, seed int64, budget time.Duration, rec *recorder) (result, error) {
	r, err := prepare(w, seed)
	if err != nil {
		return result{}, err
	}
	var req int64
	c, err := compileLoop(programs(r.ss), time.Duration(float64(budget)*compileShare), rec, &req)
	if err != nil {
		return result{}, err
	}
	r.attempted += uint64(len(c.ms))
	runtime.GC()

	var cnt counts
	tw, err := twins(w, r.ss, &cnt)
	if err != nil {
		return result{}, err
	}
	lr := newLayerRun()
	var plain, traced serveResult
	var allocBytes, gcs uint64 // over the untraced slices, which run no twins
	slice := time.Duration(float64(budget) * serveShare / (2 * traceSlices))
	for i := 0; i < traceSlices; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		p, err := serve(w, r.ss, slice, nil, &req, nil, nil)
		if err != nil {
			return result{}, err
		}
		runtime.ReadMemStats(&ms1)
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		t, err := serve(w, r.ss, slice, rec, &req, tw, lr)
		if err != nil {
			return result{}, err
		}
		plain.merge(p)
		traced.merge(t)
	}
	r.account(&plain.tally)
	r.account(&traced.tally)

	if err := driveLayers(w, r.ss, lr, &cnt, rec, &req); err != nil {
		return result{}, err
	}
	if err := r.check(c); err != nil {
		return result{}, err
	}
	vmNs, err := vmNsPerPkt(w, r.ss, rec, &req)
	if err != nil {
		return result{}, err
	}

	self, err := selfTimes(rec.spans)
	if err != nil {
		return result{}, err
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Serving ledger: RunLoad per packet = the engine driven directly on
	// identical packets + the shell loop's own time. Each side is the
	// mean of the rounds where the twin ran second and those where it
	// ran first, so the warmth one side leaves the other cancels out.
	var runLoadNs, engineNs float64
	for _, twinFirst := range []bool{false, true} {
		var round []Span
		for _, sp := range rec.spans {
			if first, ok := lr.twinFirst[sp.Req]; ok && first == twinFirst {
				round = append(round, sp)
			}
		}
		st, err := selfTimes(round)
		if err != nil {
			return result{}, err
		}
		n := float64(lr.orderPkts[twinFirst])
		rl := float64(st["nic.RunLoad"].Nanoseconds()) / n
		eng := float64(engineSelf(w, r.ss, st).Nanoseconds()) / n
		fmt.Fprintf(os.Stderr, "perfbench: ledger, twin first=%v: RunLoad %.1f ns/pkt = engine %.1f + nic loop %.1f\n",
			twinFirst, rl, eng, rl-eng)
		runLoadNs += rl / 2
		engineNs += eng / 2
	}
	put("nic.runload_ns_per_pkt", runLoadNs, "ns")
	put("nic.engine_ns_per_pkt", engineNs, "ns")
	put("nic.loop_ns_per_pkt", runLoadNs-engineNs, "ns")
	put("nic.cycles_per_pkt", float64(r.sim.stepped)/float64(r.sim.sent), "cycles")
	fmt.Fprintf(os.Stderr, "perfbench: ledger: RunLoad %.1f ns/pkt = engine %.1f + nic loop %.1f; bench loop self %.2f ns/pkt\n",
		runLoadNs, engineNs, runLoadNs-engineNs, float64(self["serve.round"].Nanoseconds())/float64(traced.packets))

	hashNs := perPkt(self, lr.pkts, "rss.HashPacket")
	put("rss.hash_ns_per_pkt", hashNs, "ns")
	put("rss.handoff_ns_per_pkt", perPkt(self, lr.pkts, "rss.Offer")-hashNs, "ns")
	put("rss.drain_ms", float64(self["rss.Drain"].Nanoseconds())/1e6/float64(lr.drains), "ms")
	put("rss.queue_skew", skew(cnt.steered), "ratio")
	put("rss.merge_conflicts", float64(cnt.conflicts), "count")
	put("rss.fallback_steers", float64(cnt.fallbacks), "count")

	for _, app := range eightApps() {
		put("fastpath."+app.Name+".ns_per_pkt", perPkt(self, lr.pkts, "fastpath.drive:"+app.Name), "ns")
	}
	put("fastpath.allocs_per_pkt", float64(lr.fastMallocs)/float64(lr.fastPkts), "allocs")

	put("hwsim.ns_per_cycle", float64(self["hwsim.drive"].Nanoseconds())/float64(lr.cycles), "ns")
	put("hwsim.ns_per_pkt", perPkt(self, lr.pkts, "hwsim.drive"), "ns")
	put("hwsim.flushed_pkt_ratio", float64(cnt.flushedPkts)/float64(cnt.completed), "ratio")
	put("hwsim.flushes_per_kpkt", 1000*float64(cnt.flushes)/float64(cnt.completed), "count")
	put("hwsim.stall_cycles", float64(cnt.stallCycles), "cycles")

	put("vm.ns_per_pkt", vmNs, "ns")
	put("maps.entries", float64(mapEntries(r.ss)), "count")

	n := float64(len(c.ms))
	perCompile := func(name string, unit time.Duration) float64 {
		return float64(self[name]) / float64(unit) / n
	}
	put("cfg.build_us", perCompile("cfg.Build", time.Microsecond), "us")
	put("ddg.analyze_us", perCompile("ddg.Analyze", time.Microsecond), "us")
	put("core.compile_ms", perCompile("core.Compile", time.Millisecond), "ms")
	put("fastpath.compile_us", perCompile("fastpath.Compile", time.Microsecond), "us")
	put("hdl.generate_ms", perCompile("hdl.Generate", time.Millisecond), "ms")
	put("hdl.estimate_us", perCompile("hdl.EstimateDesign", time.Microsecond), "us")
	var vhdl, stages, fused, removed, elided int
	for _, name := range c.order {
		d := c.first[name]
		vhdl += d.vhdlBytes
		stages += d.pl.NumStages()
		fused += d.pl.FusedPairs
		removed += d.pl.RemovedInstructions
		elided += d.pl.ElidedBoundsChecks
	}
	put("hdl.vhdl_kb", float64(vhdl)/1024/float64(len(c.order)), "KiB")
	put("core.stages", float64(stages), "count")
	put("core.fused_pairs", float64(fused), "count")
	put("core.removed_insns", float64(removed), "count")
	put("core.elided_checks", float64(elided), "count")

	put("pktgen.ns_per_pkt", float64(r.gen.gen.Nanoseconds())/float64(r.gen.genned), "ns")
	put("go.alloc_bytes_per_pkt", float64(allocBytes)/float64(plain.packets), "B")
	put("go.gc_cycles", float64(gcs), "count")
	put("trace.overhead_mpps", plain.mpps()-traced.mpps(), "Mpps")
	return r.result(m), nil
}

// merge folds another serving slice into r, as far as the operation
// counts and the wall-clock rate need.
func (r *serveResult) merge(o serveResult) {
	r.packets += o.packets
	r.roundNs = append(r.roundNs, o.roundNs...)
	r.tally.sent += o.tally.sent
	r.tally.lost += o.tally.lost
	r.tally.violations = append(r.tally.violations, o.tally.violations...)
}

// engineSelf is the self time of the direct drives of the engine the
// workload serves with: the RSS engine's Offer and Drain, the fast-path
// machines of the served apps, or the interpreter.
func engineSelf(w workload, ss []*served, self map[string]time.Duration) time.Duration {
	switch servedKind(w) {
	case kindRSS:
		return self["rss.Offer"] + self["rss.Drain"]
	case kindFast:
		var t time.Duration
		for _, s := range ss {
			t += self["fastpath.drive:"+s.app.Name]
		}
		return t
	default:
		return self["hwsim.drive"]
	}
}

// skew is the busiest queue's share over the mean share.
func skew(steered []uint64) float64 {
	var sum, top uint64
	for _, n := range steered {
		sum += n
		top = max(top, n)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) / (float64(sum) / float64(len(steered)))
}

// mapEntries counts the live entries over every served app's maps.
func mapEntries(ss []*served) int {
	n := 0
	for _, s := range ss {
		set := s.sh.Maps()
		for id := 0; id < set.Len(); id++ {
			if m, ok := set.ByID(id); ok {
				n += m.Len()
			}
		}
	}
	return n
}

// perPkt is a span name's total self time per packet it processed.
func perPkt(self map[string]time.Duration, pkts map[string]int, name string) float64 {
	if pkts[name] == 0 {
		return 0
	}
	return float64(self[name].Nanoseconds()) / float64(pkts[name])
}
