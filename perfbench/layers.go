package main

import (
	"fmt"
	"runtime/metrics"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/fastpath"
	"ehdl/internal/hwsim"
	"ehdl/internal/rss"
)

// Engine kinds a packet can be driven through without the NIC shell.
const (
	kindRSS   = "rss"
	kindHwsim = "hwsim"
	kindFast  = "fastpath"
)

// servedKind is the engine the workload's shells serve with.
func servedKind(w workload) string {
	switch {
	case w.queues > 1:
		return kindRSS
	case w.fastPath:
		return kindFast
	default:
		return kindHwsim
	}
}

// driveCore paces packets into an engine exactly as RunLoad does (one
// arrival every clockHz/pps cycles, several per cycle when faster than
// the clock) and steps it until it drains, with none of the shell's
// accounting. It returns the cycles stepped.
func driveCore(c hwsim.Core, pkts [][]byte, pps float64) (uint64, error) {
	cpp := clockHz / pps
	start := c.Cycle()
	due := 0.0
	sent := 0
	for sent < len(pkts) || c.Busy() {
		for sent < len(pkts) && due <= 0 {
			c.Inject(pkts[sent])
			sent++
			due += cpp
		}
		if err := c.Step(); err != nil {
			return 0, err
		}
		due--
	}
	return c.Cycle() - start, nil
}

// layerRun accumulates what the timed direct engine drives measured,
// keyed like the spans they recorded.
type layerRun struct {
	pkts   map[string]int // packets per span name
	drains int            // timed rss.Drain calls
	cycles uint64         // cycles of the timed hwsim drives
	// fast-path heap allocations and the packets they were counted over.
	fastMallocs uint64
	fastPkts    int
	// twinFirst records, per traced serving round (request id), whether
	// the twins ran before the shells; orderPkts counts each order's
	// packets.
	twinFirst map[int64]bool
	orderPkts map[bool]int
}

func newLayerRun() *layerRun {
	return &layerRun{pkts: map[string]int{}, twinFirst: map[int64]bool{}, orderPkts: map[bool]int{}}
}

// counts are the engines' own counters, taken from each engine's
// warm-up pass over the pool prefix so that they depend on the seed
// alone, never on how many rounds the host managed to serve.
type counts struct {
	steered                                      []uint64 // per RSS queue
	conflicts, fallbacks                         uint64
	completed, flushes, flushedPkts, stallCycles uint64 // interpreter
}

// bare is one engine driven straight through its public entry points:
// a fastpath.Machine or hwsim.Sim through Inject/Step, or a 2-queue
// rss.Engine through Start/Offer/Drain.
type bare struct {
	kind   string
	span   string // span name of a single-queue drive
	core   hwsim.Core
	eng    *rss.Engine
	hasher *rss.Hasher
	pps    float64
}

// newBare builds an engine of the given kind for app with the app's
// host setup applied. The RSS engine's replicas use the fast path when
// fast is set.
func newBare(kind string, app *apps.App, pl *core.Pipeline, pps float64, fast bool) (*bare, error) {
	b := &bare{kind: kind, pps: pps}
	var err error
	switch kind {
	case kindRSS:
		if b.eng, err = rss.NewEngine(pl, rss.Config{Queues: rssQueues, FastPath: fast}); err != nil {
			return nil, err
		}
		if b.hasher, err = rss.NewHasher(nil); err != nil {
			return nil, err
		}
		return b, app.Setup(b.eng.HostMaps())
	case kindHwsim:
		b.span = "hwsim.drive"
		b.core, err = hwsim.New(pl, hwsim.Config{ClockHz: clockHz})
	default:
		b.span = "fastpath.drive:" + app.Name
		b.core, err = fastpath.New(pl, hwsim.Config{ClockHz: clockHz})
	}
	if err != nil {
		return nil, err
	}
	return b, app.Setup(b.core.Maps())
}

// warm drives pkts once, untimed, so the engine's maps hold the working
// set that serving's cyclic replay keeps warm, and adds the engine's
// counters to cnt.
func (b *bare) warm(pkts [][]byte, chunk int, cnt *counts) error {
	for off := 0; off < len(pkts); off += chunk {
		if err := b.run(pkts[off:min(off+chunk, len(pkts))], nil, cnt, nil, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// allocSamples are the runtime's cumulative heap allocation counts,
// small objects and tiny blocks; reading them does not stop the world.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
}

// heapAllocs is the number of heap allocations made so far.
func heapAllocs() uint64 {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64() + allocSamples[1].Value.Uint64()
}

// hashSink keeps the hash loop's result live.
var hashSink uint32

// run drives one chunk of packets as child spans of root. A timed run
// (lr non-nil) adds its work to lr; cnt, when non-nil, receives the
// engine's counters.
func (b *bare) run(pkts [][]byte, lr *layerRun, cnt *counts, rec *recorder, root int, req int64) error {
	if b.eng != nil {
		return b.runRSS(pkts, lr, cnt, rec, root, req)
	}
	before := b.core.Stats()
	allocs0 := heapAllocs()
	id := rec.begin(b.span, root, req)
	cycles, err := driveCore(b.core, pkts, b.pps)
	rec.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", b.span, err)
	}
	allocs := heapAllocs() - allocs0
	if lr != nil {
		lr.pkts[b.span] += len(pkts)
		if b.kind == kindFast {
			lr.fastMallocs += allocs
			lr.fastPkts += len(pkts)
		} else {
			lr.cycles += cycles
		}
	}
	if cnt != nil && b.kind == kindHwsim {
		st := b.core.Stats().Delta(before)
		cnt.completed += st.Completed
		cnt.flushes += st.Flushes
		cnt.flushedPkts += st.FlushedPackets
		cnt.stallCycles += st.StallCycles
	}
	return nil
}

// runRSS is one engine session: the hash alone, then Start, an Offer
// per frame (hash, batching and hand-off to the workers) and Drain
// (the tail wait and the merge).
func (b *bare) runRSS(pkts [][]byte, lr *layerRun, cnt *counts, rec *recorder, root int, req int64) error {
	id := rec.begin("rss.HashPacket", root, req)
	var sink uint32
	for _, p := range pkts {
		h, _ := b.hasher.HashPacket(p)
		sink ^= h
	}
	rec.end(id)
	hashSink = sink
	if err := b.eng.Start(clockHz/b.pps, nil); err != nil {
		return err
	}
	id = rec.begin("rss.Offer", root, req)
	for _, p := range pkts {
		b.eng.Offer(p)
	}
	rec.end(id)
	id = rec.begin("rss.Drain", root, req)
	rs, err := b.eng.Drain()
	rec.end(id)
	if err != nil {
		return fmt.Errorf("rss: %w", err)
	}
	if lr != nil {
		lr.pkts["rss.HashPacket"] += len(pkts)
		lr.pkts["rss.Offer"] += len(pkts)
		lr.drains++
	}
	if cnt != nil {
		cnt.conflicts += rs.MergeConflicts
		cnt.fallbacks += rs.FallbackSteers
		for q, qs := range rs.PerQueue {
			for len(cnt.steered) <= q {
				cnt.steered = append(cnt.steered, 0)
			}
			cnt.steered[q] += qs.Steered
		}
	}
	return nil
}

// twins builds, per served app, a bare engine of the kind the shell
// serves with, warmed on the pool. Traced serving feeds each twin the
// chunk its shell serves, so the shell and the bare engine are timed on
// identical packets.
func twins(w workload, ss []*served, cnt *counts) ([]*bare, error) {
	out := make([]*bare, len(ss))
	for i, s := range ss {
		b, err := newBare(servedKind(w), s.app, s.pl, s.pps, w.fastPath)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.app.Name, err)
		}
		if err := b.warm(s.pkts[:min(w.layerPkts, len(s.pkts))], w.chunk, cnt); err != nil {
			return nil, fmt.Errorf("%s: %w", s.app.Name, err)
		}
		out[i] = b
	}
	return out, nil
}

// driveLayers measures the engines the workload does not serve with on
// the workload's own frames: the 2-queue RSS engine and the interpreter
// for every served app, and the fast path for every one of the eight
// apps (each app's own frames where the workload serves all eight).
// Each engine is warmed (counting into cnt), then driven over the same
// pool prefix in chunks under one root "layers" span.
func driveLayers(w workload, ss []*served, lr *layerRun, cnt *counts, rec *recorder, req *int64) error {
	type job struct {
		kind string
		app  *apps.App
		s    *served
	}
	var jobs []job
	for _, kind := range []string{kindRSS, kindHwsim} {
		if kind == servedKind(w) {
			continue
		}
		for _, s := range ss {
			jobs = append(jobs, job{kind, s.app, s})
		}
	}
	if servedKind(w) != kindFast {
		for _, app := range eightApps() {
			jobs = append(jobs, job{kindFast, app, ss[0]})
		}
	}
	for _, j := range jobs {
		pl := j.s.pl
		if j.app.Name != j.s.app.Name {
			prog, err := j.app.Program()
			if err != nil {
				return err
			}
			if pl, err = core.Compile(prog, core.Options{}); err != nil {
				return err
			}
		}
		b, err := newBare(j.kind, j.app, pl, j.s.pps, w.fastPath)
		if err != nil {
			return fmt.Errorf("%s %s: %w", j.kind, j.app.Name, err)
		}
		pkts := j.s.pkts[:min(w.layerPkts, len(j.s.pkts))]
		if err := b.warm(pkts, w.chunk, cnt); err != nil {
			return fmt.Errorf("%s %s: %w", j.kind, j.app.Name, err)
		}
		*req++
		root := rec.begin("layers", 0, *req)
		for off := 0; off < len(pkts); off += w.chunk {
			if err := b.run(pkts[off:min(off+w.chunk, len(pkts))], lr, nil, rec, root, *req); err != nil {
				rec.end(root)
				return fmt.Errorf("%s %s: %w", j.kind, j.app.Name, err)
			}
		}
		rec.end(root)
	}
	return nil
}
