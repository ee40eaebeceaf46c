package main

import (
	"fmt"
	"time"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
)

// linkBitsPerSec is the port speed the shells default to (100 Gb/s).
const linkBitsPerSec = 100e9

// clockHz is the shell clock the shells default to (250 MHz).
const clockHz = 250e6

// rssQueues is the queue count of every RSS engine the benchmark runs:
// one worker goroutine per queue, no more than the CPUs it was sized on.
const rssQueues = 2

// workload is one named traffic mix and serving configuration.
type workload struct {
	name string
	// apps are served in turn, one RunLoad chunk each per round.
	apps func() []*apps.App
	// queues > 1 serves through the RSS engine.
	queues int
	// fastPath selects the compiled engine; off is the interpreter.
	fastPath bool
	// caida replays the synthetic CAIDA profile instead of each app's
	// own generator configuration.
	caida bool
	// pool is the number of packets pre-generated per app; serving
	// replays the pool cyclically.
	pool int
	// chunk is the packet count of one RunLoad call.
	chunk int
	// correctPrefix is how many pool packets per app the untimed
	// three-way differential pass replays.
	correctPrefix int
	// layerPkts is how many pool packets per app each direct layer drive
	// of the traced run replays.
	layerPkts int
}

// eightApps is every application in the repository, read-only
// forwarders beside apps that write maps on every packet.
func eightApps() []*apps.App {
	return []*apps.App{
		apps.Firewall(), apps.Router(), apps.Tunnel(), apps.DNAT(),
		apps.Suricata(), apps.Toy(), apps.LeakyBucket(), apps.LoadBalancer(),
	}
}

var workloads = []workload{
	{
		name: "fast-64", apps: eightApps, queues: 1, fastPath: true,
		pool: 8192, chunk: 1024, correctPrefix: 1024, layerPkts: 4096,
	},
	{
		name:   "rss-caida",
		apps:   func() []*apps.App { return []*apps.App{apps.Firewall()} },
		queues: rssQueues, fastPath: true, caida: true,
		pool: 32768, chunk: 8192, correctPrefix: 4096, layerPkts: 16384,
	},
	{
		name:   "interp-caida",
		apps:   func() []*apps.App { return []*apps.App{apps.LeakyBucket()} },
		queues: 1, fastPath: false, caida: true,
		pool: 32768, chunk: 512, correctPrefix: 4096, layerPkts: 4096,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// served is one application instantiated on a NIC shell with its
// pre-generated traffic.
type served struct {
	app  *apps.App
	prog *ebpf.Program
	pl   *core.Pipeline
	sh   *nic.Shell
	pkts [][]byte
	pps  float64 // offered rate, packets per simulated second
	cur  int
}

// next replays the pool cyclically; RunLoad pulls packets through it.
func (s *served) next() []byte {
	p := s.pkts[s.cur]
	s.cur++
	if s.cur == len(s.pkts) {
		s.cur = 0
	}
	return p
}

// setupStats is what one set-up pass measured.
type setupStats struct {
	total  time.Duration // process CPU time of the whole pass
	gen    time.Duration // wall time of traffic generation alone
	genned int
}

// setup compiles every app of the workload, builds its shell, applies
// host map setup and pre-generates its traffic from the seed.
func setup(w workload, seed int64) ([]*served, setupStats, error) {
	c0 := processCPU()
	var st setupStats
	var out []*served
	for i, app := range w.apps() {
		prog, err := app.Program()
		if err != nil {
			return nil, st, err
		}
		pl, err := core.Compile(prog, core.Options{})
		if err != nil {
			return nil, st, fmt.Errorf("%s: compile: %w", app.Name, err)
		}
		sh, err := nic.New(pl, nic.ShellConfig{Queues: w.queues, FastPath: w.fastPath})
		if err != nil {
			return nil, st, fmt.Errorf("%s: nic: %w", app.Name, err)
		}
		if sh.FastPath() != w.fastPath {
			return nil, st, fmt.Errorf("%s: shell serves fast path=%v, workload wants %v", app.Name, sh.FastPath(), w.fastPath)
		}
		if err := app.Setup(sh.Maps()); err != nil {
			return nil, st, fmt.Errorf("%s: host setup: %w", app.Name, err)
		}
		g0 := time.Now()
		pkts, frameLen := traffic(w, app, i, seed)
		st.gen += time.Since(g0)
		st.genned += len(pkts)
		out = append(out, &served{
			app: app, prog: prog, pl: pl, sh: sh, pkts: pkts,
			pps: pktgen.LineRatePPS(linkBitsPerSec, frameLen),
		})
	}
	st.total = processCPU() - c0
	return out, st, nil
}

// traffic generates the pool for app number i and returns the frame
// length its line rate is computed for.
func traffic(w workload, app *apps.App, i int, seed int64) ([][]byte, int) {
	if w.caida {
		p := pktgen.CAIDAProfile()
		p.Seed = seed
		return pktgen.NewTrace(p).Batch(w.pool), p.MeanPacketLen
	}
	cfg := app.Traffic
	cfg.Seed = seed*16 + int64(i)
	return pktgen.NewGenerator(cfg).Batch(w.pool), cfg.PacketLen
}
