package main

import (
	"fmt"
	"time"

	"ehdl/internal/nic"
)

// ledgerViolations checks the identities every RunLoad report must
// satisfy and returns one message per broken identity.
func ledgerViolations(rep nic.Report) []string {
	var out []string
	if rep.Sent != rep.Received+rep.Lost {
		out = append(out, fmt.Sprintf("Sent %d != Received %d + Lost %d", rep.Sent, rep.Received, rep.Lost))
	}
	var acts uint64
	for _, n := range rep.Actions {
		acts += n
	}
	if acts != rep.Received {
		out = append(out, fmt.Sprintf("sum(Actions) %d != Received %d", acts, rep.Received))
	}
	if rep.MergeConflicts != 0 {
		out = append(out, fmt.Sprintf("MergeConflicts %d", rep.MergeConflicts))
	}
	return out
}

// tally accumulates RunLoad reports.
type tally struct {
	sent, received, lost uint64
	cycles               uint64 // simulated wall cycles (sum over calls)
	stepped              uint64 // cycles stepped, summed over queues
	latWeighted          float64
	latMax               float64
	violations           []string
}

func (t *tally) add(rep nic.Report) {
	t.sent += rep.Sent
	t.received += rep.Received
	t.lost += rep.Lost
	t.cycles += rep.Cycles
	t.latWeighted += rep.AvgLatencyNs * float64(rep.Received)
	t.latMax = max(t.latMax, rep.MaxLatencyNs)
	t.violations = append(t.violations, ledgerViolations(rep)...)
	if len(rep.PerQueue) == 0 {
		t.stepped += rep.Cycles
	}
	for _, q := range rep.PerQueue {
		t.stepped += q.Cycles
	}
}

// simMetrics are the simulated (deterministic per seed) results.
type simMetrics struct {
	mpps, latencyNs, latencyMaxNs, delivery float64
}

func (t *tally) sim() simMetrics {
	var m simMetrics
	if t.cycles > 0 {
		m.mpps = float64(t.received) / (float64(t.cycles) / clockHz) / 1e6
	}
	if t.received > 0 {
		m.latencyNs = t.latWeighted / float64(t.received)
	}
	m.latencyMaxNs = t.latMax
	if t.sent > 0 {
		m.delivery = float64(t.received) / float64(t.sent)
	}
	return m
}

// simPass replays every app's whole pool once, in order, from the
// pool's start. Its reports depend only on the seed, so its tally gives
// the sim_* metrics; it also warms the shells before timing.
func simPass(w workload, ss []*served) (*tally, error) {
	t := &tally{}
	for _, s := range ss {
		s.cur = 0
		for off := 0; off < len(s.pkts); off += w.chunk {
			rep, err := s.sh.RunLoad(s.next, min(w.chunk, len(s.pkts)-off), s.pps)
			if err != nil {
				return nil, fmt.Errorf("%s: sim pass: %w", s.app.Name, err)
			}
			t.add(rep)
		}
	}
	return t, nil
}

// serveResult is one timed serving phase.
type serveResult struct {
	packets uint64
	// hostNs and cpuNs hold one sample per RunLoad chunk, divided by the
	// chunk's packets: its host time (see wallClocked) and the process
	// CPU time over it. Where one goroutine does the work they are the
	// same samples.
	hostNs, cpuNs []float64
	// roundNs holds one sample per round (one RunLoad chunk of every
	// app): the host time spent inside RunLoad, divided by the round's
	// packets.
	roundNs []float64
	tally   tally
}

// mpps is the packet rate of the median round in host time. The
// median, rather than the phase total, keeps a round the host stole
// wall time from, or a long collection, out of the figure; the
// collector's steady cost stays in every round.
func (r serveResult) mpps() float64 { return 1e3 / median(r.roundNs) }

// wallClocked reports whether a workload's host time is wall time. On
// the RSS engine the calling goroutine hands packets to worker
// goroutines and waits for them, and that wait, which uses no CPU, is
// what a better hand-off or queue overlap saves. Where one goroutine
// does all the work, host time is process CPU time, which measures the
// same work without the time the host did not run the process at all.
func wallClocked(w workload) bool { return w.queues > 1 }

// serve runs rounds of one RunLoad chunk per app, closed-loop, until
// budget has elapsed. With a recorder every round is a request: a root
// span with one nic.RunLoad child per app. With twins, each app's twin
// engine runs the very chunk its shell serves, adding its spans to the
// round and its work to lr; the twin goes second on even rounds and
// first on odd ones, so neither side always finds the packets warm.
func serve(w workload, ss []*served, budget time.Duration, rec *recorder, req *int64, twins []*bare, lr *layerRun) (serveResult, error) {
	var r serveResult
	wall := wallClocked(w)
	start := time.Now()
	for time.Since(start) < budget {
		*req++
		twinFirst := *req%2 == 1
		var inRunLoad time.Duration
		root := rec.begin("serve.round", 0, *req)
		for i, s := range ss {
			// Pools are whole multiples of the chunk, so a chunk never
			// wraps.
			chunk := s.pkts[s.cur : s.cur+w.chunk]
			if twins != nil && twinFirst {
				if err := twins[i].run(chunk, lr, nil, rec, root, *req); err != nil {
					return r, fmt.Errorf("%s: twin: %w", s.app.Name, err)
				}
			}
			c0 := processCPU()
			id := rec.begin("nic.RunLoad", root, *req)
			t0 := time.Now()
			rep, err := s.sh.RunLoad(s.next, w.chunk, s.pps)
			host := time.Since(t0)
			rec.end(id)
			cpu := processCPU() - c0
			if err != nil {
				return r, fmt.Errorf("%s: RunLoad: %w", s.app.Name, err)
			}
			if !wall {
				host = cpu
			}
			inRunLoad += host
			r.hostNs = append(r.hostNs, float64(host.Nanoseconds())/float64(w.chunk))
			r.cpuNs = append(r.cpuNs, float64(cpu.Nanoseconds())/float64(w.chunk))
			r.tally.add(rep)
			if twins != nil && !twinFirst {
				if err := twins[i].run(chunk, lr, nil, rec, root, *req); err != nil {
					return r, fmt.Errorf("%s: twin: %w", s.app.Name, err)
				}
			}
		}
		rec.end(root)
		roundPkts := w.chunk * len(ss)
		r.roundNs = append(r.roundNs, float64(inRunLoad.Nanoseconds())/float64(roundPkts))
		r.packets += uint64(roundPkts)
		if twins != nil {
			lr.twinFirst[*req] = twinFirst
			lr.orderPkts[twinFirst] += roundPkts
		}
	}
	return r, nil
}
