package main

import (
	"fmt"
	"time"

	"ehdl/internal/conformance"
	"ehdl/internal/vm"
)

// correctness replays a prefix of every app's own pool through the
// reference interpreter, the cycle-accurate simulator and the compiled
// fast path, which must agree on every verdict, packet byte and final
// map entry. It returns one message per diverging app.
func correctness(w workload, ss []*served) []string {
	var out []string
	for _, s := range ss {
		prefix := s.pkts[:min(w.correctPrefix, len(s.pkts))]
		if err := conformance.DiffAppThreeWay(s.app, prefix, conformance.Config{}); err != nil {
			out = append(out, fmt.Sprintf("%s: %v", s.app.Name, err))
		}
	}
	return out
}

// vmNsPerPkt times the reference interpreter on the same prefixes the
// differential pass replays, with the clock pinned to zero as there.
// Each app's replay is one "vm.Run" span.
func vmNsPerPkt(w workload, ss []*served, rec *recorder, req *int64) (float64, error) {
	var total time.Duration
	var pkts int
	for _, s := range ss {
		env, err := vm.NewEnv(s.prog)
		if err != nil {
			return 0, err
		}
		env.Now = func() uint64 { return 0 }
		if err := s.app.Setup(env.Maps); err != nil {
			return 0, err
		}
		m, err := vm.New(s.prog, env)
		if err != nil {
			return 0, err
		}
		prefix := s.pkts[:min(w.correctPrefix, len(s.pkts))]
		*req++
		id := rec.begin("vm.Run", 0, *req)
		t0 := time.Now()
		for i, data := range prefix {
			if _, err := m.Run(vm.NewPacket(data)); err != nil {
				rec.end(id)
				return 0, fmt.Errorf("%s: vm packet %d: %w", s.app.Name, i, err)
			}
		}
		total += time.Since(t0)
		rec.end(id)
		pkts += len(prefix)
	}
	return float64(total.Nanoseconds()) / float64(pkts), nil
}
