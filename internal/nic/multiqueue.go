package nic

import (
	"context"
	"fmt"

	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/liveupdate"
	"ehdl/internal/obs"
	"ehdl/internal/rss"
)

// multiAgg accumulates per-queue statistics across engine sessions (a
// live-update swap splits one RunLoad into sessions on the old and new
// replica sets).
type multiAgg struct {
	perQueue []rss.QueueStats
	// cycles sums session wall-clocks (the max replica cycle count of
	// each session): sessions are sequential in simulated time even
	// though replicas within one session run concurrently.
	cycles    uint64
	conflicts uint64
	fallbacks uint64
	bytes     uint64
}

func (a *multiAgg) add(rs rss.RunStats) {
	if a.perQueue == nil {
		a.perQueue = make([]rss.QueueStats, len(rs.PerQueue))
	}
	for i, qs := range rs.PerQueue {
		a.perQueue[i].Steered += qs.Steered
		a.perQueue[i].Cycles += qs.Cycles
		a.perQueue[i].Stats = a.perQueue[i].Stats.Add(qs.Stats)
	}
	a.cycles += rs.MaxCycles
	a.conflicts += rs.MergeConflicts
	a.fallbacks += rs.FallbackSteers
	a.bytes += rs.AcceptedBytes
}

// stats sums the per-queue counters of every session.
func (a *multiAgg) stats() hwsim.Stats {
	var s hwsim.Stats
	for _, qs := range a.perQueue {
		s = s.Add(qs.Stats)
	}
	return s
}

// runLoadMulti is RunLoad for the multi-queue shell: the caller's
// goroutine generates and classifies arrivals, and one worker goroutine
// per replica paces and executes them against the shared simulated
// clock. The report comes out of the replica counters and the bytes
// each worker accepted at ingress, so no per-packet completion crosses
// a goroutine. Simulated results are deterministic regardless of host
// scheduling because every packet's entry cycle is stamped by the
// dispatcher before it crosses a channel.
func (sh *Shell) runLoadMulti(next func() []byte, count int, offeredPps float64) (Report, error) {
	ctx, endTask := obs.Task(context.Background(), "nic.RunLoadMulti")
	defer endTask()
	clock := sh.cfg.clockHz()
	cyclesPerPacket := clock / offeredPps

	var (
		rep Report
		agg multiAgg
		in  arrivals
	)
	rep.QueueCount = sh.engine.Queues()

	if sh.inj != nil {
		in.faults = sh.inj.Counters()
		next = sh.inj.WrapTraffic(next)
	}

	if err := sh.engine.Start(cyclesPerPacket, sh.onRetire); err != nil {
		return rep, err
	}

	endRegion := obs.Region(ctx, "drive")
	for in.paced < count {
		// A scheduled live update triggers once enough traffic was
		// offered: quiesce-drain every replica, swap them atomically,
		// and resume — or roll back with the old replicas untouched.
		if sh.pending != nil && in.paced >= sh.pending.after {
			p := sh.pending
			sh.pending = nil
			rep.UpdatesAttempted++
			held, err := sh.swapEngine(&rep, &agg, p.cfg, cyclesPerPacket)
			if err != nil {
				if _, ok := err.(*liveupdate.UpdateError); !ok {
					// Not an update failure: the engine itself broke.
					endRegion()
					sh.settle(&rep, agg.stats())
					return rep, err
				}
			}
			// Arrivals that landed during the cutover drain were held
			// and release first, in order — they are simply the next
			// packets of the generated sequence.
			for i := 0; i < held && in.paced < count; i++ {
				pkt := next()
				in.bytesIn += uint64(len(pkt))
				sh.engine.Offer(pkt)
				in.paced++
				rep.HeldPackets++
			}
			continue
		}
		pkt := next()
		in.bytesIn += uint64(len(pkt))
		sh.engine.Offer(pkt)
		in.paced++
		if sh.inj != nil && in.paced < count && sh.inj.Roll(faults.QueueOverflow) {
			// Ingress overflow burst: a burst of frames lands on the
			// next arrival's cycle on top of the paced load, spread
			// across queues by their flow hashes.
			for i := 0; i < sh.inj.BurstLen(); i++ {
				b := next()
				in.bytesIn += uint64(len(b))
				sh.engine.OfferBurst(b)
				in.extra++
			}
			sh.inj.Note(faults.QueueOverflow)
		}
	}
	endRegion()

	rs, err := sh.engine.Drain()
	agg.add(rs)
	if err != nil {
		sh.settle(&rep, agg.stats())
		return rep, err
	}

	rep.MergeConflicts = agg.conflicts
	rep.SteerFallbacks = agg.fallbacks
	for q, qs := range agg.perQueue {
		qr := QueueReport{
			Queue:    q,
			Steered:  qs.Steered,
			Received: qs.Stats.Completed,
			Lost:     qs.Stats.QueueDrops,
			Flushes:  qs.Stats.Flushes,
			Cycles:   qs.Cycles,
		}
		if qs.Cycles > 0 {
			qr.AchievedMpps = float64(qr.Received) / (float64(qs.Cycles) / clock) / 1e6
		}
		rep.PerQueue = append(rep.PerQueue, qr)
	}
	// Replicas run concurrently in hardware: the run's wall-clock is
	// the slowest session chain, so throughput uses agg.cycles (the
	// session maxima), not the per-queue sum.
	in.bytesOut = agg.bytes
	sh.closeReport(&rep, agg.stats(), agg.cycles, offeredPps, in)
	return rep, nil
}

// swapEngine performs the multi-queue live update: drain every replica
// of the serving engine (the quiesce barrier), gate the new program
// through the schema check, build the new replica set, migrate the
// merged old state into every new bank, and swap — all replicas cut
// over atomically, there is never a mixed fleet. Any failure rolls back
// with the old replicas' state untouched and the old engine resumed.
//
// Returns the number of arrivals that would have landed during the
// cutover drain window; the caller releases them into the serving
// engine first, preserving arrival order.
func (sh *Shell) swapEngine(rep *Report, agg *multiAgg, ucfg liveupdate.Config, cyclesPerPacket float64) (held int, err error) {
	old := sh.engine

	// Quiesce: stop offering, run every replica dry. After Drain the
	// banked maps serve their merged views — the migration source.
	preCycles := agg.cycles
	rs, derr := old.Drain()
	agg.add(rs)
	if derr != nil {
		return 0, derr
	}
	cutover := agg.cycles - preCycles
	rep.CutoverTicks += cutover
	if cyclesPerPacket > 0 {
		held = int(float64(cutover) / cyclesPerPacket)
	}

	rollback := func(stage liveupdate.Stage, cause error) (int, error) {
		ue := &liveupdate.UpdateError{Stage: stage, Err: cause}
		rep.UpdatesRolledBack++
		rep.UpdateStage = liveupdate.StageRolledBack.String()
		rep.UpdateFailure = ue.Error()
		// The old replicas still hold their state; resume serving.
		if serr := old.Start(cyclesPerPacket, sh.onRetire); serr != nil {
			return 0, serr
		}
		sh.engine = old
		return held, ue
	}

	oldProg := old.Pipeline().Prog
	if cerr := liveupdate.CheckPrograms(oldProg, ucfg.Prog); cerr != nil {
		return rollback(liveupdate.StageShadow, cerr)
	}
	newPl, cerr := core.Compile(ucfg.Prog, ucfg.Opts)
	if cerr != nil {
		return rollback(liveupdate.StageShadow, cerr)
	}
	eng, cerr := rss.NewEngine(newPl, rss.Config{
		Queues:   sh.cfg.Queues,
		Batch:    sh.cfg.Batch,
		Sim:      sh.cfg.Sim,
		FastPath: sh.cfg.FastPath,
	})
	if cerr != nil {
		return rollback(liveupdate.StageShadow, cerr)
	}
	if ucfg.Setup != nil {
		if serr := ucfg.Setup(eng.HostMaps()); serr != nil {
			return rollback(liveupdate.StageShadow, serr)
		}
	}

	// Migration: the merged old state broadcasts into every new bank
	// (pre-seal writes fan out), so each replica starts from the same
	// view a single-queue migration would have produced. Live state
	// overwrites colliding setup entries, like the bulk copy of the
	// single-queue controller.
	migrated, merr := sh.migrateMerged(old, eng, ucfg.Prog)
	if merr != nil {
		return rollback(liveupdate.StageMigrate, merr)
	}
	rep.MigratedEntries += migrated
	rep.MigrationTicks += migrated // one entry per tick, the bulk-copy cost model

	if sh.pinned != nil {
		eng.SetClock(sh.pinnedNow)
	}
	if serr := eng.Start(cyclesPerPacket, sh.onRetire); serr != nil {
		return rollback(liveupdate.StageCutover, serr)
	}
	sh.engine = eng
	rep.UpdatesCompleted++
	rep.UpdateStage = liveupdate.StageDone.String()
	return held, nil
}

// migrateMerged copies every name-matched, schema-compatible map from
// the drained old engine's merged view into the new engine's host maps.
func (sh *Shell) migrateMerged(old, new *rss.Engine, newProg *ebpf.Program) (uint64, error) {
	newNames := map[string]bool{}
	for _, spec := range newProg.Maps {
		newNames[spec.Name] = true
	}
	var migrated uint64
	var merr error
	for _, spec := range old.Pipeline().Prog.Maps {
		if !newNames[spec.Name] {
			continue // dropped with its state
		}
		src, ok := old.HostMaps().ByName(spec.Name)
		if !ok {
			continue
		}
		dst, ok := new.HostMaps().ByName(spec.Name)
		if !ok {
			continue
		}
		src.Iterate(func(k, v []byte) bool {
			if err := dst.Update(k, v, 0); err != nil {
				merr = fmt.Errorf("nic: migrate %q: %w", spec.Name, err)
				return false
			}
			migrated++
			return true
		})
		if merr != nil {
			return migrated, merr
		}
	}
	return migrated, nil
}
