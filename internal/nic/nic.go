// Package nic wraps a compiled pipeline in a Corundum-style NIC shell
// (Section 4.5): ingress and egress asynchronous FIFOs decouple the
// pipeline from the MACs, and an offered-load driver plays the role of
// the DPDK traffic generator of the paper's testbed, pacing packets at
// a configured rate and measuring what comes back.
package nic

import (
	"context"
	"fmt"

	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/fastpath"
	"ehdl/internal/faults"
	"ehdl/internal/hwsim"
	"ehdl/internal/liveupdate"
	"ehdl/internal/maps"
	"ehdl/internal/obs"
	"ehdl/internal/rss"
	"ehdl/internal/vm"
)

// ShellConfig parameterises the shell.
type ShellConfig struct {
	// ClockHz is the shell and pipeline clock. 0 means 250 MHz.
	ClockHz float64
	// LinkGbps is the port speed. 0 means 100.
	LinkGbps float64
	// FIFOCycles is the combined latency of the MAC, the ingress and
	// egress async FIFOs and the clock-domain crossings, added to every
	// packet's forwarding latency. 0 means 160 (~640 ns at 250 MHz),
	// which lands end-to-end latency near the paper's microsecond.
	FIFOCycles int
	// Faults configures the shell's fault-injection campaign: when any
	// rate is non-zero the shell builds one seeded injector, hands it to
	// the pipeline simulator (SEU flips, flush storms) and uses it itself
	// to damage generated frames and to fire ingress overflow bursts.
	Faults faults.Config
	// Queues selects multi-queue RSS scale-out (Section 5's replicated
	// deployment): values above 1 instantiate that many independent
	// pipeline replicas behind a Toeplitz flow-hash dispatcher, each on
	// its own goroutine with banked per-flow maps. 0 or 1 keeps the
	// classic single-pipeline shell.
	Queues int
	// Batch is the dispatcher/collector batch size in multi-queue mode
	// (amortised channel operations). 0 means rss.DefaultBatch.
	Batch int
	// FastPath requests the compiled host fast path: the design is
	// compiled once into a per-stage closure chain and packets execute
	// allocation-free, with the cycle-accurate interpreter retained as
	// the conformance oracle. RunLoad's one serving loop drives the
	// compiled machine in place of the interpreter; the request falls
	// back to the interpreter silently when the configuration needs it
	// (faults, protection, watchdog, stall policy, tracing, metrics —
	// the matrix in DESIGN.md) and for a single-queue run with a live
	// update scheduled. Shell.FastPath reports what actually serves.
	FastPath bool
	// Hazard policy and other simulator knobs.
	Sim hwsim.Config
}

func (c ShellConfig) clockHz() float64 {
	if c.ClockHz <= 0 {
		return 250e6
	}
	return c.ClockHz
}

func (c ShellConfig) linkGbps() float64 {
	if c.LinkGbps <= 0 {
		return 100
	}
	return c.LinkGbps
}

func (c ShellConfig) fifoCycles() int {
	if c.FIFOCycles <= 0 {
		return 160
	}
	return c.FIFOCycles
}

// pendingUpdate is an armed-but-not-started live update.
type pendingUpdate struct {
	after int
	cfg   liveupdate.Config
}

// Shell is one instantiated NIC.
type Shell struct {
	cfg ShellConfig
	sim *hwsim.Sim
	pl  *core.Pipeline
	inj *faults.Injector

	// fast is the compiled single-queue engine (nil when not requested,
	// ineligible, or retired by a live-update swap). It shares the
	// interpreter's map environment, so host setup and state are common
	// to both engines and a fallback run continues seamlessly.
	fast *fastpath.Machine

	// engine is the multi-queue RSS scale-out (nil when Queues <= 1).
	engine *rss.Engine
	// onRetire, when set, receives every multi-queue completion from
	// the engine's collector goroutine. Serving leaves it nil, so no
	// collector runs; tests set it to keep a per-packet ledger.
	onRetire func(rss.Completion)

	// Master clock state: helper-visible time survives pipeline swaps.
	// cycleBase is the cycle count retired pipelines accumulated before
	// the serving one took over; pinned, when set, freezes time (tests).
	cycleBase uint64
	pinned    *uint64

	pending *pendingUpdate
	ctrl    *liveupdate.Controller
}

// New builds a shell around a compiled pipeline with fresh maps.
func New(pl *core.Pipeline, cfg ShellConfig) (*Shell, error) {
	cfg.Sim.ClockHz = cfg.clockHz()
	var inj *faults.Injector
	if cfg.Faults.Enabled() {
		inj = faults.New(cfg.Faults)
		cfg.Sim.Faults = inj
	} else if cfg.Sim.Faults != nil {
		// A pre-built injector passed through the simulator config is
		// shared, so shell-side classes (malformed traffic, overflow
		// bursts) stay on the same seeded stream.
		inj = cfg.Sim.Faults
	}
	if cfg.Queues > 1 {
		// Multi-queue scale-out: N replicas behind the RSS dispatcher.
		// The engine forks the injector per replica; the shell keeps the
		// base stream for traffic damage and overflow bursts.
		eng, err := rss.NewEngine(pl, rss.Config{
			Queues:   cfg.Queues,
			Batch:    cfg.Batch,
			Sim:      cfg.Sim,
			FastPath: cfg.FastPath,
		})
		if err != nil {
			return nil, err
		}
		if cfg.Sim.Metrics != nil {
			maps.ObserveSet(eng.HostMaps(), cfg.Sim.Metrics)
		}
		return &Shell{cfg: cfg, pl: pl, inj: inj, engine: eng}, nil
	}
	var fast *fastpath.Machine
	var sim *hwsim.Sim
	if ok, _ := fastpath.Eligible(cfg.Sim); cfg.FastPath && ok {
		// Dual engine over one map environment: the compiled machine
		// serves traffic, the interpreter stands by as the oracle and as
		// the live-update fallback. Sharing the environment keeps host
		// setup, map state and the helper clock common to both.
		env, err := vm.NewEnv(pl.Transformed)
		if err != nil {
			return nil, err
		}
		if sim, err = hwsim.NewWithEnv(pl, cfg.Sim, env); err != nil {
			return nil, err
		}
		if fast, err = fastpath.NewWithEnv(pl, cfg.Sim, env); err != nil {
			return nil, err
		}
	} else {
		var err error
		if sim, err = hwsim.New(pl, cfg.Sim); err != nil {
			return nil, err
		}
	}
	if cfg.Sim.Metrics != nil {
		// With metrics armed the shell also counts the host-port map
		// traffic: the wrappers swap into the shared set, so data plane
		// and host side meter the same objects.
		maps.ObserveSet(sim.Maps(), cfg.Sim.Metrics)
	}
	sh := &Shell{cfg: cfg, sim: sim, pl: pl, inj: inj, fast: fast}
	// The shell owns the helper-visible clock so it stays continuous
	// across a live-update pipeline swap. With no swap and no pin the
	// value is identical to the simulator's built-in cycle clock.
	sh.sim.SetClock(sh.nowNs)
	if sh.fast != nil {
		// Same clock function, same environment: whichever engine runs,
		// time helpers see the shell's master clock.
		sh.fast.SetClock(sh.nowNs)
	}
	return sh, nil
}

// nowNs is the shell's master nanosecond clock: the cycles retired
// pipelines accumulated plus the serving pipeline's, scaled by the
// shell clock. Only one engine of a dual-engine shell runs at a time,
// so elapsed time is the sum of both engines' cycle counts. PinClock
// overrides it with a fixed value.
func (sh *Shell) nowNs() uint64 {
	if sh.pinned != nil {
		return *sh.pinned
	}
	cycles := sh.cycleBase + sh.sim.Cycle()
	if sh.fast != nil {
		cycles += sh.fast.Cycle()
	}
	return uint64(float64(cycles) / sh.cfg.clockHz() * 1e9)
}

// Maps exposes the host-side map interface of the NIC. In multi-queue
// mode this is the merged view: writes before traffic broadcast to
// every replica bank, reads after a run serve the deterministic merge.
func (sh *Shell) Maps() *maps.Set {
	if sh.engine != nil {
		return sh.engine.HostMaps()
	}
	return sh.sim.Maps()
}

// Sim exposes the underlying simulator (for clock pinning in tests).
// Nil in multi-queue mode — use Engine to reach the replicas.
func (sh *Shell) Sim() *hwsim.Sim { return sh.sim }

// Fast exposes the compiled single-queue engine (nil when the shell
// serves from the interpreter or runs multi-queue).
func (sh *Shell) Fast() *fastpath.Machine { return sh.fast }

// FastPath reports whether traffic is served by the compiled fast
// path. A requested fast path that fell back to the interpreter — an
// ineligible configuration, or a single-queue live update — reports
// false; on a multi-queue shell it reflects the replicas' mode.
func (sh *Shell) FastPath() bool {
	if sh.engine != nil {
		return sh.engine.FastPath()
	}
	return sh.fast != nil && sh.pending == nil && sh.ctrl == nil
}

// Engine exposes the multi-queue RSS engine (nil with Queues <= 1).
func (sh *Shell) Engine() *rss.Engine { return sh.engine }

// Injector exposes the shell's fault injector (nil without faults).
func (sh *Shell) Injector() *faults.Injector { return sh.inj }

// Report is the traffic-generator view of a run, the measurements of
// Section 5.1.
type Report struct {
	OfferedMpps  float64
	AchievedMpps float64
	OfferedGbps  float64
	AchievedGbps float64
	Sent         uint64
	Received     uint64
	// Lost counts packets dropped by the input queue (back-pressure),
	// not packets the program decided to drop.
	Lost         uint64
	AvgLatencyNs float64
	MaxLatencyNs float64
	Flushes      uint64
	FlushesPerS  float64
	Actions      map[ebpf.XDPAction]uint64
	Cycles       uint64

	// Resilience measurements (all zero without a fault campaign).

	// FaultsInjected counts faults applied inside the pipeline (SEU
	// flips, forced flush storms).
	FaultsInjected uint64
	// MalformedSent counts generated frames replaced by damaged ones.
	MalformedSent uint64
	// MalformedDropped counts verdicts forced by the hardware bounds
	// check on packet accesses past the frame end.
	MalformedDropped uint64
	// QueueOverflows counts ingress overflow episodes (a burst hitting
	// the full queue is one episode, not one count per lost frame).
	QueueOverflows uint64
	// OverflowBursts counts injected ingress bursts.
	OverflowBursts uint64
	// WatchdogTrips counts livelock-watchdog firings.
	WatchdogTrips uint64

	// Protection and recovery measurements (all zero without a
	// protection level configured in Sim.Protection).

	// CorrectedWords counts single-bit map-word upsets corrected in
	// place by the ECC read port or the scrubber.
	CorrectedWords uint64
	// UncorrectableWords counts detected-but-uncorrectable words; each
	// one triggered a drain-and-restart recovery.
	UncorrectableWords uint64
	// ScrubPasses counts completed background-scrubber sweeps.
	ScrubPasses uint64
	// CheckpointsTaken counts known-good map snapshots recorded.
	CheckpointsTaken uint64
	// Recoveries counts drain-and-restart sequences performed.
	Recoveries uint64
	// RecoveryAborted counts in-flight frames drained as XDP_ABORTED by
	// recoveries.
	RecoveryAborted uint64
	// RecoveryBackoffCycles accumulates post-recovery input-hold time.
	RecoveryBackoffCycles uint64

	// Observability figures, read from the metrics registry (all zero
	// unless Sim.Metrics is configured). They are cumulative over the
	// simulator's lifetime, not deltas of this RunLoad.

	// MeanStageOccupancy is the average number of occupied pipeline
	// stages per cycle (hwsim.stage_occupancy).
	MeanStageOccupancy float64
	// P99LatencyCycles is the 99th-percentile forwarding latency in
	// pipeline cycles (hwsim.cycles_per_packet).
	P99LatencyCycles uint64
	// FlushPenaltyMean is the mean cycles from a flush verdict to the
	// stall release (hwsim.flush_penalty_cycles).
	FlushPenaltyMean float64
	// MapPortOps counts data-plane map port operations
	// (hwsim.map_port_ops).
	MapPortOps uint64
	// BackpressureCycles counts cycles the input held while work was
	// queued (hwsim.inject_backpressure_cycles).
	BackpressureCycles uint64

	// Live-update measurements (all zero unless ScheduleUpdate armed an
	// update that began during this RunLoad).

	// UpdatesAttempted, UpdatesCompleted and UpdatesRolledBack count
	// update outcomes in this run (at most one update per run today).
	UpdatesAttempted  uint64
	UpdatesCompleted  uint64
	UpdatesRolledBack uint64
	// UpdateStage is the controller's final stage ("done",
	// "rolled-back"); empty when no update ran.
	UpdateStage string
	// UpdateFailure describes the rollback (empty on success): the
	// failing stage and the typed cause.
	UpdateFailure string
	// MigratedEntries and DeltaReplayed measure the state migration.
	MigratedEntries uint64
	DeltaReplayed   uint64
	// CanariedPackets counts mirrored packets diffed against the
	// reference interpreter; CanaryDivergences counts mismatches.
	CanariedPackets   uint64
	CanaryDivergences uint64
	// HeldPackets counts arrivals buffered during the cutover drain (all
	// of them released, never dropped).
	HeldPackets uint64
	// PostVerifyChecked and PostVerifyDivergences measure the bounded
	// post-cutover conformance window.
	PostVerifyChecked     uint64
	PostVerifyDivergences uint64
	// MigrationTicks and CutoverTicks are stage lengths in shell cycles.
	MigrationTicks uint64
	CutoverTicks   uint64

	// Multi-queue measurements (QueueCount stays 1 and PerQueue nil on
	// the classic single-pipeline shell).

	// QueueCount is the number of pipeline replicas that served the run.
	QueueCount int
	// PerQueue breaks the run down by replica.
	PerQueue []QueueReport
	// SteerFallbacks counts malformed/non-IP frames the dispatcher
	// steered to the queue-0 catch-all.
	SteerFallbacks uint64
	// MergeConflicts counts map keys mutated by more than one replica
	// bank — zero while flow pinning holds (anything else is a
	// dispatcher bug surfaced by the merge).
	MergeConflicts uint64

	// Multi-tenant measurements (all zero off a multi-tenant device).
	// On a tenant device Sent counts every classified arrival plus
	// fault-injected extras, so the ledger identity Accounted() holds:
	// each arrival lands in exactly one of Received, Lost, Throttled,
	// Quarantined or TenantDownLoss.

	// Throttled counts frames shed by per-tenant token-bucket ingress
	// policing (a tenant exceeding its share loses its own frames, not
	// a neighbour's).
	Throttled uint64
	// Quarantined counts unclassifiable frames steered to the device
	// quarantine bucket because no default tenant was configured. They
	// are counted and traced, never dropped silently.
	Quarantined uint64
	// TenantDownLoss counts frames addressed to a tenant whose pipeline
	// died unrecoverably: the unserved remainder at death plus every
	// later arrival for it.
	TenantDownLoss uint64
	// PerTenant breaks the run down by tenant.
	PerTenant []TenantSlice
}

// QueueReport is one replica's slice of a multi-queue run.
type QueueReport struct {
	// Queue is the replica index.
	Queue int
	// Steered counts arrivals the dispatcher classified to the queue.
	Steered uint64
	// Received counts packets the replica retired.
	Received uint64
	// Lost counts ingress-queue drops (back-pressure), as in Report.
	Lost uint64
	// Flushes counts RAW-hazard flush episodes in the replica.
	Flushes uint64
	// Cycles is the replica's simulated cycle count including its drain
	// tail.
	Cycles uint64
	// AchievedMpps is the replica's own throughput over its cycles.
	AchievedMpps float64
}

// LineRateMpps returns the port's packet rate for a frame size.
func (sh *Shell) LineRateMpps(frameLen int) float64 {
	wire := float64(frameLen+20) * 8
	return sh.cfg.linkGbps() * 1e9 / wire / 1e6
}

// RunLoad offers `count` packets from next() at `offeredPps` and runs
// until the pipeline drains. The generator paces arrivals in clock
// cycles like the testbed's DPDK generator paces them on the wire.
func (sh *Shell) RunLoad(next func() []byte, count int, offeredPps float64) (Report, error) {
	if offeredPps <= 0 {
		return Report{}, fmt.Errorf("nic: offered rate must be positive")
	}
	if sh.engine != nil {
		return sh.runLoadMulti(next, count, offeredPps)
	}
	// Annotate the run for runtime/trace consumers (-runtime-trace on
	// the CLIs); free when no execution trace is active.
	ctx, endTask := obs.Task(context.Background(), "nic.RunLoad")
	defer endTask()
	clock := sh.cfg.clockHz()
	cyclesPerPacket := clock / offeredPps

	// One loop drives whichever engine serves. The compiled machine
	// serves whenever no live update is armed; an update run falls back
	// to the interpreter (shared map environment, so state carries over
	// either way). The fault, update and release hooks below are
	// nil-guarded, and none of them is armed while the compiled machine
	// serves.
	var eng hwsim.Core = sh.sim
	if sh.FastPath() {
		eng = sh.fast
	}

	var (
		rep       Report
		in        arrivals
		due       float64
		acc       hwsim.Stats
		startStat = eng.StatsBase()
		began     bool
		beginErr  *liveupdate.UpdateError
	)
	if sh.inj != nil {
		in.faults = sh.inj.Counters()
		next = sh.inj.WrapTraffic(next)
	}

	// The completion ledger comes out of the engine counters at the end;
	// the only per-packet callback feeds the update controller's
	// post-verify window, registered while an update is armed.
	if sh.ctrl != nil {
		sh.sim.OnComplete(sh.ctrl.NoteCompletion)
	}
	defer func() { sh.sim.OnComplete(nil) }()

	// release holds packets the update controller buffered during the
	// cutover drain; they re-enter as the ingress queue frees, ahead of
	// newer arrivals, so the update never drops or reorders a packet.
	var release [][]byte
	drainRelease := func() {
		for len(release) > 0 && eng.InputFree() {
			pkt := release[0]
			release = release[1:]
			if eng.Inject(pkt) {
				in.bytesOut += uint64(len(pkt))
				if sh.ctrl != nil {
					sh.ctrl.NoteInjected(pkt)
				}
			}
		}
	}

	// inject routes one generated arrival: the update controller may
	// hold it during the cutover drain (it comes back via Release, never
	// dropped), otherwise it goes to the serving pipeline — behind any
	// released backlog, to preserve arrival order.
	inject := func(pkt []byte) {
		in.bytesIn += uint64(len(pkt))
		if sh.ctrl != nil && sh.ctrl.OfferPacket(pkt) {
			return
		}
		if len(release) > 0 {
			release = append(release, pkt)
			return
		}
		if eng.Inject(pkt) {
			in.bytesOut += uint64(len(pkt))
			if sh.ctrl != nil {
				sh.ctrl.NoteInjected(pkt)
			}
		}
	}

	endRegion := obs.Region(ctx, "drive")
	for in.paced < count || eng.Busy() || len(release) > 0 || (sh.ctrl != nil && sh.ctrl.Active()) {
		// Arm the scheduled update once enough traffic was offered.
		if sh.pending != nil && in.paced >= sh.pending.after {
			p := sh.pending
			sh.pending = nil
			ucfg := p.cfg
			ucfg.Sim.ClockHz = clock
			if ucfg.Sim.Faults == nil && sh.inj != nil {
				// The shadow runs its own forked fault campaign: same
				// determinism, zero draws stolen from the serving
				// pipeline's per-class streams.
				ucfg.Sim.Faults = sh.inj.Fork(1)
			}
			rep.UpdatesAttempted++
			began = true
			ctrl, err := liveupdate.Begin(sh.sim, ucfg, sh.nowNs)
			if err != nil {
				rep.UpdatesRolledBack++
				if ue, ok := err.(*liveupdate.UpdateError); ok {
					beginErr = ue
				} else {
					beginErr = &liveupdate.UpdateError{Stage: liveupdate.StageShadow, Err: err}
				}
			} else {
				sh.ctrl = ctrl
				sh.sim.OnComplete(ctrl.NoteCompletion)
			}
		}
		// Arrivals faster than the clock queue several packets per cycle.
		for in.paced < count && due <= 0 {
			inject(next())
			in.paced++
			due += cyclesPerPacket
		}
		if sh.inj != nil && in.paced < count && sh.inj.Roll(faults.QueueOverflow) {
			// Ingress overflow burst: a full burst of frames lands in this
			// cycle on top of the paced load. The bounded input queue
			// absorbs what it can and drops the rest — counted, never an
			// error.
			for i := 0; i < sh.inj.BurstLen(); i++ {
				inject(next())
				in.extra++
			}
			sh.inj.Note(faults.QueueOverflow)
		}
		if err := eng.Step(); err != nil {
			endRegion()
			sh.settle(&rep, acc.Add(eng.Stats().Delta(startStat)))
			return rep, err
		}
		if sh.ctrl != nil && sh.ctrl.Active() {
			res := sh.ctrl.Tick()
			if res.Switched != nil {
				// Atomic cutover: fold the retired pipeline's counters into
				// the aggregate, keep the master clock continuous, swap the
				// ingress, and move the post-verify hook across.
				acc = acc.Add(eng.Stats().Delta(startStat))
				sh.cycleBase += sh.sim.Cycle() - res.Switched.Cycle()
				if sh.fast != nil {
					// The compiled engine ran the old program; retire it and
					// keep its cycles on the master clock. Later runs serve
					// from the new interpreter pipeline.
					sh.cycleBase += sh.fast.Cycle()
					sh.fast = nil
				}
				sh.sim = res.Switched
				sh.sim.OnComplete(sh.ctrl.NoteCompletion)
				// The new base keeps the packets the shadow retired during
				// its canary phase, latencies included, out of the report.
				eng, startStat = sh.sim, sh.sim.StatsBase()
			}
			// Held arrivals re-enter in order — into the new pipeline
			// after a switch, back into the old one after a rollback —
			// paced by the ingress queue so none is ever dropped.
			release = append(release, res.Release...)
		}
		drainRelease()
		due--
	}
	endRegion()

	end := acc.Add(eng.Stats().Delta(startStat))
	rep.QueueCount = 1
	sh.closeReport(&rep, end, end.Cycles, offeredPps, in)
	if began {
		if beginErr != nil {
			rep.UpdateStage = liveupdate.StageRolledBack.String()
			rep.UpdateFailure = beginErr.Error()
		} else if st := sh.ctrl.Stats(); true {
			rep.UpdateStage = st.Stage.String()
			rep.MigratedEntries = st.MigratedEntries
			rep.DeltaReplayed = st.DeltaReplayed
			rep.CanariedPackets = st.CanariedPackets
			rep.CanaryDivergences = st.CanaryDivergences
			rep.HeldPackets = st.HeldPackets
			rep.PostVerifyChecked = st.PostVerifyChecked
			rep.PostVerifyDivergences = st.PostVerifyDivergences
			rep.MigrationTicks = st.MigrationTicks
			rep.CutoverTicks = st.CutoverTicks
			switch st.Stage {
			case liveupdate.StageDone:
				rep.UpdatesCompleted++
			case liveupdate.StageRolledBack:
				rep.UpdatesRolledBack++
				if ue := sh.ctrl.Err(); ue != nil {
					rep.UpdateFailure = ue.Error()
				}
			}
		}
	}
	return rep, nil
}

// arrivals is the shell side of a run's ledger: what the generator
// offered and what the serving engines accepted.
type arrivals struct {
	// paced counts arrivals at the offered rate; extra counts the
	// ingress overflow bursts' frames on top of them.
	paced, extra int
	// bytesIn is every offered frame's length, bytesOut the accepted
	// frames'.
	bytesIn, bytesOut uint64
	// faults is the injector's counters at the start of the run.
	faults faults.Counters
}

// settle copies the retirement ledger — packets received, verdicts and
// latency — from the serving engines' counters into rep. A run that
// ends in an engine error reports only these fields.
func (sh *Shell) settle(rep *Report, end hwsim.Stats) {
	rep.Received = end.Completed
	rep.Actions = end.Actions
	if rep.Received > 0 {
		// The host FIFO adds the same latency to every packet, so it
		// folds in once, after the average.
		clock, fifo := sh.cfg.clockHz(), float64(sh.cfg.fifoCycles())
		rep.AvgLatencyNs = (float64(end.LatencySum)/float64(rep.Received) + fifo) / clock * 1e9
		rep.MaxLatencyNs = (float64(end.LatencyMax) + fifo) / clock * 1e9
	}
}

// closeReport turns a finished run into its Report: end is the serving
// engines' counter delta, summed over queues and sessions, and cycles
// the run's simulated length. Both the single-queue loop and the
// multi-queue engine close through here.
func (sh *Shell) closeReport(rep *Report, end hwsim.Stats, cycles uint64, offeredPps float64, in arrivals) {
	sh.settle(rep, end)
	rep.Sent = uint64(in.paced + in.extra)
	rep.Cycles = cycles
	rep.Lost = end.QueueDrops
	rep.Flushes = end.Flushes
	rep.FaultsInjected = end.FaultsInjected
	rep.MalformedDropped = end.MalformedDropped
	rep.QueueOverflows = end.QueueOverflows
	rep.WatchdogTrips = end.WatchdogTrips
	rep.CorrectedWords = end.CorrectedWords
	rep.UncorrectableWords = end.UncorrectableWords
	rep.ScrubPasses = end.ScrubPasses
	rep.CheckpointsTaken = end.CheckpointsTaken
	rep.Recoveries = end.Recoveries
	rep.RecoveryAborted = end.RecoveryAborted
	rep.RecoveryBackoffCycles = end.RecoveryBackoffCycles
	if sh.inj != nil {
		endFaults := sh.inj.Counters()
		rep.MalformedSent = endFaults.ByClass[faults.MalformedTraffic] - in.faults.ByClass[faults.MalformedTraffic]
		rep.OverflowBursts = endFaults.ByClass[faults.QueueOverflow] - in.faults.ByClass[faults.QueueOverflow]
	}

	clock := sh.cfg.clockHz()
	cyclesPerPacket := clock / offeredPps
	seconds := float64(cycles) / clock
	if seconds > 0 {
		rep.AchievedMpps = float64(rep.Received) / seconds / 1e6
		rep.AchievedGbps = float64(in.bytesOut+20*rep.Received) * 8 / seconds / 1e9
		rep.FlushesPerS = float64(rep.Flushes) / seconds
	}
	rep.OfferedMpps = offeredPps / 1e6
	if in.paced > 0 {
		rep.OfferedGbps = float64(in.bytesIn+20*rep.Sent) * 8 / (float64(in.paced) * cyclesPerPacket / clock) / 1e9
	}
	if reg := sh.cfg.Sim.Metrics; reg != nil {
		if h, ok := reg.HistogramByName(hwsim.MetricStageOccupancy); ok {
			rep.MeanStageOccupancy = h.Mean()
		}
		if h, ok := reg.HistogramByName(hwsim.MetricCyclesPerPacket); ok {
			rep.P99LatencyCycles = h.Quantile(0.99)
		}
		if h, ok := reg.HistogramByName(hwsim.MetricFlushPenalty); ok {
			rep.FlushPenaltyMean = h.Mean()
		}
		rep.MapPortOps, _ = reg.CounterValue(hwsim.MetricMapPortOps)
		rep.BackpressureCycles, _ = reg.CounterValue(hwsim.MetricBackpressure)
	}
}

// SaturationMpps ramps the offered rate until packets are lost and
// returns the highest loss-free throughput — how the paper determines
// the maximum sustained rate of a design (e.g. the 29 -> 12 Mpps
// single-flow degradation of Section 5.3).
func (sh *Shell) SaturationMpps(next func() []byte, perStep int, startMpps, stepMpps, maxMpps float64) (float64, error) {
	best := 0.0
	for rate := startMpps; rate <= maxMpps; rate += stepMpps {
		rep, err := sh.RunLoad(next, perStep, rate*1e6)
		if err != nil {
			return 0, err
		}
		if rep.Lost > 0 {
			break
		}
		best = rate
	}
	return best, nil
}

// PinClock fixes the helper-visible time (tests). The pin rides the
// shell's master clock, so it survives a live-update pipeline swap. In
// multi-queue mode the pin applies to every replica (and to replicas
// installed by a later update swap).
func (sh *Shell) PinClock(now uint64) {
	sh.pinned = &now
	if sh.engine != nil {
		sh.engine.SetClock(sh.pinnedNow)
	}
}

// pinnedNow serves the pinned clock to multi-queue replicas.
func (sh *Shell) pinnedNow() uint64 { return *sh.pinned }

// ScheduleUpdate arms a hitless live update: once RunLoad has offered
// `after` packets it begins the shadow/migrate/canary/cutover sequence
// against the serving pipeline. The update either commits (the new
// program serves all subsequent traffic, with the old pipeline's map
// state migrated) or rolls back (the old pipeline never stopped
// serving); either way no packet is dropped by the update itself.
func (sh *Shell) ScheduleUpdate(after int, cfg liveupdate.Config) error {
	if cfg.Prog == nil {
		return fmt.Errorf("nic: live update needs a program")
	}
	if after < 0 {
		return fmt.Errorf("nic: update trigger must be >= 0 packets")
	}
	sh.pending = &pendingUpdate{after: after, cfg: cfg}
	sh.ctrl = nil
	return nil
}

// Update exposes the last update's controller state (nil before any
// update began).
func (sh *Shell) Update() *liveupdate.Controller { return sh.ctrl }
