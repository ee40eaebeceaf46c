package experiments

import (
	"fmt"
	"time"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/hdl"
	"ehdl/internal/hwsim"
	"ehdl/internal/nic"
	"ehdl/internal/pktgen"
)

// ScalingQueues is the sweep of the multi-queue experiment.
var ScalingQueues = []int{1, 2, 4, 8}

// Scaling sweeps the RSS multi-queue shell: each point offers 85% of
// the replica fleet's aggregate capacity (a single 250 MHz pipeline
// forwards at most one packet per cycle, 250 Mpps) and reports whether
// the fleet absorbs it, alongside the FPGA cost of stamping out that
// many firewall replicas.
//
// Each point is also timed on the host, from shell build through the
// end of RunLoad, into the "host/scaling/toy/q<N>/mpps" points: the
// single-queue one, served by the interpreter, is the rate the
// regression baseline's fast-path gate divides by.
func Scaling(cfg Config) (Table, error) {
	t := Table{ID: "scaling", Title: "Multi-queue RSS scale-out (toy pipeline, 85% aggregate load)",
		Columns: []string{"Queues", "Offered Mpps", "Achieved Mpps", "Speedup", "Lost", "Active", "fw LUT%"},
		Points:  map[string]float64{}}
	app := apps.Toy()
	pl, err := compileApp(app, core.Options{})
	if err != nil {
		return t, err
	}
	fw, err := compileApp(apps.Firewall(), core.Options{})
	if err != nil {
		return t, err
	}
	dev := hdl.AlveoU50()
	n := cfg.packets()
	var base float64
	for _, q := range ScalingQueues {
		start := time.Now()
		sh, err := nic.New(pl, nic.ShellConfig{Queues: q, FastPath: cfg.FastPath, Sim: hwsim.Config{InputQueuePackets: 64}})
		if err != nil {
			return t, err
		}
		if err := app.Setup(sh.Maps()); err != nil {
			return t, err
		}
		gen := pktgen.NewGenerator(app.Traffic)
		offered := 0.85 * 250e6 * float64(q)
		rep, err := sh.RunLoad(gen.Next, n, offered)
		if err != nil {
			return t, err
		}
		if wall := time.Since(start).Seconds(); wall > 0 {
			t.Points[fmt.Sprintf("host/scaling/toy/q%d/mpps", q)] = float64(rep.Received) / wall / 1e6
		}
		t.Points[fmt.Sprintf("scaling/toy/q%d/mpps", q)] = rep.AchievedMpps
		t.Points[fmt.Sprintf("scaling/toy/q%d/lost", q)] = float64(rep.Lost)
		if base == 0 {
			base = rep.AchievedMpps
		}
		active := 0
		for _, qr := range rep.PerQueue {
			if qr.Steered > 0 {
				active++
			}
		}
		if q == 1 {
			active = 1
		}
		lut := hdl.EstimateDesignReplicated(fw, q).PercentOf(dev).LUT
		t.Rows = append(t.Rows, []string{
			istr(q), f1(offered / 1e6), f1(rep.AchievedMpps),
			fmt.Sprintf("%.2fx", rep.AchievedMpps/base), u64s(rep.Lost),
			istr(active), f1(lut),
		})
	}
	if q1 := t.Points["scaling/toy/q1/mpps"]; q1 > 0 {
		t.Points["scaling/toy/speedup_4q"] = t.Points["scaling/toy/q4/mpps"] / q1
	}
	if h1 := t.Points["host/scaling/toy/q1/mpps"]; h1 > 0 {
		t.Points["host/scaling/toy/speedup_4q"] = t.Points["host/scaling/toy/q4/mpps"] / h1
	}
	t.Notes = append(t.Notes,
		"100GbE at 64B is 148.8 Mpps: one 250 MHz replica covers it; the sweep sizes 200/400GbE deployments",
		"fw LUT% is the firewall design replicated N ways on an Alveo U50 (shared maps kept single-instance)")
	return t, nil
}
