package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ehdl/internal/cfg"
	"ehdl/internal/core"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
	"ehdl/internal/fastpath"
	"ehdl/internal/hdl"
)

// design is what one compilation produced.
type design struct {
	digest    [32]byte // SHA-256 of the VHDL text
	vhdlBytes int
	pct       hdl.Percent
	pl        *core.Pipeline
}

// compileOne takes a program through core.Compile, fastpath.Compile,
// hdl.Generate and hdl.EstimateDesign, the path from bytecode to VHDL
// text plus its resource estimate. Each call into a layer is a child
// span of one "compile" span when rec is non-nil.
func compileOne(prog *ebpf.Program, rec *recorder, req int64) (design, error) {
	root := rec.begin("compile", 0, req)
	defer rec.end(root)
	id := rec.begin("core.Compile", root, req)
	pl, err := core.Compile(prog, core.Options{})
	rec.end(id)
	if err != nil {
		return design{}, fmt.Errorf("%s: core: %w", prog.Name, err)
	}
	id = rec.begin("fastpath.Compile", root, req)
	_, err = fastpath.Compile(pl)
	rec.end(id)
	if err != nil {
		return design{}, fmt.Errorf("%s: fastpath: %w", prog.Name, err)
	}
	id = rec.begin("hdl.Generate", root, req)
	vhdl := hdl.Generate(pl)
	rec.end(id)
	id = rec.begin("hdl.EstimateDesign", root, req)
	res := hdl.EstimateDesign(pl)
	rec.end(id)
	return design{
		digest:    sha256.Sum256([]byte(vhdl)),
		vhdlBytes: len(vhdl),
		pct:       res.PercentOf(hdl.AlveoU50()),
		pl:        pl,
	}, nil
}

// analysisSpans times the cfg and ddg passes on their own (core.Compile
// runs them internally several times, where they cannot be seen from
// outside): cfg.Unroll plus cfg.Build, then ddg.Analyze on that graph.
func analysisSpans(prog *ebpf.Program, rec *recorder, req int64) error {
	id := rec.begin("cfg.Build", 0, req)
	unrolled, err := cfg.Unroll(prog)
	if err != nil {
		rec.end(id)
		return fmt.Errorf("%s: cfg: %w", prog.Name, err)
	}
	g, err := cfg.Build(unrolled)
	rec.end(id)
	if err != nil {
		return fmt.Errorf("%s: cfg: %w", prog.Name, err)
	}
	id = rec.begin("ddg.Analyze", 0, req)
	_, err = ddg.Analyze(g)
	rec.end(id)
	if err != nil {
		return fmt.Errorf("%s: ddg: %w", prog.Name, err)
	}
	return nil
}

// compileResult is one timed compile phase.
type compileResult struct {
	ms         []float64 // process CPU ms, one sample per compiled program
	mismatches []string  // designs that differ from the app's first one
	first      map[string]design
	order      []string
}

// compileLoop compiles the programs round-robin until budget has
// elapsed (at least one full round), and checks that every repetition
// of a program yields the same VHDL digest and resource percentages.
func compileLoop(progs []*ebpf.Program, budget time.Duration, rec *recorder, req *int64) (compileResult, error) {
	r := compileResult{first: map[string]design{}}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		for _, prog := range progs {
			*req++
			if rec != nil {
				if err := analysisSpans(prog, rec, *req); err != nil {
					return r, err
				}
			}
			c0 := processCPU()
			d, err := compileOne(prog, rec, *req)
			if err != nil {
				return r, err
			}
			r.ms = append(r.ms, float64((processCPU()-c0).Nanoseconds())/1e6)
			f, seen := r.first[prog.Name]
			if !seen {
				r.first[prog.Name] = d
				r.order = append(r.order, prog.Name)
				continue
			}
			if f.digest != d.digest || f.pct != d.pct {
				r.mismatches = append(r.mismatches, fmt.Sprintf("%s: design differs between repetitions", prog.Name))
			}
		}
	}
	return r, nil
}

// meanPct is the mean utilisation over the distinct designs.
func (r compileResult) meanPct() hdl.Percent {
	var m hdl.Percent
	for _, name := range r.order {
		p := r.first[name].pct
		m.LUT += p.LUT
		m.FF += p.FF
		m.BRAM += p.BRAM
	}
	n := float64(len(r.order))
	return hdl.Percent{LUT: m.LUT / n, FF: m.FF / n, BRAM: m.BRAM / n}
}

// fig10Mismatches compares each design against the Figure 10 points
// recorded in the repository's baseline file, for the apps it records.
func fig10Mismatches(path string, r compileResult) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base struct {
		Points map[string]float64 `json:"points"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []string
	for _, name := range r.order {
		pct := r.first[name].pct
		for _, c := range []struct {
			key string
			got float64
		}{
			{"fig10/" + name + "/lut_pct", pct.LUT},
			{"fig10/" + name + "/bram_pct", pct.BRAM},
		} {
			if want, ok := base.Points[c.key]; ok && want != c.got {
				out = append(out, fmt.Sprintf("%s: %v, baseline %v", c.key, c.got, want))
			}
		}
	}
	return out, nil
}
