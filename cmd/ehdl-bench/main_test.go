package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ehdl/internal/experiments"
)

// runCapture runs the CLI entry point with its stdout captured; stderr
// is left alone so failures stay visible in -v output.
func runCapture(t *testing.T, args ...string) (int, string) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	// Drain concurrently: a full pipe buffer would block run forever.
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r) // a read error shows up as missing output
		r.Close()
		done <- buf.Bytes()
	}()
	code := run(args)
	w.Close()
	os.Stdout = old
	return code, string(<-done)
}

func TestListPrintsEveryExperiment(t *testing.T) {
	code, out := runCapture(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	got := strings.Fields(out)
	want := experiments.IDs()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list printed %v, want %v", got, want)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	if code, _ := runCapture(t, "-exp", "fig99"); code != 1 {
		t.Errorf("unknown -exp: exit %d, want 1", code)
	}
}

func TestBadFlagFails(t *testing.T) {
	if code, _ := runCapture(t, "-no-such-flag"); code != 1 {
		t.Errorf("unknown flag: exit %d, want 1", code)
	}
}

// TestBaselineCheckUnreadable: a missing, corrupt or point-less
// baseline file fails the check before anything is measured.
func TestBaselineCheckUnreadable(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"points": {`), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema": 1, "packets": 6000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing.json"), corrupt, empty} {
		if code, _ := runCapture(t, "-baseline-check", path); code != 1 {
			t.Errorf("-baseline-check %s: exit %d, want 1", filepath.Base(path), code)
		}
	}
}

func TestOneExperiment(t *testing.T) {
	code, out := runCapture(t, "-exp", "table4")
	if code != 0 {
		t.Fatalf("-exp table4: exit %d\n%s", code, out)
	}
	if !strings.HasPrefix(out, "== table4: ") || strings.Contains(out, "== table3") {
		t.Errorf("-exp table4 printed something else:\n%s", out)
	}
}
