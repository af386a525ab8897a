package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestExperimentsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s", err, out)
	}
	out, err := exec.Command(bin,
		"-exp", "example1",
		"-mushroom-scale", "0.005", "-quest-scale", "0.002", "-quick",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("experiments failed: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"Table II", "Table III", "0.8754", "0.8100"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if err := exec.Command(bin, "-exp", "nonsense").Run(); err == nil {
		t.Error("unknown experiment should exit non-zero")
	}

	// A failing run still writes its CPU profile: the stop and the file
	// close run before the process exits non-zero.
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	if err := exec.Command(bin, "-exp", "nonsense", "-cpuprofile", prof,
		"-mushroom-scale", "0.005", "-quest-scale", "0.002").Run(); err == nil {
		t.Error("unknown experiment with -cpuprofile should exit non-zero")
	}
	blob, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 2 || blob[0] != 0x1f || blob[1] != 0x8b {
		t.Errorf("CPU profile of a failing run is not a gzip stream (%d bytes)", len(blob))
	}
}
