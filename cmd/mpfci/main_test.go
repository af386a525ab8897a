package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinary compiles the CLI once per test binary.
func buildBinary(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "mpfci")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build failed: %v\n%s", err, out)
	}
	return bin
}

// writeExample writes the paper's Table II database in the text format.
func writeExample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "example.txt")
	data := `0 1 2 3 : 0.9
0 1 2 : 0.6
0 1 2 : 0.7
0 1 2 3 : 0.9
`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	bin := buildBinary(t)
	data := writeExample(t)

	out, err := exec.Command(bin, "-minsup-abs", "2", "-pfct", "0.8", "-stats", data).CombinedOutput()
	if err != nil {
		t.Fatalf("mpfci failed: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"# 2 probabilistic frequent closed itemsets",
		"PFCI {a b c}\tPr_FC=0.8754",
		"PFCI {a b c d}\tPr_FC=0.8100",
		"# stats:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	// The border and expected-support listings: every PFI of Table II is a
	// subset of abcd, and a, b, c each have expected support 3.1 against
	// d's 1.8, so exactly the 7 non-empty subsets of abc reach 2.
	out, err = exec.Command(bin, "-minsup-abs", "2", "-pfct", "0.8", "-maximal", "-exp-sup", "2", data).CombinedOutput()
	if err != nil {
		t.Fatalf("mpfci -maximal -exp-sup failed: %v\n%s", err, out)
	}
	text = string(out)
	for _, want := range []string{
		"# 1 maximal probabilistic frequent itemsets",
		"MaxPFI {a b c d}",
		"# 7 itemsets with expected support >= 2",
		"ESI {a b c}\texp_sup=3.10",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestCLIJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	bin := buildBinary(t)
	data := writeExample(t)

	out, err := exec.Command(bin, "-minsup-abs", "2", "-pfct", "0.8", "-json", data).Output()
	if err != nil {
		t.Fatalf("mpfci -json failed: %v", err)
	}
	// The JSON document starts after the "# ..." header line.
	idx := strings.Index(string(out), "{")
	if idx < 0 {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	var parsed struct {
		Count    int `json:"count"`
		Itemsets []struct {
			Items []int   `json:"items"`
			Prob  float64 `json:"freq_closed_prob"`
		} `json:"itemsets"`
	}
	if err := json.Unmarshal(out[idx:], &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if parsed.Count != 2 || len(parsed.Itemsets) != 2 {
		t.Fatalf("JSON count = %d, want 2", parsed.Count)
	}
	if parsed.Itemsets[0].Prob < 0.87 || parsed.Itemsets[0].Prob > 0.88 {
		t.Errorf("first itemset prob = %v", parsed.Itemsets[0].Prob)
	}
}

func TestCLIBadInput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	bin := buildBinary(t)
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("1 2 : banana\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := exec.Command(bin, path).Run(); err == nil {
		t.Error("bad input should make the CLI exit non-zero")
	}
	if err := exec.Command(bin).Run(); err == nil {
		t.Error("missing file argument should exit non-zero")
	}
}
