package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles this command into a temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "paragond")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestCLIErrors(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown placement", []string{"-placement", "nope"}, 1, "nope"},
		{"k below 2", []string{"-n0", "100", "-m0", "300", "-k", "1"}, 1, "need >= 2"},
		// Removed with the legacy bench estate; the flag package rejects it.
		{"-bench-json is gone", []string{"-bench-json", "x.json"}, 2, "flag provided but not defined: -bench-json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != tc.code {
				t.Fatalf("exit = %v, want code %d (stderr: %s)", err, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.stderr)
			}
		})
	}
}

// The daemon's replay contract through the real binary: the same seeded
// faulty schedule writes a byte-identical -replay-out at any -workers.
func TestReplayIdenticalAcrossWorkers(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	var replays [][]byte
	for _, w := range []string{"1", "2"} {
		path := filepath.Join(dir, "replay"+w)
		out, err := exec.Command(bin, "-n0", "1500", "-m0", "7500", "-k", "8", "-batches", "30",
			"-adds", "150", "-removes", "60", "-arrivals", "4", "-fault-rate", "0.35",
			"-workers", w, "-replay-out", path).CombinedOutput()
		if err != nil {
			t.Fatalf("-workers %s: %v\n%s", w, err, out)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		replays = append(replays, b)
	}
	if !bytes.Contains(replays[0], []byte("assign-hash")) {
		t.Fatalf("replay summary has no assign-hash line:\n%s", replays[0])
	}
	if !bytes.Equal(replays[0], replays[1]) {
		t.Errorf("replay differs between -workers 1 and 2:\n%s\nvs\n%s", replays[0], replays[1])
	}
}
