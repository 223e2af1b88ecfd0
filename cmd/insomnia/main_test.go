package main

import (
	"os/exec"
	"strings"
	"testing"
)

// runInsomnia execs the CLI via `go run`, which exits 1 on any child
// failure but reports the child's status on stderr; failed reports
// whether the child exited non-zero.
func runInsomnia(t *testing.T, args ...string) (out string, failed bool) {
	t.Helper()
	buf, err := exec.Command("go", append([]string{"run", "."}, args...)...).CombinedOutput()
	out = string(buf)
	if err != nil && !strings.Contains(out, "exit status") {
		t.Fatalf("running insomnia: %v\n%s", err, out)
	}
	return out, err != nil
}

func TestStrayArgument(t *testing.T) {
	out, _ := runInsomnia(t, "tyop")
	if !strings.Contains(out, "exit status 2") || !strings.Contains(out, "unexpected argument") || !strings.Contains(out, "tyop") {
		t.Errorf("stray arg: want usage error with exit status 2, output:\n%s", out)
	}
}

// TestRejectsPrivateSchemeName pins that -scheme takes the canonical
// campaign names only: the CLI's former short names are unknown.
func TestRejectsPrivateSchemeName(t *testing.T) {
	out, failed := runInsomnia(t, "-scheme", "bh2k")
	if !failed || !strings.Contains(out, `unknown scheme "bh2k"`) {
		t.Errorf("-scheme bh2k: failed=%v, output:\n%s", failed, out)
	}
}

func TestSmallRun(t *testing.T) {
	out, failed := runInsomnia(t, "-clients", "40", "-gateways", "8", "-scheme", "SoI")
	if failed || !strings.Contains(out, "savings:") || !strings.Contains(out, "scheme:            SoI") {
		t.Errorf("small SoI run: failed=%v, output:\n%s", failed, out)
	}
}
