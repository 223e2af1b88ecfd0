package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildSimd compiles the command into a temporary directory and returns
// the binary's path, so tests can signal the server process itself
// rather than a `go run` wrapper.
func buildSimd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "simd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building simd: %v\n%s", err, out)
	}
	return bin
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func TestStrayArgument(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, buildSimd(t), "-addr", freeAddr(t), "-data", t.TempDir(), "tyop")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "unexpected argument") || !strings.Contains(string(out), "tyop") {
		t.Errorf("stray arg: want usage error with exit status 2, got %v, output:\n%s", err, out)
	}
}

// TestSIGTERMDrains pins that `docker stop` (SIGTERM) shuts the server
// down gracefully: the process drains and exits 0 instead of dying on
// the signal.
func TestSIGTERMDrains(t *testing.T) {
	addr := freeAddr(t)
	var out bytes.Buffer
	cmd := exec.Command(buildSimd(t), "-addr", addr, "-data", t.TempDir())
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	// stopNow kills the server and waits for it, so its output is
	// complete before a failing check prints it.
	stopNow := func() {
		cmd.Process.Kill()
		<-exited
	}

	up := false
	for deadline := time.Now().Add(10 * time.Second); !up && time.Now().Before(deadline); {
		if resp, err := http.Get("http://" + addr + "/v1/campaigns"); err == nil {
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
		}
		if !up {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !up {
		stopNow()
		t.Fatalf("server never answered GET /v1/campaigns, output:\n%s", &out)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		stopNow()
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("SIGTERM: want exit 0, got %v, output:\n%s", err, &out)
		}
	case <-time.After(10 * time.Second):
		stopNow()
		t.Fatalf("SIGTERM: server still running after 10 s, output:\n%s", &out)
	}
	if !strings.Contains(out.String(), "shut down; unfinished jobs resume on restart") {
		t.Errorf("SIGTERM: missing shutdown message, output:\n%s", &out)
	}
}
