package perf

import (
	"path/filepath"
	"testing"
)

func TestProfileHelpers(t *testing.T) {
	stop, err := startCPUProfile("")
	if err != nil {
		t.Fatal(err)
	}
	stop() // no-op path must be safe
	dir := t.TempDir()
	stop, err = startCPUProfile(filepath.Join(dir, "cpu.out"))
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // idempotent: deferred + explicit stop must both be safe
	if err := writeHeapProfile(filepath.Join(dir, "mem.out")); err != nil {
		t.Fatal(err)
	}
	if err := writeHeapProfile(""); err != nil {
		t.Fatal(err)
	}
}
