// Package perf is pprof plumbing for the CLIs: the -cpuprofile and
// -memprofile flags of cmd/figures and cmd/insomnia, so hot-path work is
// measurable outside `go test -bench`. The repository's benchmark is
// perfbench/ (see README "Benchmark").
package perf

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Profile starts an optional CPU profile and arranges an optional heap
// profile — the shared -cpuprofile/-memprofile plumbing of the CLIs. The
// returned cleanup is idempotent; call it on every exit path, including
// before log.Fatal/os.Exit (which skip defers), so the CPU profile is
// always terminated and parseable. Heap-profile write failures are
// reported on stderr rather than returned: by cleanup time the measured
// work has already happened and must not be discarded.
func Profile(cpuPath, memPath string) (cleanup func(), err error) {
	stop, err := startCPUProfile(cpuPath)
	if err != nil {
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			stop()
			if err := writeHeapProfile(memPath); err != nil {
				fmt.Fprintln(os.Stderr, "perf:", err)
			}
		})
	}, nil
}

// startCPUProfile begins a CPU profile at path and returns the stop
// function. An empty path is a no-op, so Profile can pass the flag
// through unconditionally. stop is idempotent.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}, nil
}

// writeHeapProfile writes a heap profile to path after a GC, so the profile
// reflects live objects. An empty path is a no-op.
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
