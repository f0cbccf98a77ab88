//go:build !linux

package main

import (
	"errors"
	"time"
)

// The harness reads per-thread CPU time and VmHWM, which only Linux
// offers; elsewhere it compiles and refuses to run.

func processCPU() time.Duration { return 0 }
func threadCPU() time.Duration  { return 0 }

func peakRSSMiB() (float64, error) {
	return 0, errors.New("bench: needs linux (RUSAGE_THREAD, /proc/self/status)")
}
