package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
)

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0 // cannot fail for the two constants below
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the user+sys CPU time the whole process has used.
func processCPU() time.Duration { return rusage(syscall.RUSAGE_SELF) }

// threadCPU is the CPU time of the calling OS thread; meaningful only
// on a goroutine locked to its thread.
func threadCPU() time.Duration { return rusage(syscall.RUSAGE_THREAD) }

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
// getrusage's ru_maxrss is not used: a child inherits it across exec,
// so under `go run` it would report the go tool's footprint.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 2 && string(f[1]) == "kB" {
				kb, err := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
