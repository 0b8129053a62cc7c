//go:build linux

package main

import (
	"os"
	"syscall"
)

// resetPeakRSS restarts the process's resident-set high-water mark at its
// current RSS (Linux clear_refs "5"), so a later peakRSSMB covers only
// what ran after the reset.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is getrusage's ru_maxrss in MiB: the high-water resident set
// since the process started or since resetPeakRSS.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
