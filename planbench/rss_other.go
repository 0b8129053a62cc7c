//go:build !linux

package main

import "errors"

// resetPeakRSS is unsupported off Linux.
func resetPeakRSS() error { return errors.New("no clear_refs on this platform") }

// peakRSSMB is unsupported off Linux and reads 0.
func peakRSSMB() float64 { return 0 }
