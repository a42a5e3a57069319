package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// calibrate times a fixed reference kernel that runs no coremap code:
// SHA-256 over 8 MB and a 4M-step pointer chase through a 4 MB random
// cycle. It measures how fast the box is right now, so that two sets of
// runs taken while the box drifted are not mistaken for a code change.
func calibrate() float64 {
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	// Sattolo's shuffle makes next one cycle through every slot.
	next := make([]uint32, 1<<20)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	start := time.Now()
	sum := sha256.Sum256(buf)
	p := uint32(sum[0])
	for i := 0; i < 4<<20; i++ {
		p = next[p]
	}
	el := time.Since(start)
	if p == 1<<31 { // never true; keeps the chase from being optimized away
		fmt.Fprintln(os.Stderr)
	}
	return float64(el.Nanoseconds()) / 1e6
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS mark (VmHWM) from the current resident set, so that a later
// peakRSSMB covers only what ran in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
