package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The benchmark's machine is a virtual machine whose host runs other
// tenants. While they are busy, the host deschedules this machine's vCPUs
// for seconds at a time; the kernel counts that time as steal. Over whole
// runs it made the same deterministic re-inference take 10 to 17 s and
// lookup throughput range from 8.7 to 14k/s, while within each run the
// figures held. Every timed end-to-end metric that spans more than single
// requests is therefore taken as busy time: wall-clock time minus the
// steal the machine accrued meanwhile. On a machine without steal the two
// are equal; each phase prints its raw wall time and steal under
// `reference:`.

// stealTime is the machine's steal time so far, summed over its CPUs, as
// /proc/stat counts it (in 10 ms ticks). It is 0 where the file or the
// column is missing.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// clock times one span of work in wall time and steal.
type clock struct {
	wall  time.Time
	steal time.Duration
}

func startClock() clock { return clock{wall: time.Now(), steal: stealTime()} }

// elapsed returns the wall time and the steal since the clock started.
func (c clock) elapsed() (wall, steal time.Duration) {
	return time.Since(c.wall), stealTime() - c.steal
}

// busy returns the wall time since the clock started minus the steal
// accrued meanwhile.
func (c clock) busy() time.Duration {
	wall, steal := c.elapsed()
	return busyOf(wall, steal)
}

// busyOf is wall minus steal. Steal is counted in 10 ms ticks, so a span
// can be charged a little more steal than it lost; busy time is kept
// positive.
func busyOf(wall, steal time.Duration) time.Duration {
	if b := wall - steal; b > 0 {
		return b
	}
	return time.Microsecond
}
