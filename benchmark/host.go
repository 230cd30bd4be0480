package main

import (
	"encoding/binary"
	"sync"
	"syscall"
	"time"
)

// The sandbox is a few cores of a shared host whose speed drifts by
// ×1.1 to ×1.5 over minutes, at the worst ×2: neighbours load the memory
// system and sometimes take a core. A drift that slow shifts every
// repetition of a run alike, so no estimator over the run and no run
// length that fits removes it (README, "Host factor"). What does is to
// measure the host alongside the program: after every repetition the
// harness does a fixed piece of work of its own, timed with the same two
// clocks as the repetition, and the times a run reports are divided by
// the run's median probe reading.
//
// The work is a sequential read of a table larger than the core's
// caches, in as many goroutines at once as the workloads keep flows in
// flight. Of the loops tried (register arithmetic, pointer chases through
// 256 KB and 16 MB, this one, and their means) it follows the program's
// repetitions most closely.
type hostProbe struct {
	mem  []byte // the table, outside the Go heap
	sink [probeLanes]uint64
}

// reading is one probe pass: wall clock and process CPU, each as a
// factor of what the pass takes on the reference host in a quiet minute,
// so 1.2 means a host 20 % slower.
type reading struct{ wall, cpu float64 }

const (
	probeLanes  = 2
	probeBytes  = 16 << 20
	probeSweeps = 2 // reads of the whole table per lane and pass
	// What one pass reads on the sandbox in a quiet minute. They only fix
	// the scale of the factors.
	probeWallRef = 5.6e-3                    // s
	probeCPURef  = probeLanes * probeWallRef // s
	// probeShare is the part of the measuring time spent probing.
	probeShare = 0.08
)

// newHostProbe maps the table outside the Go heap, where it neither
// raises the collector's heap goal for the program under test nor is
// scanned, and writes every word, so that each page is a page of its own.
func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(mem); i += 8 {
		binary.LittleEndian.PutUint64(mem[i:], uint64(i)*0x9e3779b97f4a7c15)
	}
	return &hostProbe{mem: mem}, nil
}

func (h *hostProbe) close() { syscall.Munmap(h.mem) }

// pass reads the table probeSweeps times in every lane at once, each
// lane starting at its own offset.
func (h *hostProbe) pass() reading {
	c0, t0 := cpuSeconds(), time.Now()
	var wg sync.WaitGroup
	for lane := range h.sink {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := lane * (probeBytes / probeLanes)
			var sum uint64
			for s := 0; s < probeSweeps; s++ {
				for _, part := range [][]byte{h.mem[start:], h.mem[:start]} {
					for i := 0; i+8 <= len(part); i += 8 {
						sum += binary.LittleEndian.Uint64(part[i:])
					}
				}
			}
			h.sink[lane] += sum
		}()
	}
	wg.Wait()
	return reading{wall: time.Since(t0).Seconds() / probeWallRef, cpu: (cpuSeconds() - c0) / probeCPURef}
}

// after probes the host once a repetition that took wall seconds has ended:
// passes until probeShare of that time is spent, at least one. It returns
// readings with the new ones appended.
func (h *hostProbe) after(readings []reading, wall float64) []reading {
	for start := time.Now(); ; {
		readings = append(readings, h.pass())
		if time.Since(start).Seconds() >= probeShare*wall {
			return readings
		}
	}
}

// factors are the medians of the readings' two clocks.
func factors(readings []reading) (wall, cpu float64) {
	w, c := make([]float64, len(readings)), make([]float64, len(readings))
	for i, r := range readings {
		w[i], c[i] = r.wall, r.cpu
	}
	return median(w), median(c)
}
