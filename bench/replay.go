package main

import (
	"time"

	"coremap/internal/hostif"
	"coremap/internal/msr"
)

// opKind is one logged host operation, or a phase mark.
type opKind uint8

const (
	opReadMSR opKind = iota
	opWriteMSR
	opLoad
	opTimedLoad
	opStore
	opFlush
	opMark
)

// Phases of a traced map, marked at each public-call boundary.
const (
	phaseNew   = iota // probe.New
	phaseStep1        // Prober.MapCoresToCHAs
	phaseStep2        // Prober.RunWith
	phaseEnd          // locate.Reconstruct: no host operations
	numPhases
)

// hostOp is one logged operation: the arguments, the written value or the
// returned result, and whether it failed. For a mark, addr is the phase.
type hostOp struct {
	kind   opKind
	failed bool
	cpu    int32
	addr   uint64
	val    uint64
}

// recorder is a hostif.Host that logs every operation reaching the
// machine beneath it into one reused buffer. Timing each operation in
// place would cost more than many operations do; instead the log is
// replayed against an identical twin machine under one timer per phase.
type recorder struct {
	h   hostif.Host
	log []hostOp
}

// reset starts a new map's log on h, keeping the buffer.
func (r *recorder) reset(h hostif.Host) {
	r.h = h
	r.log = r.log[:0]
}

func (r *recorder) mark(phase int) {
	r.log = append(r.log, hostOp{kind: opMark, addr: uint64(phase)})
}

func (r *recorder) add(kind opKind, cpu int, addr, val uint64, err error) {
	r.log = append(r.log, hostOp{kind: kind, failed: err != nil, cpu: int32(cpu), addr: addr, val: val})
}

func (r *recorder) NumCPUs() int { return r.h.NumCPUs() }

func (r *recorder) ReadMSR(cpu int, a msr.Addr) (uint64, error) {
	v, err := r.h.ReadMSR(cpu, a)
	r.add(opReadMSR, cpu, uint64(a), v, err)
	return v, err
}

func (r *recorder) WriteMSR(cpu int, a msr.Addr, v uint64) error {
	err := r.h.WriteMSR(cpu, a, v)
	r.add(opWriteMSR, cpu, uint64(a), v, err)
	return err
}

func (r *recorder) Load(cpu int, addr uint64) error {
	err := r.h.Load(cpu, addr)
	r.add(opLoad, cpu, addr, 0, err)
	return err
}

func (r *recorder) TimedLoad(cpu int, addr uint64) (uint64, error) {
	v, err := r.h.TimedLoad(cpu, addr)
	r.add(opTimedLoad, cpu, addr, v, err)
	return v, err
}

func (r *recorder) Store(cpu int, addr uint64) error {
	err := r.h.Store(cpu, addr)
	r.add(opStore, cpu, addr, 0, err)
	return err
}

func (r *recorder) Flush(cpu int, addr uint64) error {
	err := r.h.Flush(cpu, addr)
	r.add(opFlush, cpu, addr, 0, err)
	return err
}

// replay re-issues the log against twin, a machine built from the same
// spec as the recorded one, and returns the time spent in each phase and
// the number of operations whose result or error-ness differs from the
// recording. Any mismatch means the twin diverged and the timings are void.
func (r *recorder) replay(twin hostif.Host) (phaseNS [numPhases]int64, mismatches int) {
	phase := -1
	var start time.Time
	for i := range r.log {
		op := &r.log[i]
		var v uint64
		var err error
		switch op.kind {
		case opMark:
			now := time.Now()
			if phase >= 0 {
				phaseNS[phase] += now.Sub(start).Nanoseconds()
			}
			phase, start = int(op.addr), now
			continue
		case opReadMSR:
			v, err = twin.ReadMSR(int(op.cpu), msr.Addr(op.addr))
		case opWriteMSR:
			v, err = op.val, twin.WriteMSR(int(op.cpu), msr.Addr(op.addr), op.val)
		case opLoad:
			err = twin.Load(int(op.cpu), op.addr)
		case opTimedLoad:
			v, err = twin.TimedLoad(int(op.cpu), op.addr)
		case opStore:
			err = twin.Store(int(op.cpu), op.addr)
		case opFlush:
			err = twin.Flush(int(op.cpu), op.addr)
		}
		if v != op.val || (err != nil) != op.failed {
			mismatches++
		}
	}
	if phase >= 0 {
		phaseNS[phase] += time.Since(start).Nanoseconds()
	}
	return phaseNS, mismatches
}
