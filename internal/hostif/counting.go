package hostif

import (
	"coremap/internal/msr"
	"coremap/internal/obs"
)

// countingHost is a transparent decorator that counts every host
// operation into an obs.Registry under host/ops/<op> and, when a clock is
// supplied, observes each operation's latency into the histogram
// host/op_us{op="<op>"}. Counter and histogram updates are lock-free atomics
// and the decorator never alters arguments, results or errors, so
// wrapping a Host cannot perturb a measurement — only observe it.
type countingHost struct {
	h     Host
	clock obs.Clock // nil: latency histograms disabled

	rdmsr, wrmsr, load, timedLoad, store, flush         *obs.Counter
	rdmsrUS, wrmsrUS, loadUS, timedUS, storeUS, flushUS *obs.Histogram
}

// Counting wraps h so that every operation increments the matching
// host/ops/* counter in reg, and — when clock is non-nil — lands its
// latency in host/op_us{op="..."}. With a nil registry it returns h
// unchanged, keeping the uninstrumented path decorator-free. Every handle
// is looked up once here, so the per-op cost stays a few atomics.
func Counting(h Host, reg *obs.Registry, clock obs.Clock) Host {
	if reg == nil {
		return h
	}
	c := &countingHost{
		h:         h,
		clock:     clock,
		rdmsr:     reg.Counter("host/ops/rdmsr"),
		wrmsr:     reg.Counter("host/ops/wrmsr"),
		load:      reg.Counter("host/ops/load"),
		timedLoad: reg.Counter("host/ops/timed_load"),
		store:     reg.Counter("host/ops/store"),
		flush:     reg.Counter("host/ops/flush"),
	}
	if clock != nil {
		c.rdmsrUS = reg.Histogram(`host/op_us{op="rdmsr"}`)
		c.wrmsrUS = reg.Histogram(`host/op_us{op="wrmsr"}`)
		c.loadUS = reg.Histogram(`host/op_us{op="load"}`)
		c.timedUS = reg.Histogram(`host/op_us{op="timed_load"}`)
		c.storeUS = reg.Histogram(`host/op_us{op="store"}`)
		c.flushUS = reg.Histogram(`host/op_us{op="flush"}`)
	}
	return c
}

// begin and done bracket one operation's latency measurement; both are
// no-ops when no clock was supplied.
func (c *countingHost) begin() (start int64) {
	if c.clock == nil {
		return 0
	}
	return c.clock.Now().UnixMicro()
}

func (c *countingHost) done(h *obs.Histogram, start int64) {
	if c.clock == nil {
		return
	}
	h.Observe(c.clock.Now().UnixMicro() - start)
}

func (c *countingHost) NumCPUs() int { return c.h.NumCPUs() }

func (c *countingHost) ReadMSR(cpu int, a msr.Addr) (uint64, error) {
	c.rdmsr.Inc()
	start := c.begin()
	v, err := c.h.ReadMSR(cpu, a)
	c.done(c.rdmsrUS, start)
	return v, err
}

func (c *countingHost) WriteMSR(cpu int, a msr.Addr, v uint64) error {
	c.wrmsr.Inc()
	start := c.begin()
	err := c.h.WriteMSR(cpu, a, v)
	c.done(c.wrmsrUS, start)
	return err
}

func (c *countingHost) Load(cpu int, addr uint64) error {
	c.load.Inc()
	start := c.begin()
	err := c.h.Load(cpu, addr)
	c.done(c.loadUS, start)
	return err
}

func (c *countingHost) TimedLoad(cpu int, addr uint64) (uint64, error) {
	c.timedLoad.Inc()
	start := c.begin()
	v, err := c.h.TimedLoad(cpu, addr)
	c.done(c.timedUS, start)
	return v, err
}

func (c *countingHost) Store(cpu int, addr uint64) error {
	c.store.Inc()
	start := c.begin()
	err := c.h.Store(cpu, addr)
	c.done(c.storeUS, start)
	return err
}

func (c *countingHost) Flush(cpu int, addr uint64) error {
	c.flush.Inc()
	start := c.begin()
	err := c.h.Flush(cpu, addr)
	c.done(c.flushUS, start)
	return err
}
