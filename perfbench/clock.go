package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// stealClock times intervals in wall time less the share of it the host
// stole from the virtual machine. On a shared virtual machine the hypervisor
// takes a varying share of the CPU, and the wall time of identical work
// swings with it; the kernel counts that share as steal time. A background
// goroutine samples the kernel's cumulative steal and busy CPU time, and the
// stolen share of an interval is steal / (steal + busy) over it. Only that
// share is taken out: time a request spends blocked on a lock, waiting in a
// queue or idle stays in its latency. The clock is Linux-only.
type stealClock struct {
	epoch      time.Time
	mu         sync.Mutex
	samples    []stealSample
	quit, done chan struct{}
}

// stealSample is one reading of the kernel's CPU counters.
type stealSample struct {
	at          time.Duration // since the clock's epoch
	steal, busy float64       // cumulative ticks over all CPUs
}

const (
	stealPeriod = 50 * time.Millisecond
	// stealSpan is the shortest interval a share is taken over. The kernel
	// counts CPU time in 10 ms ticks, so a shorter interval would read a
	// share of 0 or 1; a request shorter than this takes the share of the
	// stealSpan around its midpoint.
	stealSpan = 500 * time.Millisecond
)

// statPath is the kernel's CPU time accounting.
const statPath = "/proc/stat"

// readStat returns the cumulative steal and busy (user, nice, system, irq,
// softirq) ticks over all CPUs.
func readStat() (steal, busy float64, err error) {
	b, err := os.ReadFile(statPath)
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("%s: no steal column in %q", statPath, line)
	}
	var v [8]float64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", statPath, err)
		}
	}
	return v[7], v[0] + v[1] + v[2] + v[5] + v[6], nil
}

// startStealClock takes the first sample and starts sampling every
// stealPeriod until stop.
func startStealClock() (*stealClock, error) {
	c := &stealClock{epoch: time.Now(), quit: make(chan struct{}), done: make(chan struct{})}
	if err := c.sample(); err != nil {
		return nil, err
	}
	go func() {
		defer close(c.done)
		t := time.NewTicker(stealPeriod)
		defer t.Stop()
		for {
			select {
			case <-c.quit:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c, nil
}

func (c *stealClock) sample() error {
	steal, busy, err := readStat()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.samples = append(c.samples, stealSample{time.Since(c.epoch), steal, busy})
	c.mu.Unlock()
	return nil
}

// stop ends sampling once a stealSpan has passed after the last interval
// measured, so that interval's share rests on samples on both sides of it.
func (c *stealClock) stop() {
	time.Sleep(stealSpan / 2)
	close(c.quit)
	<-c.done
	c.sample()
}

// now is the time since the clock's epoch, the time base of every interval.
func (c *stealClock) now() time.Duration { return time.Since(c.epoch) }

// share is the stolen share of CPU time over [t0, t1], widened to at least
// stealSpan around its midpoint. Call it after stop.
func (c *stealClock) share(t0, t1 time.Duration) float64 {
	if t1-t0 < stealSpan {
		mid := t0 + (t1-t0)/2
		t0, t1 = mid-stealSpan/2, mid+stealSpan/2
	}
	s0, b0 := c.at(t0)
	s1, b1 := c.at(t1)
	if s1-s0+b1-b0 <= 0 {
		return 0
	}
	return (s1 - s0) / (s1 - s0 + b1 - b0)
}

// at interpolates the cumulative counters at t, clamped to the samples.
func (c *stealClock) at(t time.Duration) (steal, busy float64) {
	s := c.samples
	i := sort.Search(len(s), func(i int) bool { return s[i].at >= t })
	switch {
	case i == 0:
		return s[0].steal, s[0].busy
	case i == len(s):
		return s[i-1].steal, s[i-1].busy
	}
	a, b := s[i-1], s[i]
	f := float64(t-a.at) / float64(b.at-a.at)
	return a.steal + f*(b.steal-a.steal), a.busy + f*(b.busy-a.busy)
}

// less is the length of [t0, t1] less its stolen share.
func (c *stealClock) less(t0, t1 time.Duration) time.Duration {
	return time.Duration(float64(t1-t0) * (1 - c.share(t0, t1)))
}
