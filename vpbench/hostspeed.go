package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on a share of a host whose speed for one fixed piece of
// work drifts by ±20% and more within seconds and across minutes, as other
// guests come and go: cold-sweep passes took 3.4 s in one run and 6.5 s in
// another ten minutes later. Medians within a run cannot remove drift that
// covers the whole run. So while a run is measured, every caller goroutine
// also runs a short, fixed calibration loop that belongs to the benchmark,
// between its requests, once every calibEvery. The run's slowdown is the
// mean time of those samples over calibRef, and its host-time metrics are
// scaled to the reference host speed: a rate is multiplied, and a latency
// divided, by the slowdown. The samples are taken outside the requests'
// clocks, and their time is taken off the windows'. The slowdown is the
// whole run's, not each window's: the few samples of one window followed the
// host less well than the window's own median did.
//
// The loop calls nothing in the repository, so a change to the program moves
// the scaled metrics as much as the raw ones. It does share the CPUs with the
// program: a change that made the program run more threads than callers at
// once would slow the samples too. The raw metrics and the slowdown stay in
// the result file.
//
// The loop is four independent multiply-xorshift chains: it keeps a core's
// integer units busy and touches no memory. Of the loops tried (these
// chains, read-modify-writes with data-dependent branches on a 2 MiB table,
// a stream over 8 MiB of records indexing a 1 MiB table), it is the one
// whose time followed the simulator's on a 2-vCPU Intel Xeon guest
// (correlation 0.8 and slope 1.0 on a log scale across cold-sweep passes;
// the table loops 0.3 and 0.2).

// calibIters is the length of one sample, about 5 ms.
const calibIters = 2_000_000

// calibRef is the time of one sample at the reference host speed, a round
// figure below the 5-6 ms median sample on the 2-vCPU Intel Xeon guest the
// bounds were set on. It only fixes the scale of the scaled metrics.
const calibRef = 5 * time.Millisecond

// calibEvery is how often a caller samples: a 5 ms sample every 100 ms costs
// the workload about 5% of its time.
const calibEvery = 100 * time.Millisecond

// hostClock collects the calibration samples of a run.
type hostClock struct {
	mu    sync.Mutex
	spent time.Duration // sum of all samples so far
	all   []time.Duration
}

// hostMark is the state of a hostClock at one moment.
type hostMark struct {
	spent time.Duration
	n     int
}

func (h *hostClock) mark() hostMark {
	h.mu.Lock()
	defer h.mu.Unlock()
	return hostMark{h.spent, len(h.all)}
}

// calibSink keeps the calibration results alive.
var calibSink atomic.Uint64

// sample runs the calibration loop once on the calling goroutine.
func (h *hostClock) sample() {
	t0 := time.Now()
	calibSink.Add(calibChains(calibIters))
	d := time.Since(t0)
	h.mu.Lock()
	h.spent += d
	h.all = append(h.all, d)
	h.mu.Unlock()
}

// spentSince is the time the samples taken since m took.
func (h *hostClock) spentSince(m hostMark) time.Duration {
	return h.mark().spent - m.spent
}

// slowdown is the mean of the samples taken since m over calibRef. With no
// samples since m it takes one. The mean, not the median: a rate is total
// work over total time, so the slowdown is total sample time over total
// reference time, and stolen or contended stretches that hit a minority of
// samples still count. In two warm-rerender runs while other guests took
// 22% and 28% of the host's CPU time, the rates scaled by the median sample
// were 29% and 34% below a quiet run's, those scaled by the mean 6% and 24%.
func (h *hostClock) slowdown(m hostMark) float64 {
	if h.mark().n == m.n {
		h.sample()
	}
	now := h.mark()
	return (now.spent - m.spent).Seconds() / float64(now.n-m.n) / calibRef.Seconds()
}

// pacer is one caller's sampling schedule.
type pacer struct {
	h    *hostClock
	next time.Time
}

func (h *hostClock) pacer() *pacer { return &pacer{h: h, next: time.Now().Add(calibEvery)} }

// tick samples if calibEvery has passed since the caller's last sample.
func (p *pacer) tick() {
	if time.Now().Before(p.next) {
		return
	}
	p.h.sample()
	p.next = time.Now().Add(calibEvery)
}

// calibChains runs four independent multiply-xorshift chains n steps.
func calibChains(n int) uint64 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < n; i++ {
		a = (a ^ a>>13) * 0x9e3779b97f4a7c15
		b = (b ^ b>>11) * 0xbf58476d1ce4e5b9
		c = (c ^ c>>7) * 0x94d049bb133111eb
		d = (d ^ d>>17) * 0xd1342543de82ef95
	}
	return a + b + c + d
}
