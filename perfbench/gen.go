package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop request as the generator saw it. All times
// are offsets from the phase start.
type sample struct {
	due   time.Duration // when the schedule wanted it sent
	ready time.Duration // when a connection was free for it: max(due, free)
	sent  time.Duration // when it was actually sent
	done  time.Duration
	// skipped marks a request that was still unsent maxLag after it was
	// due: the backlog it stands for misses the latency limit, and the
	// request is never sent.
	skipped bool
	out     outcome
}

// outcome is what one request returned.
type outcome struct {
	ok       bool   // a well-formed, correct answer
	wrong    bool   // an answer that differs from the reference
	err      string // refused, timed out or malformed; empty when ok
	ttfb     time.Duration
	serverNs int64 // server-side handler time, when the server reported it
}

// latency is the request's time from when it was due to when its answer
// was complete.
func (s sample) latency() time.Duration { return s.done - s.due }

// queueWait is how long the request waited for a free connection.
func (s sample) queueWait() time.Duration { return s.ready - s.due }

// late is how far the generator itself overslept past the moment it
// could have sent the request.
func (s sample) late() time.Duration { return s.sent - s.ready }

// openLoop sends n requests on a fixed schedule, request i due at
// i/rate after start, over at most conns concurrent senders. A sender
// that falls behind sends the next due request at once, so a stall
// delays later requests and their latency, timed from when they were
// due, shows it. Requests still unsent maxLag after they were due are
// skipped. do runs request i on sender lane; the senders are the only
// goroutines openLoop starts, and it returns once they have exited.
func openLoop(rate float64, n, conns int, maxLag time.Duration, do func(i, lane int) outcome) []sample {
	out := make([]sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := sample{due: time.Duration(i) * interval}
				free := time.Since(start)
				s.ready = max(s.due, free)
				if d := s.due - free; d > 0 {
					time.Sleep(d)
				}
				s.sent = time.Since(start)
				if s.sent-s.due > maxLag {
					s.skipped = true
					s.done = s.sent
					out[i] = s
					continue
				}
				s.out = do(i, lane)
				s.done = time.Since(start)
				out[i] = s
			}
		}(c)
	}
	wg.Wait()
	return out
}

// backToBack sends requests one after another until d has passed,
// finishing the one in flight; it returns the outcomes and the wall
// time taken.
func backToBack(d time.Duration, do func(i int) outcome) ([]outcome, time.Duration) {
	var out []outcome
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		out = append(out, do(i))
	}
	return out, time.Since(start)
}
