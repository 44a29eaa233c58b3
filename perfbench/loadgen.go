package main

import (
	"bytes"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// request is one scheduled HTTP POST of an open-loop run. Bodies are
// marshaled during set-up, so client-side JSON stays off the timed path.
type request struct {
	due  time.Duration // offset from the run's start
	path string
	body []byte
	tag  int // the caller's payload index, for checking the answer
}

// outcome is what became of one request. Latency runs from due, not
// from sent: time a request waited for the generator or for a free
// connection is part of what a caller would see.
type outcome struct {
	tag       int
	due, sent time.Time
	done      time.Time
	status    int
	body      []byte
	err       error
}

func (o outcome) latency() time.Duration { return o.done.Sub(o.due) }

// loadResult is one open-loop run. lateness holds, per dispatched
// request, how late the generator itself handed it to a sender (ms).
type loadResult struct {
	outs     []outcome
	lateness []float64
	aborted  bool
}

// newClients returns n HTTP clients of one connection each: the
// generator never holds more connections than it has senders.
func newClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// poisson returns the arrival offsets of a Poisson process at rate per
// second over dur.
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// openLoop sends reqs at their due times, one sender goroutine per
// client, and returns once every dispatched request has completed. The
// schedule never waits for the system: a request due while every
// connection is busy queues in the generator, and its wait counts. With
// maxBacklog > 0 the run is abandoned (aborted) once more than that many
// dispatched requests are outstanding — the rate is then plainly above
// capacity and the rest of the schedule would only grow the queue. A
// close of stop (nil: never) ends the schedule early.
func openLoop(url string, clients []*http.Client, reqs []request, maxBacklog int, stop <-chan struct{}) loadResult {
	outs := make([]outcome, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends
	var completed atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				outs[i] = send(c, url, reqs[i], outs[i].due)
				completed.Add(1)
			}
		}(c)
	}
	res := loadResult{lateness: make([]float64, 0, len(reqs))}
	start := time.Now()
	dispatched := 0
	for i, r := range reqs {
		due := start.Add(r.due)
		sleepUntil(due, stop)
		if stopped(stop) {
			break
		}
		if maxBacklog > 0 && int64(dispatched)-completed.Load() > int64(maxBacklog) {
			res.aborted = true
			break
		}
		outs[i].due = due
		res.lateness = append(res.lateness, ms(time.Since(due)))
		queue <- i
		dispatched++
	}
	close(queue)
	wg.Wait()
	res.outs = outs[:dispatched]
	return res
}

// sleepUntil blocks the calling goroutine until t or until stop
// closes. It sleeps in nanosleep steps of at most 5ms: a nanosleep wakes
// within tens of microseconds, while time.Sleep waits in the runtime's
// netpoller, whose millisecond timeout alone makes a generator up to 1ms
// late.
func sleepUntil(t time.Time, stop <-chan struct{}) {
	for {
		d := time.Until(t)
		if d <= 0 || stopped(stop) {
			return
		}
		ts := syscall.NsecToTimespec(int64(min(d, 5*time.Millisecond)))
		syscall.Nanosleep(&ts, nil)
	}
}

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

func send(c *http.Client, url string, r request, due time.Time) outcome {
	o := outcome{tag: r.tag, due: due, sent: time.Now()}
	resp, err := c.Post(url+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status = resp.StatusCode
	return o
}

// timeWindows splits the outcomes' latencies (ms) into consecutive
// windows of span d by due time.
func timeWindows(outs []outcome, d time.Duration) [][]float64 {
	var ws [][]float64
	if len(outs) == 0 {
		return ws
	}
	first := outs[0].due
	for _, o := range outs {
		k := int(o.due.Sub(first) / d)
		for len(ws) <= k {
			ws = append(ws, nil)
		}
		ws[k] = append(ws[k], ms(o.latency()))
	}
	return ws
}

// latenciesMS returns each outcome's latency from its due time in ms.
func latenciesMS(outs []outcome) []float64 {
	l := make([]float64, len(outs))
	for i, o := range outs {
		l[i] = ms(o.latency())
	}
	return l
}
