package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cluseq"
	"cluseq/internal/core"
	"cluseq/internal/registry"
	"cluseq/internal/seq"
	"cluseq/internal/server"
)

// The serve workload: a frozen model served by cluseqd, classified by
// an open-loop Poisson arrival schedule over loopback HTTP — 80% single
// sequences, 20% batches of 16, held-out sequences of the training
// sources (outliers included). The model never changes, so tree insert
// and snapshot compile stay off the path.
const (
	serveTrainSeqs = 600
	serveHeldOut   = 400
	serveLen       = 200
	serveAlpha     = 30
	serveFamilies  = 8
	serveModel     = "bench"

	// serveRate is the fixed arrival rate (requests/s) at which the
	// latency metrics are taken: well under capacity, so they show the
	// per-request cost rather than queueing.
	serveRate = 400.0
	// fixedShare is the part of the run's seconds spent at serveRate;
	// the rest searches capacity.
	fixedShare = 0.45

	// latencyLimitMS is the p99 limit (from due time) a rate must meet
	// to count as sustained in the capacity search.
	latencyLimitMS = 50.0
	// latenessLimitMS bounds the generator's own p99 lateness. A
	// fixed-rate phase beyond it makes the run invalid; a capacity step
	// beyond it fails, since the generator did not offer that rate.
	latenessLimitMS = 25.0
	capacityStep    = 1200 * time.Millisecond

	// latencyWindow is the span over which each latency quantile is
	// taken before the median across windows is reported: 1000 requests
	// at serveRate, so a window's p99 has 10 samples above it.
	latencyWindow = 2500 * time.Millisecond
)

// capacityLadder is the fixed geometric rate ladder (requests/s) the
// capacity search bisects: 100 · 1.05^i.
func capacityLadder() []float64 {
	var l []float64
	for r := 100.0; r < 20000; r *= 1.05 {
		l = append(l, r)
	}
	return l
}

// trainModel clusters db and returns a classifier with its trees, plus
// its v3 bundle bytes.
func trainModel(db *seq.Database) (*core.Classifier, []byte, error) {
	opts := trainOptions()
	opts.KeepTrees = true
	res, err := cluseq.Cluster(db, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("train: %w", err)
	}
	clf, err := core.NewClassifier(db, res, opts)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := clf.SaveBundle(&buf, core.BundleOptions{}); err != nil {
		return nil, nil, fmt.Errorf("save bundle: %w", err)
	}
	return clf, buf.Bytes(), nil
}

// writeAtomic writes data to path by rename, as the registry requires.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// reqs turns arrival offsets into requests drawn from the mix.
func (m *mix) reqs(rng *rand.Rand, offs []time.Duration) []request {
	out := make([]request, len(offs))
	for i, off := range offs {
		k := m.pick(rng)
		out[i] = request{due: off, path: "/v1/classify", body: m.bodies[k], tag: k}
	}
	return out
}

// verify checks every outcome of a classify run against the in-process
// answers, counts each as an operation, and returns the first error.
func (b *bench) verify(m *mix, outs []outcome) error {
	var first error
	for _, o := range outs {
		err := o.err
		if err == nil && o.status != 200 {
			err = fmt.Errorf("status %d: %s", o.status, o.body)
		}
		if err == nil {
			err = checkResponse(o.body, m.want[o.tag])
		}
		b.op(err == nil)
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

func runServe(b *bench) error {
	db, err := synthetic(subSeed(b.seed, 0), serveTrainSeqs+serveHeldOut, serveLen, serveAlpha, serveFamilies)
	if err != nil {
		return err
	}
	trainDB, held := split(db, serveTrainSeqs)
	models := filepath.Join(b.work, "models")
	if err := os.MkdirAll(models, 0o755); err != nil {
		return err
	}

	// The model is an input of this workload, trained once. Set-up,
	// repeated, is what serving it takes: write the bundle, start the
	// daemon, wait until it is ready. The last daemon serves the run.
	clf, bundle, err := trainModel(trainDB)
	if err != nil {
		return err
	}
	var setups []float64
	var d *daemon
	for r := 0; r < setupRepeats; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		if err := writeAtomic(filepath.Join(models, serveModel+registry.Ext), bundle); err != nil {
			return err
		}
		if d, err = b.startDaemon("/readyz", "-models", models); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.kill()
	b.report("setup_s", "s", median(setups), len(setups))

	// Expected answers come from the bundle the daemon serves, loaded
	// in-process.
	loaded, err := core.LoadClassifier(bytes.NewReader(bundle))
	if err != nil {
		return fmt.Errorf("load bundle in-process: %w", err)
	}
	m, err := newMix(b.seed, loaded, strs(held), serveModel)
	if err != nil {
		return err
	}
	clients := newClients(runtime.NumCPU())
	defer closeClients(clients)
	rng := newRand(b.seed, 2)

	// Fixed-rate phase. A traced run splits it into an untraced and a
	// traced half to measure what the benchmark's own spans cost.
	g0, err := d.gauges("cluseqd_go_")
	if err != nil {
		return err
	}
	fixed := time.Duration(fixedShare * b.seconds * float64(time.Second))
	var outs []outcome
	var lateness []float64
	halves := 1
	if b.traced {
		halves = 2
	}
	var halfP50 []float64
	var answerErr error
	for h := 0; h < halves; h++ {
		res := openLoop(d.url, clients, m.reqs(rng, poisson(rng, serveRate, fixed/time.Duration(halves))), 0, nil)
		if err := b.verify(m, res.outs); err != nil && answerErr == nil {
			answerErr = err
		}
		halfP50 = append(halfP50, median(latenciesMS(res.outs)))
		outs, lateness = append(outs, res.outs...), append(lateness, res.lateness...)
		if h == 1 {
			b.traceRequests(m, res.outs)
		}
	}
	g1, err := d.gauges("cluseqd_go_")
	if err != nil {
		return err
	}
	if len(outs) == 0 {
		return fmt.Errorf("fixed-rate phase sent nothing")
	}
	b.check("serve.answers_match_inprocess",
		func() error { return answerErr },
		func() error { return checkResponse(outs[0].body, corruptFirst(m.want[outs[0].tag])) })
	lateP99 := quantile(lateness, 0.99)
	b.check("serve.generator_on_time",
		func() error { return latenessCheck(lateP99, latenessLimitMS) },
		func() error { return latenessCheck(lateP99, 0) })
	lat := timeWindows(outs, latencyWindow)
	// Peak RSS at the fixed rate: the capacity steps overload the daemon
	// on purpose, and how far its heap grows then depends on how far the
	// search overshoots.
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return err
	}

	capacity, probes := b.searchCapacity(d, clients, m, rng, serveRate)
	closeClients(clients)
	if err := d.stop(); err != nil {
		return err
	}

	b.report("throughput_per_s", "1/s", capacity, probes)
	b.report("latency_p50_ms", "ms", windowed(lat, 0.5), count(lat))
	latP99 := windowed(lat, 0.99)
	b.report("peak_mem_mb", "MB", rss, 1)
	b.report("ok_frac", "fraction", float64(b.attempted-b.failed)/float64(b.attempted), int(b.attempted))
	b.notef("serve: %d requests at %.0f/s, p99 %.3f ms (median over windows; not gated), generator lateness p99 %.3f ms; capacity %.1f requests/s after %d ladder steps",
		count(lat), serveRate, latP99, lateP99, capacity, probes)

	if !b.traced {
		return nil
	}
	b.layer("bench.gen_lateness_p99_ms", "ms", lateP99)
	b.layer("bench.latency_p99_ms", "ms", latP99)
	b.layer("bench.trace_overhead_frac", "fraction", halfP50[1]/halfP50[0]-1)
	b.layer("unattributed_frac", "fraction", b.tr.unattributed("bench.request"))
	b.layer("gc.cycles", "count", g1["cluseqd_go_gc_cycles"]-g0["cluseqd_go_gc_cycles"])
	b.layer("gc.pause_ms", "ms", 1000*g1["cluseqd_go_gc_pause_p99_seconds"])
	acc, err := heldOutAccuracy(loaded, held)
	if err != nil {
		return err
	}
	b.layer("quality.accuracy", "fraction", acc)
	handlerGC, err := b.probeLayers(clf, trainDB, m)
	if err != nil {
		return err
	}
	b.layer("gc.cpu_frac", "fraction", handlerGC)
	b.layer("net.overhead_us", "us", 1000*windowed(lat, 0.5)-b.layers["server.handler_us"].Value)
	return nil
}

func latenessCheck(p99, limit float64) error {
	if p99 > limit {
		return fmt.Errorf("generator p99 lateness %.3f ms over the %.1f ms limit", p99, limit)
	}
	return nil
}

// searchCapacity bisects the capacity ladder for the highest rate whose
// p99 latency from due time stays within latencyLimitMS without a
// growing backlog, starting from the fixed rate (which the run has just
// sustained). A failed rung is run once more before it counts as
// failed, so one stall of a shared host does not halve the search. It
// stops early when the run's time budget is spent and returns the rate
// found and the number of steps run.
func (b *bench) searchCapacity(d *daemon, clients []*http.Client, m *mix, rng *rand.Rand, from float64) (float64, int) {
	ladder := capacityLadder()
	lo := 0
	for lo+1 < len(ladder) && ladder[lo+1] <= from {
		lo++
	}
	hi := len(ladder)
	budget := time.Duration((1 - fixedShare) * b.seconds * float64(time.Second))
	start := time.Now()
	steps := 0
	step := func(rate float64) bool {
		res := openLoop(d.url, clients, m.reqs(rng, poisson(rng, rate, capacityStep)), int(rate*latencyLimitMS/1000)+2*len(clients), nil)
		steps++
		if err := b.verify(m, res.outs); err != nil {
			b.notef("capacity step %.0f/s: %v", rate, err)
		}
		time.Sleep(50 * time.Millisecond) // let the daemon go idle between steps
		return sustained(res)
	}
	for hi-lo > 1 && time.Since(start)+capacityStep < budget {
		mid := (lo + hi) / 2
		if step(ladder[mid]) || step(ladder[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if hi-lo > 1 {
		b.notef("capacity search ran out of time between %.0f and %.0f requests/s", ladder[lo], ladder[min(hi, len(ladder)-1)])
	}
	return ladder[lo], steps
}

// sustained reports whether one capacity step met the limit: nothing
// abandoned, generator on time, p99 within latencyLimitMS, and the last
// quarter's median latency not above twice the first quarter's plus 1ms
// (no growing backlog).
func sustained(res loadResult) bool {
	n := len(res.outs)
	if res.aborted || n < 8 || quantile(res.lateness, 0.99) > latenessLimitMS {
		return false
	}
	lat := latenciesMS(res.outs)
	if quantile(lat, 0.99) > latencyLimitMS {
		return false
	}
	return median(lat[3*n/4:]) <= 2*median(lat[:n/4])+1
}

// traceRequests records each request's spans: its wait in the
// generator queue, and the daemon's own classify time (elapsed_ms of
// the response) inside the round trip. What neither covers — HTTP,
// loopback TCP, response encoding — is the request's self time.
func (b *bench) traceRequests(m *mix, outs []outcome) {
	if b.tr == nil {
		return
	}
	for _, o := range outs {
		id := b.tr.add("bench.request", 0, o.due, o.done)
		b.tr.add("bench.queue", id, o.due, o.sent)
		var resp server.ClassifyResponse
		if json.Unmarshal(o.body, &resp) != nil {
			continue
		}
		el := time.Duration(resp.ElapsedMs * float64(time.Millisecond))
		mid := o.sent.Add(o.done.Sub(o.sent) / 2)
		b.tr.add("server.classify", id, mid.Add(-el/2), mid.Add(el/2))
	}
}

// heldOutAccuracy scores the model's assignments of the held-out
// sequences against their planted labels.
func heldOutAccuracy(clf *core.Classifier, held *seq.Database) (float64, error) {
	assign := make([]int, held.Len())
	for i, s := range held.Sequences {
		assign[i] = clf.Classify(s.Symbols).Cluster
	}
	return accuracy(assign, labels(held))
}
