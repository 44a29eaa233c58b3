package main

import (
	"bytes"
	"fmt"
	"runtime"
	rtm "runtime/metrics"
	"time"

	"cluseq"
	"cluseq/internal/core"
	"cluseq/internal/obs"
	"cluseq/internal/seq"
)

// The train workload: batch clustering of fresh synthetic databases,
// one cluseq.Cluster call each (§4's loop end to end). The seed draws a
// new database per call, so a run averages over several planted
// instances instead of timing one of them over and over.
const (
	trainSeqs     = 1000
	trainLen      = 200
	trainAlpha    = 30
	trainFamilies = 8
	trainMinCalls = 4

	// Quality gates. Depending on the planted sources a call finds 6, 7
	// or 8 of the 8 families (accuracy about 0.75, 0.875 or 1.0), so the
	// median over a run's calls is gated tightly and every single call
	// only against a collapse.
	trainMedianClusters = 7
	trainMedianAccuracy = 0.8
	trainMinClusters    = 4
	trainMinAccuracy    = 0.5

	setupRepeats = 3
)

// trainOptions are BenchmarkClusterEndToEnd's options, with Workers
// left at its default (GOMAXPROCS).
func trainOptions() cluseq.Options {
	return cluseq.Options{
		Significance: 20, MinDistinct: 4, SimilarityThreshold: 1.05,
		MaxDepth: 5, Seed: 3, FixedSignificance: true,
	}
}

// trainCall is one measured Cluster call. steps holds the gaps between
// the engine's per-iteration progress lines (the first from the call's
// start, the last from the final line to the return), in ms.
type trainCall struct {
	secs, allocMB, peakHeapMB float64
	steps                     []float64
	res                       *cluseq.Result
}

// cluster runs one Cluster call on db. With reg/traceBuf non-nil the
// engine's metrics and phase spans are recorded into them.
func cluster(db *seq.Database, reg *obs.Registry, traceBuf *bytes.Buffer) (trainCall, error) {
	var c trainCall
	opts := trainOptions()
	opts.Obs = reg
	if traceBuf != nil {
		opts.Tracer = obs.NewTracer(traceBuf)
	}
	var last time.Time
	opts.Logf = func(string, ...any) {
		now := time.Now()
		c.steps = append(c.steps, ms(now.Sub(last)))
		last = now
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop := make(chan struct{})
	peak := make(chan float64)
	go sampleHeap(stop, peak)
	start := time.Now()
	last = start
	res, err := cluseq.Cluster(db, opts)
	end := time.Now()
	close(stop)
	c.peakHeapMB = <-peak
	c.secs = end.Sub(start).Seconds()
	c.steps = append(c.steps, ms(end.Sub(last)))
	runtime.ReadMemStats(&m1)
	c.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	c.res = res
	return c, err
}

// sampleHeap reads the heap left live by the latest GC every 2ms until
// stop closes, then sends the peak in MB.
func sampleHeap(stop <-chan struct{}, peak chan<- float64) {
	s := []rtm.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	top := uint64(0)
	for {
		rtm.Read(s)
		top = max(top, s[0].Value.Uint64())
		select {
		case <-stop:
			peak <- float64(top) / 1e6
			return
		case <-tick.C:
		}
	}
}

func runTrain(b *bench) error {
	// Set-up: draw the first database and warm the process up (heap,
	// page cache of the binary) by clustering a small database that is
	// the same for every seed, so set-up time does not depend on the draw.
	var setups []float64
	var first *seq.Database
	for r := 0; r < setupRepeats; r++ {
		start := time.Now()
		db, err := synthetic(subSeed(b.seed, 0), trainSeqs, trainLen, trainAlpha, trainFamilies)
		if err != nil {
			return err
		}
		warm, err := synthetic(1, 100, trainLen, trainAlpha, trainFamilies)
		if err != nil {
			return err
		}
		if _, err := cluseq.Cluster(warm, trainOptions()); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		first = db
	}
	b.report("setup_s", "s", median(setups), len(setups))

	var overheadPlain, overheadTraced []float64
	if b.traced {
		// Tracing overhead: the first database clustered with and
		// without the engine's metrics and spans attached.
		for r := 0; r < 2; r++ {
			c, err := cluster(first, nil, nil)
			if err != nil {
				return err
			}
			overheadPlain = append(overheadPlain, c.secs)
			c, err = cluster(first, obs.NewRegistry(), &bytes.Buffer{})
			if err != nil {
				return err
			}
			overheadTraced = append(overheadTraced, c.secs)
		}
	}

	reg := obs.NewRegistry() // traced runs only
	var secs, rates, allocs, accs, heaps []float64
	var steps [][]float64
	var clusters []int
	var assigns [][]int
	var truths [][]string
	runtime.GC() // brings runtime/metrics' CPU classes up to date
	g0 := readGC()
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for i := 0; i < trainMinCalls || time.Now().Before(deadline); i++ {
		db := first
		if i > 0 {
			var err error
			if db, err = synthetic(subSeed(b.seed, i), trainSeqs, trainLen, trainAlpha, trainFamilies); err != nil {
				return err
			}
		}
		var c trainCall
		var err error
		if b.traced {
			var buf bytes.Buffer
			start := time.Now()
			c, err = cluster(db, reg, &buf)
			id := b.tr.add("bench.train_call", 0, start, start.Add(time.Duration(c.secs*float64(time.Second))))
			if ierr := b.tr.importCoreSpans(buf.Bytes(), id); ierr != nil {
				return ierr
			}
		} else {
			c, err = cluster(db, nil, nil)
		}
		b.op(err == nil)
		if err != nil {
			b.notef("call %d: %v", i, err)
			continue
		}
		assign := c.res.Primary
		acc, err := accuracy(assign, labels(db))
		if err != nil {
			return err
		}
		secs = append(secs, c.secs)
		allocs = append(allocs, c.allocMB)
		heaps = append(heaps, c.peakHeapMB)
		steps = append(steps, c.steps)
		rates = append(rates, float64(db.Len())/c.secs)
		accs = append(accs, acc)
		clusters = append(clusters, len(c.res.Clusters))
		assigns, truths = append(assigns, assign), append(truths, labels(db))
	}
	if len(secs) == 0 {
		return fmt.Errorf("no Cluster call succeeded")
	}
	runtime.GC()
	g1 := readGC()
	b.check("train.quality_median",
		func() error {
			return medianQuality(clusters, assigns, truths, trainMedianClusters, trainMedianAccuracy)
		},
		func() error {
			return medianQuality(clusters, assigns, rotateAll(truths), trainMedianClusters, trainMedianAccuracy)
		})
	b.check("train.quality_every_call",
		func() error { return everyQuality(clusters, accs, trainMinClusters, trainMinAccuracy) },
		func() error { return everyQuality(clusters, accs, trainFamilies+1, trainMinAccuracy) })

	b.report("throughput_per_s", "1/s", median(rates), len(rates))
	b.report("latency_p50_ms", "ms", 1000*median(secs), len(secs))
	b.report("peak_mem_mb", "MB", median(heaps), len(heaps))
	b.report("ok_frac", "fraction", float64(b.attempted-b.failed)/float64(b.attempted), int(b.attempted))
	stepP99 := windowed(steps, 0.99)
	b.notef("train: %d calls over %d databases of %d×%d, slowest call %.3fs, p99 iteration step %.1f ms (median over calls; not gated); clusters found %v",
		len(secs), len(secs), trainSeqs, trainLen, quantile(secs, 1), stepP99, clusters)

	if !b.traced {
		return nil
	}
	n := float64(len(secs))
	b.layer("quality.accuracy", "fraction", median(accs))
	b.layer("core.alloc_mb", "MB", median(allocs))
	b.layer("bench.latency_p99_ms", "ms", stepP99)
	coreLayers(b, reg, n)
	cycles, pause, cpu := gcDelta(g0, g1)
	b.layer("gc.cycles", "count", cycles/n)
	b.layer("gc.pause_ms", "ms", pause)
	b.layer("gc.cpu_frac", "fraction", cpu)
	b.layer("unattributed_frac", "fraction", b.tr.unattributed("bench.train_call"))
	b.layer("bench.trace_overhead_frac", "fraction", median(overheadTraced)/median(overheadPlain)-1)

	// Unit-cost probes on the first database's model.
	db := first
	opts := trainOptions()
	opts.KeepTrees = true
	res, err := cluseq.Cluster(db, opts)
	if err != nil {
		return err
	}
	clf, err := core.NewClassifier(db, res, opts)
	if err != nil {
		return err
	}
	heldOut, err := synthetic(subSeed(b.seed, 0), trainSeqs+200, trainLen, trainAlpha, trainFamilies)
	if err != nil {
		return err
	}
	_, heldOut = split(heldOut, trainSeqs)
	mix, err := newMix(b.seed, clf, strs(heldOut), "bench")
	if err != nil {
		return err
	}
	_, err = b.probeLayers(clf, db, mix)
	return err
}

// coreLayers reports the engine's per-phase seconds, iterations, cache
// hit share and snapshot compiles, per Cluster call, from its metrics.
func coreLayers(b *bench, reg *obs.Registry, calls float64) {
	phases := map[string]float64{}
	var iters, hits, misses, compiles, compileSecs float64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "cluseq_engine_phase_seconds":
			phases[m.Label("phase")] = m.Sum
		case "cluseq_engine_iterations_total":
			iters = m.Value
		case "cluseq_engine_cache_hits_total":
			hits = m.Value
		case "cluseq_engine_cache_misses_total":
			misses = m.Value
		case "cluseq_engine_snapshot_compiles_total":
			compiles = m.Value
		case "cluseq_engine_snapshot_compile_seconds":
			compileSecs = m.Sum
		}
	}
	for _, p := range []string{"generate", "score", "apply", "consolidate", "threshold"} {
		b.layer("core."+p+"_s", "s", phases[p]/max(calls, 1))
	}
	b.layer("core.iterations", "count", iters/max(calls, 1))
	if hits+misses > 0 {
		b.layer("core.cache_hit_frac", "fraction", hits/(hits+misses))
	} else {
		b.layer("core.cache_hit_frac", "fraction", 0)
	}
	b.layer("core.snapshot_compiles", "count", compiles/max(calls, 1))
	b.layer("core.snapshot_compile_s", "s", compileSecs/max(calls, 1))
}

// medianQuality requires the median cluster count and the median
// accuracy (of assigns against truths) over a run's calls to reach the
// given floors.
func medianQuality(clusters []int, assigns [][]int, truths [][]string, minClusters int, minAcc float64) error {
	var cs, accs []float64
	for i := range assigns {
		acc, err := accuracy(assigns[i], truths[i])
		if err != nil {
			return err
		}
		cs, accs = append(cs, float64(clusters[i])), append(accs, acc)
	}
	if c := median(cs); c < float64(minClusters) {
		return fmt.Errorf("median %.1f clusters, want at least %d", c, minClusters)
	}
	if a := median(accs); a < minAcc {
		return fmt.Errorf("median accuracy %.4f below %.2f", a, minAcc)
	}
	return nil
}

// everyQuality requires every call to reach the given floors.
func everyQuality(clusters []int, accs []float64, minClusters int, minAcc float64) error {
	for i := range accs {
		if clusters[i] < minClusters || accs[i] < minAcc {
			return fmt.Errorf("call %d: %d clusters at accuracy %.4f, want at least %d at %.2f", i, clusters[i], accs[i], minClusters, minAcc)
		}
	}
	return nil
}

func rotateAll(truths [][]string) [][]string {
	out := make([][]string, len(truths))
	for i, t := range truths {
		out[i] = rotated(t)
	}
	return out
}
