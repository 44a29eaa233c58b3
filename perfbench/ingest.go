package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cluseq/internal/core"
	"cluseq/internal/seq"
	"cluseq/internal/server"
	"cluseq/internal/stream"
)

// The ingest workload: cluseqd -stream, fed a fixed shuffled corpus by
// one closed-loop producer (one request in flight, batches of 8) while
// one open-loop reader classifies held-out sequences against the
// stream's published model. Every replay starts a fresh daemon, since
// a stream only ever grows.
const (
	ingestSeqs        = 400
	ingestHeldOut     = 200
	ingestLen         = 100
	ingestAlpha       = 20
	ingestFamilies    = 8
	ingestBatch       = 8
	ingestConsolidate = 50
	ingestMinReplays  = 2
	streamModel       = "stream"

	// readRate is the reader's arrival rate (requests/s).
	readRate = 200.0

	// The final published model must label the corpus at this accuracy
	// or better. Online clustering over-segments this workload: over
	// seeds the final model scores 0.6–0.9.
	ingestMinAccuracy = 0.5
)

// replay is one run of the corpus through a fresh daemon.
type replay struct {
	setup, wall time.Duration
	ingests     []outcome // the producer's requests, in order
	batchLens   []int     // sequences per request
	reads       loadResult
	rssMB       float64
	gc          [2]map[string]float64 // cluseqd_go_* before and after
	final       []outcome             // the corpus classified by the final model
}

// corpus is one replay's input: the stream, its pre-marshaled ingest
// batches, the reader's requests, and the final-model classify batches.
type corpus struct {
	db, held    *seq.Database
	batches     [][]byte
	batchSyms   [][][]seq.Symbol
	reads       []request
	finalBodies [][]byte
}

// makeCorpus draws replay r's corpus and held-out reads from the seed.
func makeCorpus(seed uint64, r int) (*corpus, error) {
	all, err := synthetic(subSeed(seed, r), ingestSeqs+ingestHeldOut, ingestLen, ingestAlpha, ingestFamilies)
	if err != nil {
		return nil, err
	}
	c := &corpus{}
	c.db, c.held = split(all, ingestSeqs)
	seqs := strs(c.db)
	for i := 0; i < len(seqs); i += ingestBatch {
		j := min(i+ingestBatch, len(seqs))
		body, err := json.Marshal(server.IngestRequest{Sequences: seqs[i:j]})
		if err != nil {
			return nil, err
		}
		var syms [][]seq.Symbol
		for _, s := range c.db.Sequences[i:j] {
			syms = append(syms, s.Symbols)
		}
		c.batches, c.batchSyms = append(c.batches, body), append(c.batchSyms, syms)
	}
	for i, s := range strs(c.held) {
		body, err := json.Marshal(server.ClassifyRequest{Model: streamModel, Sequence: s})
		if err != nil {
			return nil, err
		}
		c.reads = append(c.reads, request{path: "/v1/classify", body: body, tag: i})
	}
	for i := 0; i < len(seqs); i += batchSize {
		body, err := json.Marshal(server.ClassifyRequest{Model: streamModel, Sequences: seqs[i:min(i+batchSize, len(seqs))]})
		if err != nil {
			return nil, err
		}
		c.finalBodies = append(c.finalBodies, body)
	}
	return c, nil
}

func runIngest(b *bench) error {
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("ingest needs 2 CPUs: its producer and its reader each hold one of at most nproc connections")
	}
	// Each replay streams its own corpus, so a run averages over several
	// planted instances; replay 0's is also replayed in-process below.
	var replays []replay
	var first *corpus
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for r := 0; r < ingestMinReplays || time.Now().Before(deadline); r++ {
		c, err := makeCorpus(b.seed, r)
		if err != nil {
			return err
		}
		if r == 0 {
			first = c
		}
		rp, err := b.replay(c, r)
		if err != nil {
			return err
		}
		replays = append(replays, rp)
	}

	// The reference: replay 0's corpus through an in-process engine of
	// the daemon's configuration. Streams are deterministic, so the
	// daemon's verdicts and final model must match it bit for bit.
	ref, err := referenceReplay(first.db.Alphabet, first.batchSyms)
	if err != nil {
		return err
	}
	if ref.final == nil {
		return fmt.Errorf("reference stream never published a model")
	}

	var setups, rates, late []float64
	var lat [][]float64
	var rss []float64
	for r, rp := range replays {
		setups = append(setups, rp.setup.Seconds())
		rates = append(rates, ingestSeqs/rp.wall.Seconds())
		rss = append(rss, rp.rssMB)
		lat = append(lat, latenciesMS(rp.reads.outs))
		late = append(late, rp.reads.lateness...)
		for i, o := range rp.ingests {
			if r == 0 {
				b.op(verdictsMatch(o, ref.verdicts[i]) == nil)
			} else {
				b.op(verdictsShape(o, rp.batchLens[i]) == nil)
			}
		}
		for _, o := range rp.reads.outs {
			b.op(readOK(o) == nil)
		}
	}
	r0 := replays[0]
	b.check("ingest.verdicts_match_inprocess",
		func() error {
			for i, o := range r0.ingests {
				if err := verdictsMatch(o, ref.verdicts[i]); err != nil {
					return fmt.Errorf("batch %d: %w", i, err)
				}
			}
			return nil
		},
		func() error { return verdictsMatch(r0.ingests[0], corruptVerdict(ref.verdicts[0])) })
	b.check("ingest.verdicts_index_aligned",
		func() error {
			for r, rp := range replays {
				for i, o := range rp.ingests {
					if err := verdictsShape(o, rp.batchLens[i]); err != nil {
						return fmt.Errorf("replay %d batch %d: %w", r, i, err)
					}
				}
			}
			return nil
		},
		func() error { return verdictsShape(r0.ingests[0], r0.batchLens[0]+1) })
	b.check("ingest.reads_ok",
		func() error {
			for _, rp := range replays {
				for _, o := range rp.reads.outs {
					if err := readOK(o); err != nil {
						return err
					}
				}
			}
			return nil
		},
		func() error { return expectStatus(r0.reads.outs[0], 201) })
	finalWant := make([]core.Assignment, first.db.Len())
	for i, s := range first.db.Sequences {
		finalWant[i] = ref.final.Classify(s.Symbols)
	}
	assign, err := finalAssignments(r0.final, finalWant)
	b.check("ingest.final_model_matches_inprocess",
		func() error { return err },
		func() error {
			_, err := finalAssignments(r0.final, corruptFirst(finalWant))
			return err
		})
	truth := labels(first.db)
	b.check("ingest.final_model_accuracy",
		func() error { return accuracyCheck(assign, truth, ingestMinAccuracy) },
		func() error { return accuracyCheck(assign, rotated(truth), ingestMinAccuracy) })
	lateP99 := quantile(late, 0.99)
	b.check("ingest.generator_on_time",
		func() error { return latenessCheck(lateP99, latenessLimitMS) },
		func() error { return latenessCheck(lateP99, 0) })
	if count(lat) == 0 {
		return fmt.Errorf("no reads were sent")
	}

	b.report("setup_s", "s", median(setups), len(setups))
	b.report("throughput_per_s", "1/s", median(rates), len(rates))
	b.report("latency_p50_ms", "ms", windowed(lat, 0.5), count(lat))
	readP99 := windowed(lat, 0.99)
	b.report("peak_mem_mb", "MB", median(rss), len(rss))
	b.report("ok_frac", "fraction", float64(b.attempted-b.failed)/float64(b.attempted), int(b.attempted))
	b.notef("ingest: %d replays of %d sequences, %d reads at %.0f/s during writes, read p99 %.3f ms (median over replays; not gated), generator lateness p99 %.3f ms; replay 0: %d consolidations, %d clusters at the end",
		len(replays), ingestSeqs, count(lat), readRate, readP99, lateP99, ref.consolidations, ref.clusters)

	if !b.traced {
		return nil
	}
	b.layer("bench.gen_lateness_p99_ms", "ms", lateP99)
	b.layer("bench.latency_p99_ms", "ms", readP99)
	// Replay 1 is traced; its spans are recorded from the timestamps
	// every replay takes anyway, so the overhead compares it with the
	// untraced replays.
	var untraced []float64
	for r, rp := range replays {
		if r != 1 {
			untraced = append(untraced, rp.wall.Seconds())
		}
	}
	b.layer("bench.trace_overhead_frac", "fraction", replays[1].wall.Seconds()/median(untraced)-1)
	b.layer("unattributed_frac", "fraction", b.tr.unattributedIn("bench.replay", "bench.replay", "bench.ingest_request"))
	b.layer("stream.ingest_us_p50", "us", quantile(ref.plainUS, 0.5))
	b.layer("stream.ingest_us_p99", "us", quantile(ref.plainUS, 0.99))
	b.layer("stream.consolidate_ms", "ms", median(ref.consolidateMS))
	b.layer("stream.consolidations", "count", float64(ref.consolidations))
	b.layer("stream.clusters", "count", float64(ref.clusters))
	var httpPlain []float64
	for i, o := range r0.ingests {
		if !ref.consolidated[i] {
			httpPlain = append(httpPlain, us(o.done.Sub(o.sent)))
		}
	}
	b.layer("stream.http_overhead_us", "us", median(httpPlain)-median(ref.plainUS))
	b.layer("gc.cycles", "count", r0.gc[1]["cluseqd_go_gc_cycles"]-r0.gc[0]["cluseqd_go_gc_cycles"])
	b.layer("gc.pause_ms", "ms", 1000*r0.gc[1]["cluseqd_go_gc_pause_p99_seconds"])
	b.layer("gc.cpu_frac", "fraction", ref.gcCPU)
	acc, err := accuracy(assign, truth)
	if err != nil {
		return err
	}
	b.layer("quality.accuracy", "fraction", acc)
	m, err := newMix(b.seed, ref.final, strs(first.held), streamModel)
	if err != nil {
		return err
	}
	if _, err := b.probeLayers(ref.final, first.db, m); err != nil {
		return err
	}
	b.layer("net.overhead_us", "us", 1000*windowed(lat, 0.5)-b.layers["server.handler_us"].Value)
	return nil
}

// replay runs the corpus once through a fresh daemon: the producer
// sends batches back to back on one connection while the reader's
// open-loop schedule runs on the others from the first publish until
// the producer is done. Then the final model classifies the corpus.
func (b *bench) replay(c *corpus, r int) (replay, error) {
	var rp replay
	for _, syms := range c.batchSyms {
		rp.batchLens = append(rp.batchLens, len(syms))
	}
	models := filepath.Join(b.work, fmt.Sprintf("ingest-models-%d", r))
	if err := os.MkdirAll(models, 0o755); err != nil {
		return rp, err
	}
	start := time.Now()
	d, err := b.startDaemon("/healthz", "-models", models, "-stream", "-stream-alphabet", c.db.Alphabet.String(),
		"-stream-consolidate", strconv.Itoa(ingestConsolidate))
	if err != nil {
		return rp, err
	}
	defer d.kill()
	rp.setup = time.Since(start)
	if rp.gc[0], err = d.gauges("cluseqd_go_"); err != nil {
		return rp, err
	}

	clients := newClients(runtime.NumCPU())
	defer closeClients(clients)
	producer, readers := clients[0], clients[1:]
	// The reader's schedule: Poisson arrivals for longer than any replay,
	// cut short when the producer finishes.
	rng := newRand(b.seed, uint64(r)+10)
	offs := poisson(rng, readRate, time.Minute)
	sched := make([]request, len(offs))
	for i, off := range offs {
		sched[i] = c.reads[rng.IntN(len(c.reads))]
		sched[i].due = off
	}
	published, done := make(chan struct{}), make(chan struct{})
	readRes := make(chan loadResult, 1)
	go func() {
		select {
		case <-published:
			readRes <- openLoop(d.url, readers, sched, 0, done)
		case <-done:
			readRes <- loadResult{}
		}
	}()
	firstPublish := (ingestConsolidate + ingestBatch - 1) / ingestBatch // batches until the first consolidation
	t0 := time.Now()
	for i, body := range c.batches {
		o := send(producer, d.url, request{path: "/v1/ingest", body: body}, time.Now())
		rp.ingests = append(rp.ingests, o)
		if i+1 == firstPublish {
			close(published)
		}
	}
	rp.wall = time.Since(t0)
	close(done)
	rp.reads = <-readRes

	if b.traced && r == 1 {
		id := b.tr.add("bench.replay", 0, t0, t0.Add(rp.wall))
		for _, o := range rp.ingests {
			rid := b.tr.add("bench.ingest_request", id, o.sent, o.done)
			var resp server.IngestResponse
			if json.Unmarshal(o.body, &resp) == nil {
				el := time.Duration(resp.ElapsedMs * float64(time.Millisecond))
				mid := o.sent.Add(o.done.Sub(o.sent) / 2)
				b.tr.add("server.ingest", rid, mid.Add(-el/2), mid.Add(el/2))
			}
		}
		for _, o := range rp.reads.outs {
			b.tr.add("bench.read", 0, o.due, o.done)
		}
	}
	for _, body := range c.finalBodies {
		rp.final = append(rp.final, send(producer, d.url, request{path: "/v1/classify", body: body}, time.Now()))
	}
	if rp.gc[1], err = d.gauges("cluseqd_go_"); err != nil {
		return rp, err
	}
	if rp.rssMB, err = peakRSSMB(d.pid()); err != nil {
		return rp, err
	}
	closeClients(clients)
	return rp, d.stop()
}

// reference is the in-process replay of the corpus.
type reference struct {
	verdicts       [][]stream.Verdict
	consolidated   []bool    // per batch: did it trigger a consolidation
	plainUS        []float64 // IngestBatch time of batches that did not
	consolidateMS  []float64 // IngestBatch time of batches that did
	consolidations int64
	clusters       int
	final          *core.Classifier
	gcCPU          float64
}

// referenceReplay runs the corpus through an in-process engine
// configured as cluseqd -stream configures it for this workload.
func referenceReplay(alpha *seq.Alphabet, batches [][][]seq.Symbol) (reference, error) {
	var ref reference
	eng, err := stream.New(stream.Config{
		Alphabet:         alpha,
		ConsolidateEvery: ingestConsolidate,
		Publish:          func(c *core.Classifier, _ uint64) { ref.final = c },
	})
	if err != nil {
		return ref, err
	}
	defer eng.Close()
	runtime.GC() // brings runtime/metrics' CPU classes up to date
	g0 := readGC()
	for _, batch := range batches {
		before := eng.Stats().Consolidations
		start := time.Now()
		v := eng.IngestBatch(batch)
		el := time.Since(start)
		ref.verdicts = append(ref.verdicts, v)
		cons := eng.Stats().Consolidations != before
		ref.consolidated = append(ref.consolidated, cons)
		if cons {
			ref.consolidateMS = append(ref.consolidateMS, ms(el))
		} else {
			ref.plainUS = append(ref.plainUS, us(el))
		}
	}
	runtime.GC()
	_, _, ref.gcCPU = gcDelta(g0, readGC())
	st := eng.Stats()
	ref.consolidations, ref.clusters = st.Consolidations, st.Clusters
	return ref, nil
}

// verdictsMatch compares an ingest response with the in-process
// verdicts, index by index and bit for bit.
func verdictsMatch(o outcome, want []stream.Verdict) error {
	if err := expectStatus(o, 200); err != nil {
		return err
	}
	var resp server.IngestResponse
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return fmt.Errorf("decode ingest response: %w", err)
	}
	if len(resp.Results) != len(want) {
		return fmt.Errorf("%d verdicts for %d sequences", len(resp.Results), len(want))
	}
	for i, v := range resp.Results {
		if v != want[i] {
			return fmt.Errorf("verdict %d = %+v, in-process %+v", i, v, want[i])
		}
	}
	return nil
}

// verdictsShape requires a 200 with one valid verdict per sequence.
func verdictsShape(o outcome, n int) error {
	if err := expectStatus(o, 200); err != nil {
		return err
	}
	var resp server.IngestResponse
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return fmt.Errorf("decode ingest response: %w", err)
	}
	if len(resp.Results) != n {
		return fmt.Errorf("%d verdicts for %d sequences", len(resp.Results), n)
	}
	for i, v := range resp.Results {
		switch v.Status {
		case stream.StatusAccepted, stream.StatusNewCluster:
		default:
			return fmt.Errorf("verdict %d = %+v", i, v)
		}
	}
	return nil
}

func corruptVerdict(want []stream.Verdict) []stream.Verdict {
	c := append([]stream.Verdict(nil), want...)
	c[0].Cluster++
	return c
}

func expectStatus(o outcome, status int) error {
	if o.err != nil {
		return o.err
	}
	if o.status != status {
		return fmt.Errorf("status %d, want %d: %s", o.status, status, o.body)
	}
	return nil
}

// readOK requires a 200 with one well-formed result.
func readOK(o outcome) error {
	if err := expectStatus(o, 200); err != nil {
		return err
	}
	var resp server.ClassifyResponse
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return fmt.Errorf("decode read: %w", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Error != "" {
		return fmt.Errorf("read answered %+v", resp.Results)
	}
	return nil
}

// finalAssignments checks the daemon's classification of the corpus by
// its final model against the in-process final model, and returns the
// assignments.
func finalAssignments(outs []outcome, want []core.Assignment) ([]int, error) {
	var assign []int
	for i, o := range outs {
		if err := expectStatus(o, 200); err != nil {
			return nil, err
		}
		lo := i * batchSize
		hi := min(lo+batchSize, len(want))
		if err := checkResponse(o.body, want[lo:hi]); err != nil {
			return nil, fmt.Errorf("final model, batch %d: %w", i, err)
		}
		for _, a := range want[lo:hi] {
			assign = append(assign, a.Cluster)
		}
	}
	if len(assign) != len(want) {
		return nil, fmt.Errorf("final model classified %d of %d sequences", len(assign), len(want))
	}
	return assign, nil
}

func accuracyCheck(assign []int, truth []string, minAcc float64) error {
	acc, err := accuracy(assign, truth)
	if err != nil {
		return err
	}
	if acc < minAcc {
		return fmt.Errorf("accuracy %.4f below %.2f", acc, minAcc)
	}
	return nil
}
