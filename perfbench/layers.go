package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cluseq/internal/core"
	"cluseq/internal/pool"
	"cluseq/internal/pst"
	"cluseq/internal/registry"
	"cluseq/internal/seq"
	"cluseq/internal/server"
)

// perLayer lists every per-layer metric a traced run reports, in the
// order of BENCHMARK.json. A metric of a layer the workload's path does
// not cross (no network in train, no stream engine in serve) reads 0:
// that layer did no work.
var perLayer = []struct{ name, unit string }{
	{"server.handler_us", "us"},
	{"server.allocs_per_req", "count"},
	{"server.json_us", "us"},
	{"net.overhead_us", "us"},
	{"registry.get_ns", "ns"},
	{"registry.publish_us", "us"},
	{"pool.overhead_us_b1", "us"},
	{"pool.overhead_us_b16", "us"},
	{"core.classify_us_per_seq", "us"},
	{"core.generate_s", "s"},
	{"core.score_s", "s"},
	{"core.apply_s", "s"},
	{"core.consolidate_s", "s"},
	{"core.threshold_s", "s"},
	{"core.iterations", "count"},
	{"core.cache_hit_frac", "fraction"},
	{"core.snapshot_compiles", "count"},
	{"core.snapshot_compile_s", "s"},
	{"core.alloc_mb", "MB"},
	{"pst.insert_us_per_ksym", "us"},
	{"pst.compile_us_per_knode", "us"},
	{"pst.clone_us_per_knode", "us"},
	{"pst.nodes", "count"},
	{"pst.scan_us_per_ksym", "us"},
	{"pst.fastscan_us_per_ksym", "us"},
	{"stream.ingest_us_p50", "us"},
	{"stream.ingest_us_p99", "us"},
	{"stream.consolidate_ms", "ms"},
	{"stream.consolidations", "count"},
	{"stream.clusters", "count"},
	{"stream.http_overhead_us", "us"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"gc.cpu_frac", "fraction"},
	{"quality.accuracy", "fraction"},
	{"bench.latency_p99_ms", "ms"},
	{"bench.gen_lateness_p99_ms", "ms"},
	{"unattributed_frac", "fraction"},
	{"bench.trace_overhead_frac", "fraction"},
}

// mix is a classify request mix: pre-marshaled bodies of one sequence
// (the first nSingle) or a batch of 16, each with the answer
// core.Classifier gives in-process for every sequence it carries.
type mix struct {
	model   string
	bodies  [][]byte
	seqs    [][]string
	want    [][]core.Assignment
	nSingle int
}

const (
	batchSize  = 16
	batchShare = 0.2
)

func newMix(seed uint64, clf *core.Classifier, held []string, model string) (*mix, error) {
	m := &mix{model: model, nSingle: len(held)}
	add := func(group []string) error {
		req := server.ClassifyRequest{Model: model}
		if len(group) == 1 {
			req.Sequence = group[0]
		} else {
			req.Sequences = group
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		want := make([]core.Assignment, len(group))
		for i, s := range group {
			if want[i], err = clf.ClassifyString(s); err != nil {
				return fmt.Errorf("in-process classify: %w", err)
			}
		}
		m.bodies, m.seqs, m.want = append(m.bodies, body), append(m.seqs, group), append(m.want, want)
		return nil
	}
	for _, s := range held {
		if err := add([]string{s}); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xba7c4))
	for i := 0; i < len(held)/batchSize; i++ {
		group := make([]string, batchSize)
		for j := range group {
			group[j] = held[rng.IntN(len(held))]
		}
		if err := add(group); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// pick draws a request of the mix: a batch with probability batchShare.
func (m *mix) pick(rng *rand.Rand) int {
	if rng.Float64() < batchShare {
		return m.nSingle + rng.IntN(len(m.bodies)-m.nSingle)
	}
	return rng.IntN(m.nSingle)
}

// checkResponse compares a classify response with the in-process
// answers, bit for bit and index by index.
func checkResponse(body []byte, want []core.Assignment) error {
	var resp server.ClassifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if len(resp.Results) != len(want) {
		return fmt.Errorf("%d results for %d sequences", len(resp.Results), len(want))
	}
	for i, r := range resp.Results {
		w := want[i]
		if r.Error != "" || r.Cluster != w.Cluster || r.Outlier != (w.Cluster == -1) ||
			r.Similarity != w.Similarity || !equalInts(r.Memberships, w.Memberships) {
			return fmt.Errorf("result %d = %+v, in-process %+v", i, r, w)
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// corruptFirst returns want with its first answer's cluster changed: the
// negative control of the response checks.
func corruptFirst(want []core.Assignment) []core.Assignment {
	c := append([]core.Assignment(nil), want...)
	c[0].Cluster = c[0].Cluster + 1
	return c
}

// probeLayers times calls into each module's public functions on this
// workload's model (clf, which must carry its trees), corpus and
// request mix, and reports their unit costs. It returns GC's share of
// CPU time while the in-process handler ran.
func (b *bench) probeLayers(clf *core.Classifier, corpus *seq.Database, m *mix) (handlerGC float64, err error) {
	const budget = 150 * time.Millisecond
	alpha := clf.Alphabet()
	enc := func(s string) []seq.Symbol {
		syms, _ := alpha.Encode(s)
		return syms
	}
	var singles [][]seq.Symbol
	ksym := 0.0
	for i := 0; i < m.nSingle; i++ {
		syms := enc(m.seqs[i][0])
		singles = append(singles, syms)
		ksym += float64(len(syms)) / 1000
	}

	// core: one sequence against every cluster.
	per := timeEach(len(singles), budget, func(i int) { clf.Classify(singles[i%len(singles)]) })
	b.layer("core.classify_us_per_seq", "us", median(per))

	// pst: scans, insert, compile and clone on the model's trees.
	trees, bg := clf.Trees(), clf.Background()
	nodes := 0
	for _, t := range trees {
		nodes += t.NumNodes()
	}
	knodes := float64(nodes) / 1000
	b.layer("pst.nodes", "count", float64(nodes))
	compile := timeEach(3, 0, func(int) {
		for _, t := range trees {
			t.CompileSnapshot(bg)
		}
	})
	b.layer("pst.compile_us_per_knode", "us", median(compile)/knodes)
	clone := timeEach(3, 0, func(int) {
		for _, t := range trees {
			t.Clone()
		}
	})
	b.layer("pst.clone_us_per_knode", "us", median(clone)/knodes)
	scanAll := func(score func(ti int, syms []seq.Symbol)) float64 {
		runs := timeEach(3, 0, func(int) {
			for ti := range trees {
				for _, syms := range singles {
					score(ti, syms)
				}
			}
		})
		return median(runs) / (ksym * float64(len(trees)))
	}
	snaps := make([]*pst.Snapshot, len(trees))
	for i, t := range trees {
		snaps[i] = t.CompileSnapshot(bg)
	}
	b.layer("pst.scan_us_per_ksym", "us", scanAll(func(ti int, syms []seq.Symbol) { snaps[ti].Similarity(syms) }))
	b.layer("pst.fastscan_us_per_ksym", "us", scanAll(func(ti int, syms []seq.Symbol) { trees[ti].SimilarityFast(syms, bg) }))
	insertSeqs := corpus.Sequences[:min(200, corpus.Len())]
	insKsym := 0.0
	for _, s := range insertSeqs {
		insKsym += float64(s.Len()) / 1000
	}
	cfg := trees[0].Config()
	if _, err := pst.New(cfg); err != nil {
		return 0, fmt.Errorf("insert probe: %w", err)
	}
	insert := timeEach(3, 0, func(int) {
		t, _ := pst.New(cfg) // cfg was accepted just above
		for _, s := range insertSeqs {
			t.Insert(s.Symbols)
		}
	})
	b.layer("pst.insert_us_per_ksym", "us", median(insert)/insKsym)

	// registry: snapshot reads and publishes.
	dir := filepath.Join(b.work, "probe-models")
	for _, d := range []string{dir, filepath.Join(b.work, "probe-empty")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return 0, err
		}
	}
	var bundle bytes.Buffer
	if err := clf.SaveBundle(&bundle, core.BundleOptions{}); err != nil {
		return 0, fmt.Errorf("save bundle: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, m.model+registry.Ext), bundle.Bytes(), 0o644); err != nil {
		return 0, err
	}
	reg, _, err := registry.OpenWith(dir, registry.Options{Mmap: true})
	if err != nil {
		return 0, fmt.Errorf("open registry: %w", err)
	}
	const gets = 200_000
	getRuns := timeEach(3, 0, func(int) {
		for i := 0; i < gets; i++ {
			reg.Get(m.model)
		}
	})
	b.layer("registry.get_ns", "ns", median(getRuns)*1000/gets)
	pubReg, _, err := registry.OpenWith(filepath.Join(b.work, "probe-empty"), registry.Options{})
	if err != nil {
		return 0, fmt.Errorf("open publish registry: %w", err)
	}
	if err := pubReg.Publish("published", clf, 1); err != nil {
		return 0, fmt.Errorf("publish probe: %w", err)
	}
	pub := timeEach(200, 0, func(i int) { pubReg.Publish("published", clf, uint64(i+2)) })
	b.layer("registry.publish_us", "us", median(pub))

	// pool: the shared fan-out against a serial loop, batch 1 and 16.
	p := pool.New(runtime.GOMAXPROCS(0) - 1)
	for _, n := range []int{1, batchSize} {
		batch := singles[:n]
		par := timeEach(200, budget/2, func(int) { p.Run(n, func(i int) { clf.Classify(batch[i]) }) })
		ser := timeEach(200, budget/2, func(int) {
			for i := 0; i < n; i++ {
				clf.Classify(batch[i])
			}
		})
		b.layer(fmt.Sprintf("pool.overhead_us_b%d", n), "us", median(par)-median(ser))
	}

	// server: the in-process handler on the request mix, and its JSON.
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		return 0, err
	}
	h := srv.Handler()
	rng := rand.New(rand.NewPCG(b.seed, 0x5e7e))
	var picks []int
	for i := 0; i < 2000; i++ {
		picks = append(picks, m.pick(rng))
	}
	var bad error
	serveOne := func(i int) {
		k := picks[i%len(picks)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(m.bodies[k])))
		if rec.Code != http.StatusOK && bad == nil {
			bad = fmt.Errorf("in-process handler answered %d: %s", rec.Code, rec.Body.String())
		}
	}
	// runtime/metrics refreshes its CPU classes at GC; a forced
	// collection on each side brings them up to date.
	runtime.GC()
	g0 := readGC()
	handler := timeEach(len(picks), 0, serveOne)
	runtime.GC()
	g1 := readGC()
	if bad != nil {
		return 0, bad
	}
	b.layer("server.handler_us", "us", median(handler))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range picks {
		serveOne(i)
	}
	runtime.ReadMemStats(&m1)
	b.layer("server.allocs_per_req", "count", float64(m1.Mallocs-m0.Mallocs)/float64(len(picks)))
	resps := make([]server.ClassifyResponse, len(m.bodies))
	for k, want := range m.want {
		resps[k] = server.ClassifyResponse{Model: m.model, Results: make([]server.ClassifyResult, len(want))}
		for i, a := range want {
			resps[k].Results[i] = server.ClassifyResult{Cluster: a.Cluster, Outlier: a.Cluster == -1, Similarity: a.Similarity, Memberships: a.Memberships}
		}
	}
	jsonRuns := timeEach(len(picks), 0, func(i int) {
		k := picks[i%len(picks)]
		var req server.ClassifyRequest
		json.NewDecoder(bytes.NewReader(m.bodies[k])).Decode(&req)
		var out bytes.Buffer
		json.NewEncoder(&out).Encode(resps[k])
	})
	b.layer("server.json_us", "us", median(jsonRuns))
	_, _, handlerGC = gcDelta(g0, g1)
	return handlerGC, nil
}
