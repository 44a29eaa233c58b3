// Command perfbench is the repository benchmark. It drives the three
// end-to-end paths of CLUSEQ with seeded workloads — batch training
// through internal/core (train), open-loop classification against a
// cluseqd child process (serve), and streaming ingest with concurrent
// classify reads (ingest) — checks every output it can, and prints the
// end-to-end metrics, or with -trace 1 the per-layer ledger, as the last
// line of standard output. See README.md for the workloads, the metric
// map and the predictions each metric supports.
//
// Run it through run.sh, which builds the daemon and this program first:
//
//	bash perfbench/run.sh --workload train --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run: its arguments, the scratch space it owns,
// the tracer (nil with -trace 0), and what it has measured and checked.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool

	root      string // checkout root (holds go.mod of module cluseq)
	work      string // per-run scratch directory, removed at exit
	traceDir  string // where the traced run writes its spans
	daemonBin string

	tr *tracer

	attempted, failed int64
	checks            []checkResult
	e2e               map[string]sample
	layers            map[string]metric
	notes             []string
	daemonFlags       [][]string
}

// sample is an end-to-end metric with the number of observations behind it.
type sample struct {
	metric
	n int
}

func (b *bench) report(name, unit string, v float64, n int) {
	b.e2e[name] = sample{metric{v, unit}, n}
}

func (b *bench) layer(name, unit string, v float64) {
	b.layers[name] = metric{v, unit}
}

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation, failed when ok is false.
func (b *bench) op(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "train, serve or ingest")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", 45, "measurement time budget of the run")
		trace    = flag.Int("trace", 0, "1 reports the per-layer ledger from a traced run instead of the end-to-end metrics")
		root     = flag.String("root", "", "checkout root")
		build    = flag.String("build", "", "build directory holding bin/cluseqd")
	)
	flag.Parse()
	if *root == "" || *build == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: run.sh --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	workloads := map[string]func(*bench) error{"train": runTrain, "serve": runServe, "ingest": runIngest}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want train, serve or ingest)\n", *workload)
		return 2
	}
	b := &bench{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		traced:    *trace == 1,
		root:      *root,
		traceDir:  filepath.Join(*build, "traces"),
		daemonBin: filepath.Join(*build, "bin", "cluseqd"),
		e2e:       map[string]sample{},
		layers:    map[string]metric{},
	}
	work, err := os.MkdirTemp(filepath.Join(*build, "tmp"), "run-"+b.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	b.work = work
	if b.traced {
		b.tr = newTracer(fmt.Sprintf("%s-%d-%x", b.workload, b.seed, time.Now().UnixNano()))
	}

	prov := provenance(b)
	total0, steal0 := cpuTicks()
	if err := fn(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.traced {
		path, err := b.tr.write(b.traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		b.notef("spans of run %s written to %s", b.tr.runID, path)
	}
	prov["daemon_flags"] = b.daemonFlags
	if total1, steal1 := cpuTicks(); total1 > total0 {
		// CPU time the hypervisor gave other guests during the run: a
		// high share means neighbours, not the code, set the numbers.
		prov["host_steal_frac"] = (steal1 - steal0) / (total1 - total0)
	}
	return b.print(prov)
}

// print writes the human-readable report, the provenance line and the
// result line, and returns the exit code: 0 when every check and every
// negative control behaved, 1 otherwise.
func (b *bench) print(prov map[string]any) int {
	correct := true
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", b.workload, b.seed, b.seconds, b.traced)
	fmt.Println("checks (each with a negative control that must trip it):")
	for _, c := range b.checks {
		status := "ok"
		if c.err != nil {
			status = "FAIL: " + c.err.Error()
			correct = false
		}
		ctrl := "tripped"
		if c.control == nil {
			ctrl = "DID NOT TRIP"
			correct = false
		}
		fmt.Printf("  %-28s %s; control %s", c.name, status, ctrl)
		if c.control != nil {
			fmt.Printf(" (%v)", c.control)
		}
		fmt.Println()
	}
	if b.failed > 0 {
		correct = false
	}
	out := result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if b.traced {
		var absent []string
		for _, l := range perLayer {
			if _, ok := b.layers[l.name]; !ok {
				b.layer(l.name, l.unit, 0)
				absent = append(absent, l.name)
			}
		}
		if len(absent) > 0 {
			b.notef("not on the %s path (reported as 0): %s", b.workload, strings.Join(absent, ", "))
		}
		fmt.Println("per-layer metrics:")
		for _, name := range sortedKeys(b.layers) {
			m := b.layers[name]
			fmt.Printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
			out.Metrics[name] = m
		}
	} else {
		fmt.Println("end-to-end metrics:")
		for _, name := range sortedKeys(b.e2e) {
			s := b.e2e[name]
			fmt.Printf("  %-18s %14.6g %-8s n=%d\n", name, s.Value, s.Unit, s.n)
			out.Metrics[name] = s.metric
		}
	}
	for _, n := range b.notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("operations: attempted=%d failed=%d\n", b.attempted, b.failed)
	if p, err := json.Marshal(map[string]any{"provenance": prov}); err == nil {
		fmt.Println(string(p))
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
