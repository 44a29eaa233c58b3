package main

import (
	"fmt"
	"math"
	rtm "runtime/metrics"

	"cluseq/internal/datagen"
	"cluseq/internal/eval"
	"cluseq/internal/seq"
)

// Every workload draws its data from datagen.SyntheticDB: planted
// short-memory families plus memoryless outliers, labelled, so
// accuracy can be checked against the planted truth.
const outlierFrac = 0.05

// subSeed derives the i-th data seed of a run from the workload seed
// (never zero, which SyntheticDB would replace by its default).
func subSeed(seed uint64, i int) uint64 { return seed*1_000_003 + uint64(i) + 1 }

// synthetic draws n sequences of mean length avg over alpha symbols
// from families planted sources, 5% outliers, shuffled.
func synthetic(seed uint64, n, avg, alpha, families int) (*seq.Database, error) {
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: n, AvgLength: avg, AlphabetSize: alpha,
		NumClusters: families, OutlierFrac: outlierFrac, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate data: %w", err)
	}
	return db, nil
}

// split returns the first n sequences and the rest as two databases
// over the same alphabet (SyntheticDB has already shuffled them).
func split(db *seq.Database, n int) (*seq.Database, *seq.Database) {
	a, b := seq.NewDatabase(db.Alphabet), seq.NewDatabase(db.Alphabet)
	a.Sequences = db.Sequences[:n]
	b.Sequences = db.Sequences[n:]
	return a, b
}

func labels(db *seq.Database) []string {
	out := make([]string, db.Len())
	for i, s := range db.Sequences {
		out[i] = s.Label
	}
	return out
}

func strs(db *seq.Database) []string {
	out := make([]string, db.Len())
	for i, s := range db.Sequences {
		out[i] = db.Alphabet.Decode(s.Symbols)
	}
	return out
}

// accuracy is the Hungarian-matched accuracy of per-sequence cluster
// assignments (−1 = outlier) against the planted labels.
func accuracy(assign []int, truth []string) (float64, error) {
	rep, err := eval.Evaluate(eval.FromAssignments(assign), truth)
	if err != nil {
		return 0, fmt.Errorf("evaluate: %w", err)
	}
	return rep.Accuracy, nil
}

// rotated returns the labels shifted by one position: the corrupted
// truth the accuracy checks' negative controls score against.
func rotated(truth []string) []string {
	return append(append([]string(nil), truth[1:]...), truth[0])
}

// gcStats is a reading of this process's GC counters.
type gcStats struct {
	cycles      uint64
	gcCPU, cpu  float64
	pauseCounts []uint64
	pauseEdges  []float64
}

func readGC() gcStats {
	s := []rtm.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/pauses:seconds"},
	}
	rtm.Read(s)
	h := s[3].Value.Float64Histogram()
	return gcStats{
		cycles:      s[0].Value.Uint64(),
		gcCPU:       s[1].Value.Float64(),
		cpu:         s[2].Value.Float64(),
		pauseCounts: append([]uint64(nil), h.Counts...),
		pauseEdges:  h.Buckets,
	}
}

// gcDelta reports GC cycles, p99 stop-the-world pause (ms, upper bucket
// edge) and GC's share of CPU time between two readings.
func gcDelta(a, b gcStats) (cycles, pauseP99ms, cpuFrac float64) {
	cycles = float64(b.cycles - a.cycles)
	if b.cpu > a.cpu {
		cpuFrac = (b.gcCPU - a.gcCPU) / (b.cpu - a.cpu)
	}
	var total uint64
	d := make([]uint64, len(b.pauseCounts))
	for i := range d {
		d[i] = b.pauseCounts[i] - a.pauseCounts[i]
		total += d[i]
	}
	if total == 0 {
		return cycles, 0, cpuFrac
	}
	target := (total*99 + 99) / 100
	var cum uint64
	for i, c := range d {
		cum += c
		if cum >= target {
			edge := b.pauseEdges[i+1]
			if math.IsInf(edge, 1) {
				edge = b.pauseEdges[i]
			}
			return cycles, edge * 1000, cpuFrac
		}
	}
	return cycles, 0, cpuFrac
}
