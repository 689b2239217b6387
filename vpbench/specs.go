package main

import (
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/pipeline"
)

// The simulation window of every spec: the BENCH records' 20k warmup plus
// 80k measured µops.
const (
	warmup    = 20_000
	measure   = 80_000
	simWindow = warmup + measure
)

// programsPerFamily is how many generated programs each isa.Generate family
// adds to the spec set. The seed picks them, so a held-out seed runs the same
// builtin matrix over programs nobody tuned against. One per family keeps
// the seed-dependent share of the work (3 of 22 workloads) small enough
// that seeds compare within the metrics' bounds.
const programsPerFamily = 1

// predictors is the Fig. 4 predictor set; every workload is crossed with
// the baseline machine plus each of these under both counter schemes.
var predictors = []string{"lvp", "stride", "fcm", "vtage"}

// splitmix64 derives every seeded choice the benchmark makes: generated
// program seeds and request orders. It is the benchmark's own copy so that a
// change inside the program cannot alter the inputs it is measured on.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// stream returns an independent generator for one named use of the seed.
func stream(seed uint64, ids ...uint64) *splitmix64 {
	r := &splitmix64{s: seed}
	for _, id := range ids {
		r.s ^= id * 0xd1342543de82ef95
		r.next()
	}
	return r
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(n int, r *splitmix64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// baselinesFirst is a seeded order of the spec set in which every baseline
// ("none") spec precedes the predictor specs, each group shuffled. On a
// fresh runner every request then simulates exactly one spec, so a
// request's latency depends on its spec and not on whether an earlier
// request happened to simulate its baseline.
func baselinesFirst(specs []harness.Spec, r *splitmix64) []int {
	var base, rest []int
	for i, sp := range specs {
		if sp.Predictor == "none" {
			base = append(base, i)
		} else {
			rest = append(rest, i)
		}
	}
	var out []int
	for _, group := range [][]int{base, rest} {
		for _, j := range shuffled(len(group), r) {
			out = append(out, group[j])
		}
	}
	return out
}

// Streams of the seed, one per kind of choice.
const (
	streamPrograms = iota + 1
	streamColdOrder
	streamWarmOrder
	streamFleetOrder
)

// workloadSet is the input of every workload: generated programs and the
// deduplicated spec set over the builtin kernels and those programs.
type workloadSet struct {
	programs []*isa.Program
	specs    []harness.Spec // canonical and deduplicated, Fig. 4 matrix first
	genTimes []time.Duration
}

// programs resolves a spec's workload to its program: a builtin kernel or
// one of the generated programs.
func (w *workloadSet) program(workload string) (*isa.Program, error) {
	for _, p := range w.programs {
		if harness.ProgramID(p) == workload {
			return p, nil
		}
	}
	if k, ok := kernels.ByName(workload); ok {
		return k.Build(), nil
	}
	return nil, fmt.Errorf("vpbench: no program for workload %q", workload)
}

// matrix is the Fig. 4 spec shape for one workload: the baseline machine
// plus each predictor under both counter schemes, squash-at-commit recovery.
func matrix(workload string) []harness.Spec {
	out := []harness.Spec{{Kernel: workload, Predictor: "none"}}
	for _, c := range []harness.Counters{harness.BaselineCounters, harness.FPC} {
		for _, p := range predictors {
			out = append(out, harness.Spec{Kernel: workload, Predictor: p, Counters: c, Recovery: pipeline.SquashAtCommit})
		}
	}
	return out
}

// newWorkloadSet generates the seed's programs and builds the spec set.
func newWorkloadSet(seed uint64) (*workloadSet, error) {
	w := &workloadSet{}
	r := stream(seed, streamPrograms)
	for _, fam := range isa.Families() {
		for i := 0; i < programsPerFamily; i++ {
			t0 := time.Now()
			p, err := isa.Generate(fam, r.next())
			w.genTimes = append(w.genTimes, time.Since(t0))
			if err != nil {
				return nil, err
			}
			w.programs = append(w.programs, p)
		}
	}
	specs := harness.Fig4Specs()
	for _, p := range w.programs {
		specs = append(specs, matrix(harness.ProgramID(p))...)
	}
	for i := range specs {
		specs[i] = specs[i].Canonical()
	}
	w.specs = harness.DedupSpecs(specs)
	return w, nil
}
