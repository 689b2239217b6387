package pipeline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/ghist"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// oracleInput is one workload the byte-identity oracles run over: the two
// builtin kernels with the most distinct idle profiles (mcf memory-bound,
// gzip branchy) plus one seeded generator program per isa.Generate family.
// Branchy programs stress history rollback; memory programs stress the
// store-set LFST on every memory-order squash.
type oracleInput struct {
	name string
	prog *isa.Program
}

func oracleInputs(t *testing.T) []oracleInput {
	t.Helper()
	var in []oracleInput
	for _, name := range []string{"mcf", "gzip"} {
		k, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("unknown kernel %q", name)
		}
		in = append(in, oracleInput{name, k.Build()})
	}
	for _, fam := range isa.Families() {
		p, err := isa.Generate(fam, 1)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, oracleInput{"gen:" + fam + "-1", p})
	}
	return in
}

// sortedPredictors returns snapPredictors' names in stable order.
func sortedPredictors() []string {
	var names []string
	for name := range snapPredictors() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Golden windows: fixed, independent of -short, so the file pins one
// exact machine trajectory per configuration.
const goldenWarmup, goldenMeasure = 8_000, 32_000

// renderStatsGolden simulates every oracle input × predictor family × both
// recovery modes on the fast loop and renders one line per configuration:
// the full Stats and an FNV-64a hash over the commit stream, where each
// commit contributes its sequence number and its commit cycle. The hash
// pins per-µop timing, not just the end-of-window totals.
func renderStatsGolden(t *testing.T) []byte {
	var buf bytes.Buffer
	preds := snapPredictors()
	for _, in := range oracleInputs(t) {
		tr := emu.Trace(in.prog, goldenWarmup+goldenMeasure)
		for _, name := range sortedPredictors() {
			mk := preds[name]
			for _, rec := range []RecoveryMode{SquashAtCommit, SelectiveReissue} {
				cfg := DefaultConfig()
				cfg.Recovery = rec
				h := &ghist.History{}
				var p core.Predictor
				if mk != nil {
					p = mk(h)
				}
				s := New(cfg, tr, p, h)
				hash := fnv.New64a()
				var rec16 [16]byte
				s.OnCommit = func(di *isa.DynInst) {
					binary.LittleEndian.PutUint64(rec16[:8], di.Seq)
					binary.LittleEndian.PutUint64(rec16[8:], uint64(s.cycle))
					hash.Write(rec16[:])
				}
				st, err := s.Run(goldenWarmup, goldenMeasure)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", in.name, name, rec, err)
				}
				fmt.Fprintf(&buf, "%s %s %v commits=%016x %+v\n", in.name, name, rec, hash.Sum64(), *st)
			}
		}
	}
	return buf.Bytes()
}

// TestStatsGolden pins the simulator's exact output — full Stats and the
// timed commit stream — for every oracle input × predictor family × both
// recovery modes against testdata/stats.golden. The fast-vs-reference and
// snapshot oracles compare two runs of the same code; a change to code both
// loops share (history folds, predictor payload plumbing, store sets) moves
// both alike and only this file notices.
//
// The golden changes only with an intended model change. On a mismatch the
// test writes the fresh rendering to testdata/stats.golden.new; review the
// diff and move it over stats.golden if the change is meant.
func TestStatsGolden(t *testing.T) {
	path := filepath.Join("testdata", "stats.golden")
	got := renderStatsGolden(t)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w && shown < 5 {
			t.Errorf("line %d differs:\n got  %s\n want %s", i+1, g, w)
			shown++
		}
	}
	if shown == 0 {
		t.Errorf("output differs from %s in length only", path)
	}
	if err := os.WriteFile(path+".new", got, 0o644); err == nil {
		t.Logf("fresh rendering written to %s.new", path)
	}
}
