package repro

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestKernelsAndPredictorsListed(t *testing.T) {
	if got := len(Kernels()); got != 19 {
		t.Errorf("Kernels() = %d entries, want 19", got)
	}
	found := map[string]bool{}
	for _, p := range Predictors() {
		found[p] = true
	}
	for _, want := range []string{"none", "lvp", "stride", "fcm", "vtage", "oracle", "vtage+stride"} {
		if !found[want] {
			t.Errorf("Predictors() missing %q", want)
		}
	}
}

func TestSimulateDefaultsAndErrors(t *testing.T) {
	r := NewLocalRunner(RunnerOptions{Warmup: 5_000, Measure: 20_000})
	defer r.Close()
	ctx := context.Background()
	if _, err := r.Simulate(ctx, Spec{Kernel: "nope", Predictor: "vtage"}); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := r.Simulate(ctx, Spec{Kernel: "gzip", Predictor: "nope"}); err == nil {
		t.Error("unknown predictor accepted")
	}
	rec, err := r.Simulate(ctx, Spec{Kernel: "gzip", Predictor: "vtage", Counters: FPC})
	if err != nil {
		t.Fatal(err)
	}
	if rec.IPC <= 0 || rec.Speedup <= 0 {
		t.Errorf("degenerate record: %+v", rec)
	}
}

func TestRunExperimentTable1(t *testing.T) {
	r := NewLocalRunner(RunnerOptions{})
	defer r.Close()
	var sb strings.Builder
	if err := r.Experiment(context.Background(), "table1", ExperimentOptions{}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"VTAGE", "LVP", "2D-Stride", "o4-FCM"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestSimulateWithWorkers(t *testing.T) {
	// The Workers knob must not change results, only scheduling. Separate
	// runners, so the second record is simulated again, not a memo hit.
	spec := Spec{Kernel: "gzip", Predictor: "lvp", Counters: FPC}
	var recs [2]Record
	for i, workers := range []int{1, 4} {
		r := NewLocalRunner(RunnerOptions{Warmup: 1_000, Measure: 4_000, Workers: workers})
		rec, err := r.Simulate(context.Background(), spec)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	if recs[0] != recs[1] {
		t.Errorf("Workers changed the record:\nseq: %+v\npar: %+v", recs[0], recs[1])
	}
}

func TestRunExperimentOptsJSON(t *testing.T) {
	r := NewLocalRunner(RunnerOptions{})
	defer r.Close()
	ctx := context.Background()
	var sb strings.Builder
	opt := ExperimentOptions{Warmup: 500, Measure: 2_000, Workers: 4, Format: "json"}
	if err := r.Experiment(ctx, "fig1", opt, &sb); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &recs); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	if len(recs) != len(Kernels()) {
		t.Errorf("got %d records, want %d", len(recs), len(Kernels()))
	}
	if err := r.Experiment(ctx, "table1", opt, &strings.Builder{}); err == nil {
		t.Error("json format accepted for a text-only experiment")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	r := NewLocalRunner(RunnerOptions{})
	defer r.Close()
	if err := r.Experiment(context.Background(), "fig99", ExperimentOptions{}, &strings.Builder{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentsCoverEveryPaperArtifact(t *testing.T) {
	ids := Experiments()
	want := []string{"table1", "table2", "table3", "fig1", "fig3", "fig4",
		"fig5", "fig6", "fig7", "acc", "sec3", "sec4"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing", id)
		}
	}
}

// TestNewServerFacade mounts the service layer through the facade only —
// the path external consumers take — and drives one synchronous simulation
// and one experiment job through NewClient.
func TestNewServerFacade(t *testing.T) {
	srv, err := NewServer(ServerOptions{Warmup: 1_000, Measure: 4_000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := NewClient(ts.URL)
	ctx := context.Background()
	rec, err := c.Simulate(ctx, SpecRequest{Kernel: "gzip", Predictor: "stride", Counters: "fpc"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kernel != "gzip" || rec.Predictor != "stride" || rec.IPC <= 0 {
		t.Errorf("bad record over the facade: %+v", rec)
	}

	job, err := c.SubmitExperiment(ctx, "table1")
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || !strings.Contains(final.Artifact, "VTAGE") {
		t.Errorf("table1 job over the facade: state=%s artifact=%q", final.State, final.Artifact)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MemoMisses == 0 {
		t.Error("statsz shows no simulations after a simulate call")
	}
}
