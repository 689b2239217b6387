package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// runnerWindows are small enough for -short while still exercising real
// simulations on both backends.
const (
	runnerWarmup  = 1_000
	runnerMeasure = 4_000
)

// newBackends builds two Runners over identical window sizing: a
// LocalRunner, and a remote runner against an httptest-hosted Server.
// Differential tests drive both and require identical output.
func newBackends(t testing.TB) (*LocalRunner, *ShardedRunner) {
	t.Helper()
	local := NewLocalRunner(RunnerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, Workers: 4})
	srv, err := NewServer(ServerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	remote := openRemote(t, ts.URL, RunnerOptions{})
	t.Cleanup(func() {
		local.Close()
		remote.Close()
		ts.Close()
		srv.Close()
	})
	return local, remote
}

// openRemote is OpenRemoteRunner for tests: a constructor error fails t.
func openRemote(t testing.TB, url string, o RunnerOptions) *ShardedRunner {
	t.Helper()
	r, err := OpenRemoteRunner(url, o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// differentialSpecs is a small batch covering the classic four-field specs,
// a shared-baseline pair, and the extended canonical key (width, history,
// loads-only, explicit vector).
func differentialSpecs() []Spec {
	return []Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "gzip", Predictor: "lvp"},
		{Kernel: "gzip", Predictor: "stride", Counters: FPC, Recovery: SelectiveReissue},
		{Kernel: "art", Predictor: "vtage", Counters: FPC, Width: 4, MaxHist: 256},
		{Kernel: "art", Predictor: "lvp", LoadsOnly: true, FPCVec: "0,2,2,2,2,3,3"},
	}
}

// TestRunnerBackendEquivalence is the PR's acceptance test: the same specs
// and the same experiment, driven through a LocalRunner and a remote runner,
// must yield byte-identical records and rendered artifacts.
func TestRunnerBackendEquivalence(t *testing.T) {
	local, remote := newBackends(t)
	ctx := context.Background()
	specs := differentialSpecs()

	collect := func(r Runner) ([]Record, error) {
		var recs []Record
		err := r.Batch(ctx, specs, func(rec Record) error {
			recs = append(recs, rec)
			return nil
		})
		return recs, err
	}
	localRecs, err := collect(local)
	if err != nil {
		t.Fatalf("local batch: %v", err)
	}
	remoteRecs, err := collect(remote)
	if err != nil {
		t.Fatalf("remote batch: %v", err)
	}
	if len(localRecs) != len(specs) || len(remoteRecs) != len(specs) {
		t.Fatalf("got %d local / %d remote records, want %d each", len(localRecs), len(remoteRecs), len(specs))
	}
	for i := range specs {
		if localRecs[i].Kernel != specs[i].Kernel || localRecs[i].Predictor != specs[i].Predictor {
			t.Errorf("batch delivery out of spec order at %d: %+v", i, localRecs[i])
		}
	}
	localJSON, _ := json.Marshal(localRecs)
	remoteJSON, _ := json.Marshal(remoteRecs)
	if !bytes.Equal(localJSON, remoteJSON) {
		t.Errorf("backends disagree on batch records:\nlocal:  %s\nremote: %s", localJSON, remoteJSON)
	}

	// Single-spec dispatch must agree with itself across backends too.
	lr, err := local.Simulate(ctx, specs[3])
	if err != nil {
		t.Fatal(err)
	}
	rr, err := remote.Simulate(ctx, specs[3])
	if err != nil {
		t.Fatal(err)
	}
	if lr != rr {
		t.Errorf("Simulate disagrees across backends:\nlocal:  %+v\nremote: %+v", lr, rr)
	}

	// Experiment rendering: text (server-side render vs local render) and
	// csv (streamed records vs local records) are byte-identical.
	for _, format := range []string{"text", "csv"} {
		var lb, rb bytes.Buffer
		if err := local.Experiment(ctx, "fig1", ExperimentOptions{Format: format}, &lb); err != nil {
			t.Fatalf("local fig1 %s: %v", format, err)
		}
		if err := remote.Experiment(ctx, "fig1", ExperimentOptions{Format: format}, &rb); err != nil {
			t.Fatalf("remote fig1 %s: %v", format, err)
		}
		if lb.String() != rb.String() {
			t.Errorf("fig1 %s output differs across backends:\n--- local\n%s--- remote\n%s",
				format, lb.String(), rb.String())
		}
	}
}

// TestRunnerExperimentsIndex: both backends serve the same experiment
// index, and text-only experiments refuse structured formats identically.
func TestRunnerExperimentsIndex(t *testing.T) {
	local, remote := newBackends(t)
	ctx := context.Background()
	li, err := local.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := remote.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(li) != fmt.Sprint(ri) {
		t.Errorf("experiment indexes differ:\nlocal:  %v\nremote: %v", li, ri)
	}
	if len(li) == 0 || li[0].ID != "table1" {
		t.Errorf("unexpected index head: %v", li)
	}

	for _, r := range []Runner{local, remote} {
		err := r.Experiment(ctx, "table1", ExperimentOptions{Format: "json"}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "no structured results") {
			t.Errorf("%T: json for text-only experiment: %v", r, err)
		}
	}
}

// TestRunnerBatchCallbackAbort: a non-nil fn error stops the batch on both
// backends without delivering further records.
func TestRunnerBatchCallbackAbort(t *testing.T) {
	local, remote := newBackends(t)
	ctx := context.Background()
	sentinel := errors.New("stop after two")
	for _, tc := range []struct {
		name string
		r    Runner
	}{{"local", local}, {"remote", remote}} {
		calls := 0
		err := tc.r.Batch(ctx, differentialSpecs(), func(Record) error {
			calls++
			if calls == 2 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("%s: Batch returned %v, want the callback error", tc.name, err)
		}
		if calls != 2 {
			t.Errorf("%s: callback ran %d times after aborting at 2", tc.name, calls)
		}
	}
}

// TestRunnerValidatesSpecs: both backends reject invalid specs before (or
// at) the wire, with the shared harness validation error.
func TestRunnerValidatesSpecs(t *testing.T) {
	local, remote := newBackends(t)
	ctx := context.Background()
	bad := Spec{Kernel: "art", Predictor: "lvp", MaxHist: 256} // max_hist is vtage-only
	for _, tc := range []struct {
		name string
		r    Runner
	}{{"local", local}, {"remote", remote}} {
		if _, err := tc.r.Simulate(ctx, bad); err == nil || !strings.Contains(err.Error(), "max_hist") {
			t.Errorf("%s: bad spec error %v", tc.name, err)
		}
		err := tc.r.Batch(ctx, []Spec{bad}, func(Record) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "spec 0") {
			t.Errorf("%s: bad batch error %v", tc.name, err)
		}
	}
}

// TestRemoteRunnerTypedErrors: server-side failures surface as unwrapped
// *APIError values — errors.As works directly on what the runner returns.
func TestRemoteRunnerTypedErrors(t *testing.T) {
	_, remote := newBackends(t)
	ctx := context.Background()
	err := remote.Experiment(ctx, "fig99", ExperimentOptions{}, &bytes.Buffer{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("unknown experiment error %v is not an *APIError", err)
	}
	if apiErr.Status != 404 || apiErr.Code != APICodeNotFound {
		t.Errorf("got status %d code %q, want 404 %s", apiErr.Status, apiErr.Code, APICodeNotFound)
	}
	if !strings.Contains(apiErr.Msg, "fig4") {
		t.Errorf("404 message does not carry the index: %s", apiErr.Msg)
	}

	// Window-mismatch refusal is loud and names both sizings.
	err = remote.Experiment(ctx, "fig1", ExperimentOptions{Warmup: 77, Measure: 88}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "per-daemon") {
		t.Errorf("window mismatch error: %v", err)
	}
}

// TestRemoteRunnerBisectsOversizedFrames: a daemon whose admission limit is
// smaller than the runner's frame answers 413, and the runner bisects the
// frame until it fits — records stay byte-identical to a LocalRunner.
func TestRemoteRunnerBisectsOversizedFrames(t *testing.T) {
	local := shardedReference(t)
	srv, err := NewServer(ServerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, Workers: 2, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	remote := openRemote(t, ts.URL, RunnerOptions{})
	t.Cleanup(func() {
		remote.Close()
		ts.Close()
		srv.Close()
	})

	specs := differentialSpecs()
	want, got := asJSON(t, collectBatch(t, local, specs)), asJSON(t, collectBatch(t, remote, specs))
	if !bytes.Equal(want, got) {
		t.Errorf("bisected batch differs from local:\nlocal:  %s\nremote: %s", want, got)
	}
	requests := srv.Registry().CounterVec("repro_http_requests_total", "", "endpoint", "code")
	if requests.With("batch_sync", "413").Value() == 0 {
		t.Error("daemon never refused a frame: the 413 bisect path was not exercised")
	}
}

// TestRemoteRunnerCancelFreesWorkers: cancelling a Batch mid-frame aborts
// the batch-sync request, and the daemon stops the frame's simulations —
// no worker stays busy and nothing stays queued for a caller that left.
func TestRemoteRunnerCancelFreesWorkers(t *testing.T) {
	// Long windows, so the frame is mid-simulation when cancelled.
	srv, err := NewServer(ServerOptions{Warmup: 10_000, Measure: 2_000_000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	remote := openRemote(t, ts.URL, RunnerOptions{})
	t.Cleanup(func() {
		remote.Close()
		ts.Close()
		srv.Close()
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- remote.Batch(ctx, differentialSpecs(), func(Record) error { return nil })
	}()
	waitFor := func(what string, cond func(ServerStats) bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond(srv.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s: %+v", what, srv.Stats())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("the frame is simulating", func(st ServerStats) bool { return st.BusyWorkers > 0 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Batch returned %v, want context.Canceled", err)
	}
	waitFor("the daemon is idle", func(st ServerStats) bool { return st.BusyWorkers+st.QueuedTasks == 0 })
}

// TestRemoteRunnerClosedDaemon: a runner whose daemon is gone fails fast
// with an error instead of hanging in re-route or re-upload loops.
func TestRemoteRunnerClosedDaemon(t *testing.T) {
	srv, err := NewServer(ServerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	remote := openRemote(t, ts.URL, RunnerOptions{})
	t.Cleanup(func() { remote.Close() })
	ts.Close()
	srv.Close()

	ctx := context.Background()
	spec := differentialSpecs()[1]
	start := time.Now()
	if _, err := remote.Simulate(ctx, spec); err == nil {
		t.Error("Simulate against a closed daemon succeeded")
	}
	if err := remote.Batch(ctx, []Spec{spec}, func(Record) error { return nil }); err == nil {
		t.Error("Batch against a closed daemon succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("closed-daemon errors took %v, want under 5s", d)
	}
}

// TestRunnerExperimentWindowOverride: a LocalRunner honours per-call window
// overrides on a throwaway session — the output matches a runner built with
// those windows natively.
func TestRunnerExperimentWindowOverride(t *testing.T) {
	big := NewLocalRunner(RunnerOptions{Warmup: 500, Measure: 2_000})
	var native bytes.Buffer
	if err := big.Experiment(context.Background(), "fig1", ExperimentOptions{}, &native); err != nil {
		t.Fatal(err)
	}
	other := NewLocalRunner(RunnerOptions{Warmup: runnerWarmup, Measure: runnerMeasure})
	var overridden bytes.Buffer
	opts := ExperimentOptions{Warmup: 500, Measure: 2_000}
	if err := other.Experiment(context.Background(), "fig1", opts, &overridden); err != nil {
		t.Fatal(err)
	}
	if native.String() != overridden.String() {
		t.Errorf("window override render differs from native windows:\n--- native\n%s--- override\n%s",
			native.String(), overridden.String())
	}
	if misses := other.MemoStats().Misses; misses != 0 {
		t.Errorf("window-overridden render leaked %d simulations into the runner's session", misses)
	}
}
